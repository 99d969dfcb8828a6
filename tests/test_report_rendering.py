"""report.txt renders the records report.jsonl holds: EvaluationReport.to_text
reads only to_records' list, and gives the text of the former rendering, which
walked the report's groups and queries itself, kept here as the oracle."""

from dataclasses import replace

from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.evaluation import EvaluationReport, MetricGroup, QueryMetrics


def former_to_text(report: EvaluationReport) -> str:
    """to_text as it was before it rendered to_records' list."""
    lines = [f"{'group':<8} {'queries':>7} {f'ndcg@{report.k}':>10} {'p@5':>8}"]
    for name, grp in (("overall", report.overall), ("old", report.old), ("new", report.new)):
        if grp is None:
            lines.append(f"{name:<8} {'absent':>7}")
        else:
            lines.append(f"{name:<8} {grp.n_queries:>7} {grp.ndcg:>10.6f} {grp.precision:>8.6f}")
    lines.append("")
    lines.append(f"{'query':>5} {'group':<5} {f'ndcg@{report.k}':>10} {'p@5':>8}  flags")
    for q in report.per_query:
        flags = []
        if q.no_relevant:
            flags.append("no-relevant")
        if q.unjudged_in_top_k:
            flags.append(f"unjudged@{report.k}={q.unjudged_in_top_k}")
        lines.append(
            f"{q.query_id:>5} {q.group:<5} {q.ndcg:>10.6f} {q.precision:>8.6f}  {','.join(flags)}"
        )
    return "\n".join(lines) + "\n"


scores = st.floats(allow_nan=False, allow_infinity=False)
groups = st.builds(MetricGroup, st.integers(0, 10**6), scores, scores)
queries = st.builds(QueryMetrics, st.integers(0, 10**6), st.sampled_from(["old", "new"]), scores, scores,
                    st.booleans(), st.integers(0, 10**5))
reports = st.builds(EvaluationReport, st.integers(1, 99_999), groups, st.none() | groups,
                    st.none() | groups, st.lists(queries, max_size=8).map(tuple))

FLAGGED = (QueryMetrics(7, "old", 0.0, 0.0, True, 3), QueryMetrics(12345, "new", 1.0, 0.2, False, 0))


@given(reports)
@example(EvaluationReport(1, MetricGroup(0, 0.0, 0.0), None, None, ()))
@example(EvaluationReport(99_999, MetricGroup(2, 0.5, 0.1), None, MetricGroup(1, 1.0, 0.2), FLAGGED))
@example(EvaluationReport(10, MetricGroup(2, 0.5, 0.1), MetricGroup(1, 0.0, 0.0), None, FLAGGED))
def test_to_text_is_the_former_rendering(report):
    assert report.to_text() == former_to_text(report)


def test_to_text_renders_the_records_it_is_given(monkeypatch):
    """A value changed in to_records' list, and only there, shows in the text."""
    report = EvaluationReport(10, MetricGroup(2, 0.5, 0.1), MetricGroup(1, 0.25, 0.2), None, FLAGGED)
    records = report.to_records()
    assert [r["kind"] for r in records] == ["group", "group", "query", "query"]
    changed = [{**r, "ndcg@10": 0.75} for r in records]
    monkeypatch.setattr(EvaluationReport, "to_records", lambda self: changed)
    as_changed = replace(report, overall=MetricGroup(2, 0.75, 0.1), old=MetricGroup(1, 0.75, 0.2),
                         per_query=tuple(replace(q, ndcg=0.75) for q in FLAGGED))
    assert report.to_text() == former_to_text(as_changed)
    assert "absent" in report.to_text().splitlines()[3]
