"""The old/new report reads doc-id lists, and a Ranking is checked without RankedLists.

doc_ids_report scores each query's doc ids in rank order, residual-filtered
against prior qrels when they are given. The oracle is old_new_report and
residual_filter as they were when they read a Run's RankedLists, kept here:
the records and report.txt's bytes must be the same. Ranking.check must reject
exactly the rows that RankedList rejects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklab.corpus import Qrels
from ranklab.evaluation import (
    EvaluationReport, MetricGroup, QueryMetrics, QuerySplit, Run, doc_ids_report, ndcg_at_k,
    old_new_report, precision_at_k, residual_filter,
)
from ranklab.rerank import Ranking
from ranklab.sparse import RankedList, doc_id_ranks


def former_residual_filter(run, prior_qrels, split):
    """residual_filter before it shared its rule with doc_ids_report."""
    filtered = {}
    for query_id, ranking in run.rankings.items():
        if query_id in split.old_query_ids:
            judged = prior_qrels.judged_docs(query_id)
            filtered[query_id] = RankedList(query_id, tuple(e for e in ranking.entries if e[0] not in judged))
        else:
            filtered[query_id] = ranking
    return Run(filtered, run.tag)


def former_old_new_report(run, qrels, split, k=10, skip_unjudgeable=False, gain="linear"):
    """old_new_report before it read doc-id lists: one RankedList per query."""
    query_ids = qrels.query_ids()
    uncovered = [q for q in query_ids if q not in split.old_query_ids and q not in split.new_query_ids]
    if uncovered:
        raise ValueError(f"split does not cover evaluated queries: {uncovered}")
    per_query = []
    for query_id in query_ids:
        entry = qrels.judgments[query_id]
        ranking = run.rankings.get(query_id) or RankedList(query_id, ())
        per_query.append(QueryMetrics(
            query_id=query_id,
            group="old" if query_id in split.old_query_ids else "new",
            ndcg=ndcg_at_k(ranking, entry, k, gain),
            precision=precision_at_k(ranking, entry, 5),
            no_relevant=not any(g > 0 for g in entry.values()),
            unjudged_in_top_k=sum(1 for doc_id, _ in ranking.entries[:k] if doc_id not in entry),
        ))

    def summarize(rows):
        rows = [r for r in rows if not (skip_unjudgeable and r.no_relevant)]
        if not rows:
            return None
        return MetricGroup(len(rows), sum(r.ndcg for r in rows) / len(rows),
                           sum(r.precision for r in rows) / len(rows))

    overall = summarize(per_query) or MetricGroup(0, 0.0, 0.0)
    return EvaluationReport(k, overall, summarize([r for r in per_query if r.group == "old"]),
                            summarize([r for r in per_query if r.group == "new"]), tuple(per_query))


DOCS = [f"d{i}" for i in range(15)]
QUERIES = list(range(1, 7))
judgments = st.dictionaries(st.sampled_from(QUERIES), st.dictionaries(
    st.sampled_from(DOCS), st.integers(0, 4), min_size=1), max_size=len(QUERIES))


@st.composite
def cases(draw):
    """A run (some queries absent, some lists empty), qrels, a split covering the
    judged queries, prior qrels, and the report's settings."""
    run = Run({q: RankedList.from_scores(q, [(d, float(-i)) for i, d in enumerate(docs)])
               for q, docs in draw(st.dictionaries(st.sampled_from(QUERIES), st.permutations(DOCS).flatmap(
                   lambda docs: st.integers(0, len(docs)).map(lambda n: docs[:n])))).items()})
    qrels, prior = Qrels(), Qrels()
    for target, entries in ((qrels, draw(judgments)), (prior, draw(judgments))):
        for q, grades in entries.items():
            for d, g in grades.items():
                target.add(q, d, g)
    old = draw(st.sets(st.sampled_from(QUERIES)))
    split = QuerySplit.from_ids(old, set(QUERIES) - old)
    return run, qrels, prior, split, draw(st.integers(1, 12)), draw(st.booleans()), draw(
        st.sampled_from(["linear", "exp"])), draw(st.booleans())


@settings(max_examples=300)
@given(cases())
def test_the_doc_list_report_is_the_former_report(case):
    run, qrels, prior, split, k, skip, gain, residual = case
    expected = former_old_new_report(former_residual_filter(run, prior, split) if residual else run,
                                     qrels, split, k, skip, gain)
    lists = {q: ranking.doc_ids() for q, ranking in run.rankings.items()}
    for got in (doc_ids_report(lists, qrels, split, k, skip, gain, prior if residual else None),
                old_new_report(residual_filter(run, prior, split) if residual else run,
                               qrels, split, k, skip, gain)):
        assert got.to_records() == expected.to_records()
        assert got.to_text().encode() == expected.to_text().encode()
        assert got == expected


@given(cases())
def test_residual_filter_is_the_former_filter(case):
    run, _, prior, split, *_ = case
    assert residual_filter(run, prior, split) == former_residual_filter(run, prior, split)


def test_the_report_reads_only_the_first_max_k_5_kept_doc_ids():
    """Past the first max(k, 5) doc ids that residual filtering keeps, nothing is read."""
    qrels, prior = Qrels(), Qrels()
    qrels.add(1, "a", 1)
    prior.add(1, "x", 1)
    read = []

    def doc_ids():
        for d in ["x", "a", "b", "c", "d", "e", "f", "g"]:
            read.append(d)
            yield d
    doc_ids_report({1: doc_ids()}, qrels, QuerySplit.from_ids({1}, ()), 3, prior_qrels=prior)
    assert read == ["x", "a", "b", "c", "d", "e"]


def test_an_uncovered_query_is_the_former_error():
    qrels = Qrels({1: {"a": 1}})
    with pytest.raises(ValueError, match=r"split does not cover evaluated queries: \[1\]"):
        doc_ids_report({}, qrels, QuerySplit.from_ids((), ()))


def _ranking(rows):
    """A Ranking of (doc ids, scores) rows, all one length, with doc-id ranks over DOCS."""
    rank = dict(zip(DOCS, doc_id_ranks(DOCS).tolist()))
    n = len(rows[0][0]) if rows else 0
    return Ranking(list(range(1, len(rows) + 1)),
                   np.array([docs for docs, _ in rows], dtype=object).reshape(len(rows), n),
                   np.array([[rank[d] for d in docs] for docs, _ in rows], dtype=np.intp).reshape(len(rows), n),
                   np.array([scores for _, scores in rows], dtype=np.float64).reshape(len(rows), n))


def _rejected_by_ranked_list(query_id, docs, scores) -> bool:
    try:
        RankedList(query_id, tuple(zip(docs, scores)))
    except ValueError:
        return True
    return False


# few distinct scores, so ties are common; nan and infinities compare as RankedList compares them
row_scores = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, float("inf"), float("nan")])


@st.composite
def rows(draw, n):
    """A row that is often valid: sorted by (-score, doc id), then perhaps broken."""
    docs = draw(st.lists(st.sampled_from(DOCS), min_size=n, max_size=n, unique=draw(st.booleans())))
    scores = draw(st.lists(row_scores, min_size=n, max_size=n))
    if draw(st.booleans()):
        pairs = sorted(zip(docs, scores), key=lambda e: (-e[1], e[0]))
        docs, scores = [d for d, _ in pairs], [s for _, s in pairs]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        docs[i], docs[i + 1] = docs[i + 1], docs[i]
    return docs, scores


@settings(max_examples=400)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(rows(n), min_size=1, max_size=4)))
def test_ranking_check_rejects_the_rows_ranked_list_rejects(rows_):
    rejected = [_rejected_by_ranked_list(q, docs, scores) for q, (docs, scores) in enumerate(rows_, start=1)]
    for q, row in enumerate(rows_, start=1):  # each row alone
        ranking = _ranking([row])
        if rejected[q - 1]:
            with pytest.raises(ValueError, match="ranking of query 1 "):
                ranking.check()
        else:
            assert ranking.check() is ranking
    if any(rejected):  # together, the first rejected row is named
        with pytest.raises(ValueError, match=f"ranking of query {rejected.index(True) + 1} "):
            _ranking(rows_).check()
    else:
        _ranking(rows_).check()


@pytest.mark.parametrize("docs, scores", [
    (["d1", "d1"], [2.0, 1.0]),  # a repeated doc, in score order
    (["d1", "d2"], [1.0, 2.0]),  # a rising score
    (["d2", "d1"], [1.0, 1.0]),  # a tie out of doc-id order
    (["d1", "d2", "d1"], [1.0, 1.0, 0.0]),  # a repeat that is not adjacent
], ids=["repeat", "rising", "tie", "repeat-apart"])
def test_each_broken_rule_is_rejected_by_both(docs, scores):
    assert _rejected_by_ranked_list(1, docs, scores)
    with pytest.raises(ValueError, match="ranking of query 1 "):
        _ranking([(docs, scores)]).check()
