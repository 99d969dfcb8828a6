"""Ranking metrics, TREC run/qrels exchange, residual-collection filtering,
and the old/new query report. A run file stores each score as its shortest
round-trip decimal, and write_run returns the run as read_run reads it back.

NDCG uses linear gain and the log2(r + 1) discount by default; exponential
gain (2^g - 1) is available behind the `gain` flag. Queries with no relevant
document score 0 and are flagged; they stay in means unless explicitly
skipped. An ideal DCG that overflows a float raises NumericError, not nan.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

from .checkpoint import read_lines, write_atomic
from .corpus import Qrels
from .errors import NumericError, ParseError, ToolkitWarning
from .sparse import RankedList

GAIN_FUNCTIONS = {
    "linear": lambda g: float(g),
    "exp": lambda g: float(2**g - 1),
}


def _gain_fn(gain: str):
    try:
        return GAIN_FUNCTIONS[gain]
    except KeyError:
        raise ValueError(f"unknown gain {gain!r}; expected one of {sorted(GAIN_FUNCTIONS)}")


def ndcg_at_k(ranking: RankedList, qrels_entry, k: int, gain: str = "linear") -> float:
    """DCG@k / ideal DCG@k with gain(rel)/log2(rank+1); 0 if nothing relevant.

    Documents absent from the qrels entry count as grade 0. A Qrels entry
    keeps its ideal DCGs until Qrels.add changes it; one that overflows a
    float raises NumericError."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = _gain_fn(gain)
    ideal = getattr(qrels_entry, "ideal", {})  # a corpus.Judgments entry's memo
    if (k, gain) not in ideal:
        top = sorted((g(v) for v in qrels_entry.values()), reverse=True)[:k]
        ideal[k, gain] = sum(v / math.log2(r + 1) for r, v in enumerate(top, start=1))
    if not math.isfinite(idcg := ideal[k, gain]):
        raise NumericError(f"ideal DCG@{k} of query {ranking.query_id} overflows a float")
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        g(qrels_entry.get(doc_id, 0)) / math.log2(r + 1)
        for r, (doc_id, _) in enumerate(ranking.entries[:k], start=1)
    )
    return dcg / idcg


def precision_at_k(ranking: RankedList, qrels_entry, k: int) -> float:
    """Fraction of the top k slots holding a relevant document (grade > 0)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(1 for doc_id, _ in ranking.entries[:k] if qrels_entry.get(doc_id, 0) > 0)
    return hits / k


def mean_ndcg(rankings, qrels: Qrels, k: int) -> float:
    """Mean NDCG@k over every ranking, a query absent from `qrels` scoring 0;
    0.0 when there are no rankings."""
    values = [ndcg_at_k(r, qrels.judgments.get(r.query_id, {}), k) for r in rankings]
    return sum(values) / len(values) if values else 0.0


@dataclass
class Run:
    """Per-query rankings plus the run tag used in TREC exchange files."""

    rankings: dict[int, RankedList] = field(default_factory=dict)
    tag: str = "ranklab"


@dataclass(frozen=True)
class QuerySplit:
    """Previously judged ("old") vs newly added ("new") query ids."""

    old_query_ids: frozenset[int]
    new_query_ids: frozenset[int]

    def __post_init__(self):
        overlap = self.old_query_ids & self.new_query_ids
        if overlap:
            raise ValueError(f"query ids in both splits: {sorted(overlap)}")

    @classmethod
    def from_ids(cls, old, new) -> "QuerySplit":
        return cls(frozenset(old), frozenset(new))


def residual_filter(run: Run, prior_qrels: Qrels, split: QuerySplit) -> Run:
    """Remove previously judged docs from old queries' rankings; new queries untouched.

    Remaining documents keep their scores and close ranks contiguously.
    Idempotent: a second application removes nothing further.
    """
    filtered: dict[int, RankedList] = {}
    for query_id, ranking in run.rankings.items():
        if query_id in split.old_query_ids:
            judged = prior_qrels.judged_docs(query_id)
            entries = tuple(e for e in ranking.entries if e[0] not in judged)
            filtered[query_id] = RankedList(query_id, entries)
        else:
            filtered[query_id] = ranking
    return Run(filtered, run.tag)


@dataclass(frozen=True)
class QueryMetrics:
    query_id: int
    group: str  # "old" | "new"
    ndcg: float
    precision: float
    no_relevant: bool
    unjudged_in_top_k: int


@dataclass(frozen=True)
class MetricGroup:
    n_queries: int
    ndcg: float
    precision: float


@dataclass(frozen=True)
class EvaluationReport:
    k: int
    overall: MetricGroup
    old: MetricGroup | None
    new: MetricGroup | None
    per_query: tuple[QueryMetrics, ...]

    def to_text(self) -> str:
        lines = [f"{'group':<8} {'queries':>7} {f'ndcg@{self.k}':>10} {'p@5':>8}"]
        for name, grp in (("overall", self.overall), ("old", self.old), ("new", self.new)):
            if grp is None:
                lines.append(f"{name:<8} {'absent':>7}")
            else:
                lines.append(f"{name:<8} {grp.n_queries:>7} {grp.ndcg:>10.6f} {grp.precision:>8.6f}")
        lines.append("")
        lines.append(f"{'query':>5} {'group':<5} {f'ndcg@{self.k}':>10} {'p@5':>8}  flags")
        for q in self.per_query:
            flags = []
            if q.no_relevant:
                flags.append("no-relevant")
            if q.unjudged_in_top_k:
                flags.append(f"unjudged@{self.k}={q.unjudged_in_top_k}")
            lines.append(
                f"{q.query_id:>5} {q.group:<5} {q.ndcg:>10.6f} {q.precision:>8.6f}  {','.join(flags)}"
            )
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[dict]:
        records = []
        for name, grp in (("overall", self.overall), ("old", self.old), ("new", self.new)):
            if grp is not None:
                records.append({
                    "kind": "group", "group": name, "n_queries": grp.n_queries,
                    f"ndcg@{self.k}": grp.ndcg, "p@5": grp.precision,
                })
        for q in self.per_query:
            records.append({
                "kind": "query", "query_id": q.query_id, "group": q.group,
                f"ndcg@{self.k}": q.ndcg, "p@5": q.precision,
                "no_relevant": q.no_relevant, "unjudged_in_top_k": q.unjudged_in_top_k,
            })
        return records

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.to_records()
        )


def old_new_report(run: Run, qrels: Qrels, split: QuerySplit, k: int = 10,
                   skip_unjudgeable: bool = False, gain: str = "linear") -> EvaluationReport:
    """Overall / old-only / new-only means of NDCG@k and P@5 over judged queries."""
    query_ids = qrels.query_ids()
    uncovered = [q for q in query_ids if q not in split.old_query_ids and q not in split.new_query_ids]
    if uncovered:
        raise ValueError(f"split does not cover evaluated queries: {uncovered}")
    per_query: list[QueryMetrics] = []
    for query_id in query_ids:
        entry = qrels.judgments[query_id]
        ranking = run.rankings.get(query_id) or RankedList(query_id, ())
        no_relevant = not any(g > 0 for g in entry.values())
        unjudged = sum(1 for doc_id, _ in ranking.entries[:k] if doc_id not in entry)
        per_query.append(QueryMetrics(
            query_id=query_id,
            group="old" if query_id in split.old_query_ids else "new",
            ndcg=ndcg_at_k(ranking, entry, k, gain),
            precision=precision_at_k(ranking, entry, 5),
            no_relevant=no_relevant,
            unjudged_in_top_k=unjudged,
        ))

    def summarize(rows) -> MetricGroup | None:
        rows = [r for r in rows if not (skip_unjudgeable and r.no_relevant)]
        if not rows:
            return None
        return MetricGroup(
            n_queries=len(rows),
            ndcg=sum(r.ndcg for r in rows) / len(rows),
            precision=sum(r.precision for r in rows) / len(rows),
        )

    overall = summarize(per_query)
    if overall is None:
        overall = MetricGroup(0, 0.0, 0.0)
    return EvaluationReport(
        k=k,
        overall=overall,
        old=summarize([r for r in per_query if r.group == "old"]),
        new=summarize([r for r in per_query if r.group == "new"]),
        per_query=tuple(per_query),
    )


def write_run(run: Run, path) -> Run:
    """Serialize as TREC run lines "query_id Q0 doc_id rank score tag"; scores as repr(float).
    Returns the run as read_run parses it back: lists with entries, tag "external" if none."""
    kept = {q: r for q, r in sorted(run.rankings.items()) if r.entries}
    write_atomic(path, "".join(
        f"{query_id} Q0 {doc_id} {rank} {float(score)!r} {run.tag}\n"
        for query_id, ranking in kept.items()
        for rank, (doc_id, score) in enumerate(ranking.entries, start=1)))
    return Run(kept, run.tag if kept else "external")


def read_run(path) -> Run:
    """Parse a TREC run file; rankings are re-sorted by (score desc, doc_id asc)."""
    by_query: dict[int, dict[str, tuple[int, float]]] = {}  # query id -> doc id -> (rank, score)
    tag = "external"
    for line_no, line in read_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(path, line_no, f"expected 6 fields, got {len(parts)}")
        try:
            query_id = int(parts[0])
            rank = int(parts[3])
            score = float(parts[4])
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if math.isnan(score):
            raise ParseError(path, line_no, "score is not a number")
        tag = parts[5]
        listed = by_query.setdefault(query_id, {})
        if parts[2] in listed:
            raise ParseError(path, line_no, f"doc_id {parts[2]} is listed twice for query {query_id}")
        listed[parts[2]] = (rank, score)
    rankings: dict[int, RankedList] = {}
    for query_id in sorted(by_query):
        rows = sorted(((rank, doc, score) for doc, (rank, score) in by_query[query_id].items()),
                      key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            warnings.warn(
                f"{path}: query {query_id} ranks not contiguous from 1; renumbering",
                ToolkitWarning, stacklevel=2,
            )
        scores = [score for _, _, score in rows]
        if any(a < b for a, b in zip(scores, scores[1:])):
            warnings.warn(
                f"{path}: query {query_id} scores increase along ranks; re-sorted",
                ToolkitWarning, stacklevel=2,
            )
        rankings[query_id] = RankedList.from_scores(
            query_id, [(doc, score) for _, doc, score in rows])
    return Run(rankings, tag)


def read_qrels(path) -> Qrels:
    """Parse TREC qrels "query_id 0 doc_id grade"; duplicate pairs keep the last grade."""
    qrels = Qrels()
    for line_no, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(path, line_no, f"expected 4 fields, got {len(parts)}")
        try:
            query_id = int(parts[0])
            grade = int(parts[3])
            float(grade)  # as NDCG's linear gain reads it
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        except OverflowError as exc:
            raise ParseError(path, line_no, "grade is too large for a float") from exc
        if grade < 0:
            raise ParseError(path, line_no, f"negative grade {grade}")
        doc_id = parts[2]
        if doc_id in qrels.judgments.get(query_id, {}):
            warnings.warn(
                f"{path}:{line_no}: duplicate judgment for ({query_id}, {doc_id}); last wins",
                ToolkitWarning, stacklevel=2,
            )
        qrels.add(query_id, doc_id, grade)
    return qrels


def load_split(path) -> QuerySplit:
    """Parse "query_id old|new" lines into a QuerySplit; a query id may appear once."""
    old, new = set(), set()
    for line_no, line in read_lines(path):
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("old", "new"):
            raise ParseError(path, line_no, "expected 'query_id old|new'")
        try:
            query_id = int(parts[0])
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        if query_id in old or query_id in new:
            raise ParseError(path, line_no, f"query_id {query_id} is already split")
        (old if parts[1] == "old" else new).add(query_id)
    return QuerySplit.from_ids(old, new)
