"""Ranking metrics, TREC run/qrels exchange, residual-collection filtering,
and the old/new query report. A run file stores each score as its shortest
round-trip decimal, and write_run returns the run as read_run reads it back.

NDCG uses linear gain and the log2(r + 1) discount by default; exponential
gain (2^g - 1) is available behind the `gain` flag. Queries with no relevant
document score 0 and are flagged; they stay in means unless explicitly
skipped. An ideal DCG that overflows a float raises NumericError, not nan.
mean_ndcg takes a rerank.Ranking and scores its doc-id rows as ndcg_at_k scores
each row's RankedList, without building those lists. The old/new report reads doc-id lists:
doc_ids_report reads each query's first max(k, 5) doc ids that _residual's rule keeps, the rule
residual_filter applies, and old_new_report scores a Run through it. report.txt renders the
records report.jsonl holds, and each depth_sweep.tsv row its overall group's.
"""

from __future__ import annotations

import itertools
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
DEV_K = 10  # the training stages' dev cut-off: dev rankings are scored by NDCG@DEV_K
GROUPS = ("overall", "old", "new")  # an EvaluationReport's query groups, in report order


def ndcg_at_k(ranking: RankedList, qrels_entry, k: int, gain: str = "linear") -> float:
    """DCG@k / ideal DCG@k with gain(rel)/log2(rank+1); 0 if nothing relevant.

    Documents absent from the qrels entry count as grade 0. A Qrels entry
    keeps its ideal DCGs until Qrels.add changes it; one that overflows a
    float raises NumericError."""
    return _ndcg(ranking.query_id, [doc_id for doc_id, _ in ranking.entries[:k]], qrels_entry, k, gain)


def _ndcg(query_id: int, doc_ids, qrels_entry, k: int, gain: str = "linear") -> float:
    """ndcg_at_k of the list whose first k doc ids are `doc_ids`."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (g := GAIN_FUNCTIONS.get(gain)) is None:
        raise ValueError(f"unknown gain {gain!r}; expected one of {sorted(GAIN_FUNCTIONS)}")
    ideal = getattr(qrels_entry, "ideal", {})  # a corpus.Judgments entry's memo
    if (k, gain) not in ideal:
        top = sorted((g(v) for v in qrels_entry.values()), reverse=True)[:k]
        ideal[k, gain] = sum(v / math.log2(r + 1) for r, v in enumerate(top, start=1))
    if not math.isfinite(idcg := ideal[k, gain]):
        raise NumericError(f"ideal DCG@{k} of query {query_id} overflows a float")
    if idcg == 0.0:
        return 0.0
    dcg = sum(g(qrels_entry.get(doc_id, 0)) / math.log2(r + 1) for r, doc_id in enumerate(doc_ids, start=1))
    return dcg / idcg


def precision_at_k(ranking: RankedList, qrels_entry, k: int) -> float:
    """Fraction of the top k slots holding a relevant document (grade > 0)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(1 for doc_id, _ in ranking.entries[:k] if qrels_entry.get(doc_id, 0) > 0)
    return hits / k


def mean_ndcg(ranking, qrels: Qrels, k: int) -> float:
    """Mean NDCG@k over the rows of a rerank.Ranking, a query absent from
    `qrels` scoring 0; 0.0 when it has no rows."""
    values = [_ndcg(q, doc_ids, qrels.judgments.get(q, {}), k)
              for q, doc_ids in zip(ranking.query_ids, ranking.doc_ids[:, :k].tolist())]
    return sum(values) / len(values) if values else 0.0


@dataclass
class Run:
    """Per-query rankings plus the run tag used in TREC exchange files."""

    rankings: dict[int, RankedList] = field(default_factory=dict)
    tag: str = "ranklab"

    def doc_ids(self) -> dict:
        """Each query's doc ids in rank order, an iterator read only as far as it is needed."""
        return {query_id: (d for d, _ in ranking.entries) for query_id, ranking in self.rankings.items()}


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


def _residual(prior_qrels: Qrels, split: QuerySplit, query_id: int) -> set[str]:
    """The doc ids residual evaluation removes from a query's list: an old query's prior judgments."""
    return prior_qrels.judged_docs(query_id) if query_id in split.old_query_ids else set()


def residual_filter(run: Run, prior_qrels: Qrels, split: QuerySplit) -> Run:
    """Remove previously judged docs from old queries' rankings; new queries untouched.

    Remaining documents keep their scores and close ranks contiguously.
    Idempotent: a second application removes nothing further.
    """
    return Run({query_id: RankedList(query_id, tuple(e for e in ranking.entries if e[0] not in judged))
                if (judged := _residual(prior_qrels, split, query_id)) else ranking
                for query_id, ranking in run.rankings.items()}, run.tag)


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
        """report.txt: the records of to_records, a group with no record printed absent."""
        key, records = f"ndcg@{self.k}", self.to_records()
        groups = {r["group"]: r for r in records if r["kind"] == "group"}
        lines = [f"{'group':<8} {'queries':>7} {key:>10} {'p@5':>8}"]
        for name in GROUPS:
            lines.append(f"{name:<8} {'absent':>7}" if (g := groups.get(name)) is None
                         else f"{name:<8} {g['n_queries']:>7} {g[key]:>10.6f} {g['p@5']:>8.6f}")
        lines += ["", f"{'query':>5} {'group':<5} {key:>10} {'p@5':>8}  flags"]
        for r in records[len(groups):]:  # the query records follow the group records
            flags = ["no-relevant"] * r["no_relevant"] + [
                f"unjudged@{self.k}={r['unjudged_in_top_k']}"] * bool(r["unjudged_in_top_k"])
            lines.append(
                f"{r['query_id']:>5} {r['group']:<5} {r[key]:>10.6f} {r['p@5']:>8.6f}  {','.join(flags)}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[dict]:
        """report.jsonl's records: one per group the report holds, in GROUPS order, then one per query."""
        key = f"ndcg@{self.k}"
        groups = [{"kind": "group", "group": name, "n_queries": g.n_queries, key: g.ndcg, "p@5": g.precision}
                  for name in GROUPS if (g := getattr(self, name)) is not None]
        return groups + [{"kind": "query", "query_id": q.query_id, "group": q.group, key: q.ndcg,
                          "p@5": q.precision, "no_relevant": q.no_relevant,
                          "unjudged_in_top_k": q.unjudged_in_top_k} for q in self.per_query]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.to_records()
        )


def old_new_report(run: Run, qrels: Qrels, split: QuerySplit, k: int = 10,
                   skip_unjudgeable: bool = False, gain: str = "linear") -> EvaluationReport:
    """Overall / old-only / new-only means of NDCG@k and P@5 over judged queries."""
    return doc_ids_report(run.doc_ids(), qrels, split, k, skip_unjudgeable, gain)


def doc_ids_report(lists, qrels: Qrels, split: QuerySplit, k: int = 10, skip_unjudgeable: bool = False,
                   gain: str = "linear", prior_qrels: Qrels | None = None) -> EvaluationReport:
    """old_new_report of the run whose query ids `lists` maps to their doc ids in
    rank order, residual-filtered against `prior_qrels` when it is given. Reads the
    first max(k, 5) doc ids of each judged query that the filter keeps."""
    query_ids = qrels.query_ids()
    uncovered = [q for q in query_ids if q not in split.old_query_ids and q not in split.new_query_ids]
    if uncovered:
        raise ValueError(f"split does not cover evaluated queries: {uncovered}")
    per_query: list[QueryMetrics] = []
    for query_id in query_ids:
        entry = qrels.judgments[query_id]
        ids = lists.get(query_id, ())
        if prior_qrels is not None and (judged := _residual(prior_qrels, split, query_id)):
            ids = (d for d in ids if d not in judged)
        top = list(itertools.islice(ids, max(k, 5)))
        per_query.append(QueryMetrics(
            query_id=query_id,
            group="old" if query_id in split.old_query_ids else "new",
            ndcg=_ndcg(query_id, top[:k], entry, k, gain),
            precision=sum(entry.get(doc_id, 0) > 0 for doc_id in top[:5]) / 5,
            no_relevant=not any(g > 0 for g in entry.values()),
            unjudged_in_top_k=sum(doc_id not in entry for doc_id in top[:k]),
        ))

    def summarize(rows) -> MetricGroup | None:
        rows = [r for r in rows if not (skip_unjudgeable and r.no_relevant)]
        return MetricGroup(len(rows), sum(r.ndcg for r in rows) / len(rows),
                           sum(r.precision for r in rows) / len(rows)) if rows else None

    return EvaluationReport(k, summarize(per_query) or MetricGroup(0, 0.0, 0.0),
                            summarize([r for r in per_query if r.group == "old"]),
                            summarize([r for r in per_query if r.group == "new"]), tuple(per_query))


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
