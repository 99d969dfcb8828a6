"""Inverted index and BM25 top-k retrieval (the base retrieval stage).

Scoring uses the Lucene-style non-negative idf ln(1 + (N - df + 0.5) / (df + 0.5))
with defaults k1=0.9, b=0.4. Ranked lists break score ties by ascending doc_id.

Both BM25 and dense search cut their lists with `top_k_entries`, which equals
taking the first k of the whole corpus sorted by (-score, doc_id) without
sorting the corpus: `np.partition` finds the k-th largest score t, every
ordinal scoring at least t is kept (so all documents tied with the k-th one
stay candidates, and nothing outside the kept set can precede one inside it),
and `np.lexsort` orders the kept ordinals by the same key, -score first, then
the doc id's rank in Python string order. That rank is computed once per index
by comparing the ids as Python strings, so it is the order `RankedList`
checks (numpy's unicode dtype would drop trailing NULs). Scores must be
finite: NaN compares as larger than every number in `np.partition`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import load_arrays, save_arrays
from .corpus import Qrels, Query, text_terms
from .errors import EmptyCorpusError, UndefinedMetricError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4


@dataclass(frozen=True)
class RankedList:
    """Per-query ranking, strictly ordered by (score desc, doc_id asc)."""

    query_id: int
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        seen = set()
        for doc_id, _ in self.entries:
            if doc_id in seen:
                raise ValueError(f"duplicate doc_id {doc_id!r} in ranking")
            seen.add(doc_id)
        for (d1, s1), (d2, s2) in zip(self.entries, self.entries[1:]):
            if s1 < s2 or (s1 == s2 and d1 >= d2):
                raise ValueError(
                    f"ranking not ordered by (score desc, doc_id asc) at {d1!r}/{d2!r}"
                )

    @classmethod
    def from_scores(cls, query_id: int, scored) -> "RankedList":
        """Sort (doc_id, score) pairs with the global tie-break rule."""
        ordered = sorted(scored, key=lambda e: (-e[1], e[0]))
        return cls(query_id, tuple((d, float(s)) for d, s in ordered))

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.entries]

    def top(self, k: int) -> "RankedList":
        return RankedList(self.query_id, self.entries[:k])


class InvertedIndex:
    """Postings, document lengths, and corpus statistics for BM25."""

    def __init__(self, postings, doc_lengths, doc_ids):
        self.postings: dict[str, list[tuple[int, int]]] = postings
        self.doc_lengths: list[int] = doc_lengths
        self.doc_ids: list[str] = doc_ids
        self.doc_count = len(doc_ids)
        self.avg_doc_length = sum(doc_lengths) / self.doc_count if self.doc_count else 0.0
        self.ordinal_of = {d: i for i, d in enumerate(doc_ids)}
        self.doc_rank = doc_id_ranks(doc_ids)
        self._tf_maps: dict[str, dict[int, int]] = {}

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def tf(self, term: str, ordinal: int) -> int:
        tf_map = self._tf_maps.get(term)
        if tf_map is None:
            tf_map = dict(self.postings.get(term, ()))
            self._tf_maps[term] = tf_map
        return tf_map.get(ordinal, 0)

    def save(self, path) -> None:
        meta = {
            "postings": {t: [[o, f] for o, f in p] for t, p in sorted(self.postings.items())},
            "doc_lengths": self.doc_lengths,
            "doc_ids": self.doc_ids,
        }
        save_arrays(path, "SIDX", {}, meta)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        _, meta = load_arrays(path, "SIDX")
        postings = {t: [(o, f) for o, f in p] for t, p in meta["postings"].items()}
        return cls(postings, meta["doc_lengths"], meta["doc_ids"])


def doc_id_ranks(doc_ids) -> np.ndarray:
    """Each doc id's position in ascending Python string order (ties by ordinal).

    A stable argsort of an object array compares the ids with Python's `<`.
    """
    order = np.argsort(np.array(doc_ids, dtype=object), kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


def top_k_entries(scores: np.ndarray, doc_ids, doc_rank: np.ndarray, k: int):
    """(doc_id, score) of the k best ordinals by (score desc, doc_id asc).

    Exact for finite scores; see the module docstring for why it equals the
    full sort.
    """
    n = len(scores)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        kept = np.flatnonzero(scores >= kth)
    else:
        kept = np.arange(n)
    top = kept[np.lexsort((doc_rank[kept], -scores[kept]))[:k]]
    return tuple(zip([doc_ids[o] for o in top.tolist()], scores[top].tolist()))


def build_index(docs) -> InvertedIndex:
    """Index documents in corpus order; term frequencies equal brute-force counts."""
    docs = list(docs)
    if not docs:
        raise EmptyCorpusError("cannot build an index over an empty corpus")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    doc_ids: list[str] = []
    for ordinal, doc in enumerate(docs):
        terms = text_terms(doc.text())
        doc_lengths.append(len(terms))
        doc_ids.append(doc.doc_id)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t in sorted(counts):
            postings.setdefault(t, []).append((ordinal, counts[t]))
    return InvertedIndex(postings, doc_lengths, doc_ids)


def idf(index: InvertedIndex, term: str) -> float:
    """Lucene-style idf; non-negative, defined for unseen terms (df = 0)."""
    df = index.df(term)
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def _length_norm(index: InvertedIndex, ordinal: int, k1: float, b: float) -> float:
    ratio = index.doc_lengths[ordinal] / index.avg_doc_length if index.avg_doc_length else 0.0
    return k1 * (1.0 - b + b * ratio)


def bm25_score(index, query_terms, ordinal: int, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """BM25 of one document against a bag of query terms; missing terms add 0."""
    score = 0.0
    norm = _length_norm(index, ordinal, k1, b)
    for term in query_terms:
        tf = index.tf(term, ordinal)
        if tf == 0:
            continue
        score += idf(index, term) * tf * (k1 + 1.0) / (tf + norm)
    return score


def _query_terms(query) -> list[str]:
    if isinstance(query, Query):
        return list(query.processed_terms)
    return list(query)


def search_topk(index: InvertedIndex, query, k: int, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> RankedList:
    """Exact top-k over the whole corpus (no pruning), tie-broken by doc_id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    terms = _query_terms(query)
    query_id = query.query_id if isinstance(query, Query) else 0
    scores = [0.0] * index.doc_count
    for term in terms:
        term_idf = idf(index, term)
        for ordinal, tf in index.postings.get(term, ()):
            norm = _length_norm(index, ordinal, k1, b)
            scores[ordinal] += term_idf * tf * (k1 + 1.0) / (tf + norm)
    return RankedList(query_id, top_k_entries(np.array(scores), index.doc_ids, index.doc_rank, k))


def coverage_at_k(run, qrels: Qrels, k: int) -> float:
    """Mean fraction of each judged query's relevant docs found in its top-k.

    `run` maps query_id -> RankedList. Queries with no relevant documents are
    skipped; if none remain the metric is undefined.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fractions = []
    for query_id in qrels.query_ids():
        relevant = qrels.relevant_docs(query_id)
        if not relevant:
            continue
        ranking = run.get(query_id)
        top = set(ranking.doc_ids()[:k]) if ranking is not None else set()
        fractions.append(len(relevant & top) / len(relevant))
    if not fractions:
        raise UndefinedMetricError("no judged queries with relevant documents")
    return sum(fractions) / len(fractions)
