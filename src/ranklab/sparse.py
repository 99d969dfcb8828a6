"""Inverted index and BM25 top-k retrieval (the base retrieval stage).

Scoring uses the Lucene-style non-negative idf ln(1 + (N - df + 0.5) / (df + 0.5))
with defaults k1=0.9, b=0.4. Ranked lists break score ties by ascending doc_id.

The index is CSR: with terms sorted, term i's postings are the slice
offsets[i]:offsets[i + 1] of `ordinals` (ascending) and `tfs`; index.bin holds
these arrays plus `doc_lengths`, and the term list and doc ids as metadata.
`bm25_scores` adds idf * tf * (k1 + 1) / (tf + norm) over each query term's
slice, in query-term order: for every document that is the sequence of IEEE
operations `bm25_score` performs, so both give bit-identical scores.

Dense search cuts its lists with `top_k_entries`, which equals taking the
first k of the whole corpus sorted by (-score, doc_id) without sorting the
corpus: `np.partition` finds the k-th largest score t, every ordinal scoring
at least t is kept (so all documents tied with the k-th one stay candidates,
and nothing outside the kept set can precede one inside it), and `np.lexsort`
orders the kept ordinals by the same key, -score first, then the doc id's rank
in Python string order. That rank is computed once per index by comparing the
ids as Python strings, so it is the order `RankedList` checks (numpy's unicode
dtype would drop trailing NULs). Scores must be finite (NaN compares as larger
than every number in `np.partition`), so `top_k_order`, the top-k step under
both BM25 and dense search, rejects a non-finite score with NumericError.

BM25 top-k (`bm25_top_k`, under both `search_topk` and the reranker's
candidates) gives the same list without touching the zero-score tie set.
With k1 >= 0 and b in [0, 1] every posting of a query term scores above zero
(idf > 0, tf > 0, norm >= 0) and every other document scores exactly 0. So
the documents scoring above zero are ranked as above, and when fewer than k
of them exist the list is filled with zero-score documents in ascending doc-id
order, read from `InvertedIndex.by_doc_id`, the ordinals in doc-id order
computed once per index: among its first k ordinals at most as many score
above zero as the list already holds, so the fill is there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .corpus import Qrels, Query, text_terms
from .errors import EmptyCorpusError, NumericError, UndefinedMetricError

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4
INDEX_ARRAYS = ("offsets", "ordinals", "tfs", "doc_lengths")


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
    """CSR postings, document lengths, and corpus statistics for BM25."""

    def __init__(self, terms, offsets, ordinals, tfs, lengths, doc_ids):
        if (len(offsets), len(tfs), len(lengths)) != (len(terms) + 1, len(ordinals), len(doc_ids)):
            raise ValueError("posting arrays do not match the term and document counts")
        self.terms: list[str] = terms
        self.offsets, self.ordinals, self.tfs, self.lengths = offsets, ordinals, tfs, lengths
        self.doc_ids: list[str] = doc_ids
        self.doc_count = len(doc_ids)
        self.avg_doc_length = int(lengths.sum()) / self.doc_count if self.doc_count else 0.0
        self.term_index = {t: i for i, t in enumerate(terms)}
        self.ordinal_of = {d: i for i, d in enumerate(doc_ids)}
        self.doc_rank = doc_id_ranks(doc_ids)
        self.by_doc_id = np.argsort(self.doc_rank)  # the ordinals in doc-id order
        self._norms: dict[tuple[float, float], np.ndarray] = {}

    @property
    def postings(self) -> dict[str, list[tuple[int, int]]]:
        """Read-only view: term -> [(ordinal, tf), ...] in ordinal order."""
        return {t: list(zip(*(a.tolist() for a in self.posting(t)))) for t in self.terms}

    @property
    def doc_lengths(self) -> list[int]:
        return self.lengths.tolist()

    def posting(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Views of the term's ordinals (ascending) and their tfs."""
        i = self.term_index.get(term)
        s, e = (0, 0) if i is None else (self.offsets[i], self.offsets[i + 1])
        return self.ordinals[s:e], self.tfs[s:e]

    def df(self, term: str) -> int:
        return len(self.posting(term)[0])

    def tf(self, term: str, ordinals):
        """The term's tf at one ordinal or an array of them; 0 where it is absent."""
        docs, tfs = self.posting(term)
        if not len(docs):
            return np.zeros(np.shape(ordinals), dtype=tfs.dtype)
        pos = np.minimum(np.searchsorted(docs, ordinals), len(docs) - 1)
        return np.where(docs[pos] == ordinals, tfs[pos], 0)

    def length_norms(self, k1: float, b: float) -> np.ndarray:
        """k1 * (1 - b + b * |d| / avgdl) per document, computed once per (k1, b)."""
        if (k1, b) not in self._norms:
            # the average is 0 only when every length is, and then every ratio is 0
            ratio = self.lengths / (self.avg_doc_length or 1.0)
            self._norms[(k1, b)] = k1 * (1.0 - b + b * ratio)
        return self._norms[(k1, b)]

    def save(self, path) -> None:
        arrays = (self.offsets, self.ordinals, self.tfs, self.lengths)
        save_arrays(path, "SIDX", dict(zip(INDEX_ARRAYS, arrays)),
                    {"terms": self.terms, "doc_ids": self.doc_ids})

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        arrays, meta = load_arrays(
            path, "SIDX", dict.fromkeys(INDEX_ARRAYS, 1), ("terms", "doc_ids"))
        return checked(path, cls, meta["terms"], *(arrays[n] for n in INDEX_ARRAYS), meta["doc_ids"])


def doc_id_ranks(doc_ids) -> np.ndarray:
    """Each doc id's position in ascending Python string order (ties by ordinal).

    A stable argsort of an object array compares the ids with Python's `<`.
    """
    order = np.argsort(np.array(doc_ids, dtype=object), kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


def top_k_order(scores: np.ndarray, doc_rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best scores by (score desc, doc_rank asc).

    Raises NumericError on a non-finite score; see the module docstring for
    why it equals the full sort.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not np.isfinite(scores).all():
        raise NumericError("non-finite score in top-k search")
    n = len(scores)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        kept = np.flatnonzero(scores >= kth)
    else:
        kept = np.arange(n)
    return kept[np.lexsort((doc_rank[kept], -scores[kept]))[:k]]


def ranked_entries(doc_ids, ordinals: np.ndarray, scores: np.ndarray) -> tuple:
    """(doc_id, score) of each of `ordinals`, in order; `scores` covers the corpus."""
    return tuple(zip([doc_ids[o] for o in ordinals.tolist()], scores[ordinals].tolist()))


def top_k_entries(scores: np.ndarray, doc_ids, doc_rank: np.ndarray, k: int):
    """(doc_id, score) of the k best ordinals by (score desc, doc_id asc)."""
    return ranked_entries(doc_ids, top_k_order(scores, doc_rank, k), scores)


def build_index(docs) -> InvertedIndex:
    """Index documents in corpus order; term frequencies equal brute-force counts."""
    docs = list(docs)
    if not docs:
        raise EmptyCorpusError("cannot build an index over an empty corpus")
    postings: dict[str, list[int]] = {}  # term -> ordinal, tf, ordinal, tf, ...
    doc_lengths: list[int] = []
    for ordinal, doc in enumerate(docs):
        terms = text_terms(doc.text())
        doc_lengths.append(len(terms))
        for t, count in Counter(terms).items():
            postings.setdefault(t, []).extend((ordinal, count))
    terms = sorted(postings)
    offsets = np.cumsum([0] + [len(postings[t]) // 2 for t in terms], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(postings[t] for t in terms), dtype=np.int32,
                       count=2 * int(offsets[-1])).reshape(-1, 2)
    return InvertedIndex(terms, offsets, flat[:, 0].copy(), flat[:, 1].copy(),
                         np.array(doc_lengths, dtype=np.int32), [d.doc_id for d in docs])


def idf(index: InvertedIndex, term: str) -> float:
    """Lucene-style idf; non-negative, defined for unseen terms (df = 0)."""
    df = index.df(term)
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def bm25_score(index, query_terms, ordinal: int, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """BM25 of one document against a bag of query terms; missing terms add 0."""
    norm = index.length_norms(k1, b)[ordinal]
    tfs = ((term, index.tf(term, ordinal)) for term in query_terms)
    return float(sum(idf(index, t) * tf * (k1 + 1.0) / (tf + norm) for t, tf in tfs if tf))


def bm25_scores(index: InvertedIndex, query_terms, k1: float = DEFAULT_K1,
                b: float = DEFAULT_B) -> np.ndarray:
    """BM25 of every document against a bag of query terms, as bm25_score gives it."""
    scores = np.zeros(index.doc_count)
    with np.errstate(over="ignore", invalid="ignore"):  # top_k_order rejects what overflows
        norms = index.length_norms(k1, b)
        for term in query_terms:
            docs, tfs = index.posting(term)
            scores[docs] += idf(index, term) * tfs * (k1 + 1.0) / (tfs + norms[docs])
    return scores


def bm25_top_k(index: InvertedIndex, query_terms, k: int, k1: float = DEFAULT_K1,
               b: float = DEFAULT_B) -> tuple[np.ndarray, np.ndarray]:
    """The ordinals of the BM25 top-k by (score desc, doc_id asc), and the
    whole corpus's bm25_scores. Only documents scoring above zero are ranked;
    see the module docstring."""
    if k1 < 0 or not 0 <= b <= 1:
        raise ValueError(f"BM25 top-k needs k1 >= 0 and b in [0, 1], got k1={k1}, b={b}")
    scores = bm25_scores(index, query_terms, k1, b)
    scored = np.flatnonzero(scores)
    top = scored[top_k_order(scores[scored], index.doc_rank[scored], k)]
    if len(top) < k:
        head = index.by_doc_id[:k]
        top = np.concatenate((top, head[scores[head] == 0.0][: k - len(top)]))
    return top, scores


def search_topk(index: InvertedIndex, query, k: int, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> RankedList:
    """Exact top-k over the whole corpus (no pruning), tie-broken by doc_id."""
    query_id = query.query_id if isinstance(query, Query) else 0
    terms = query.processed_terms if isinstance(query, Query) else query
    top, scores = bm25_top_k(index, terms, k, k1, b)
    return RankedList(query_id, ranked_entries(index.doc_ids, top, scores))


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
