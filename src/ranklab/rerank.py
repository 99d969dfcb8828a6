"""Feature-based trainable reranker with configurable depth, plus score
interpolation and reciprocal-rank fusion for combining dense retrieval with
the sparse pipeline.

Ranker features, in fixed order: BM25 score, dense similarity, content-term
overlap fraction, matched-idf sum, query length, bias. Document vectors come
only from a DenseIndex (the one train-dense writes to dense_index.bin) and
document terms only from the InvertedIndex (index.bin); a content term is
matched when it is not a stopword and its tf in the document is positive.

FeatureExtractor.candidates stacks a stage's candidate lists, all one length,
with their feature rows, pooling the stage's queries in one call for the
dense column; `rerank` rescores such a stack in one pass, for the ranking
that the rerank and depth-sweep stages share and select-train's dev set alike,
into one Ranking: doc ids, doc-id ranks and scores as arrays, a RankedList per
query only when one is read. The cli applies the fusions by --fusion: union
through candidates' `fuse`, interp through rerank's `alpha`, rrf by rrf_top_k
of each reranked list and its dense list. No run is scored here.
Interp fusion is rerank's block score: with `alpha`, a block scores alpha *
dense similarity + (1 - alpha) * ranker score, each min-max normalized over the
block alone; `fuse_interpolate` is that rule for one list, from dicts.

Reciprocal-rank fusion is one array operation, `rrf_top_k`, keyed on doc-id
ranks: np.unique finds the documents of the lists, np.bincount adds each
one's 1 / (rrf_k + rank) from 0.0 in list order, as a dict loop over the
lists would, and np.lexsort orders them by (-score, doc-id rank).
`reciprocal_rank_fusion` and `fuse_base_union` apply it to RankedLists.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .dense import DenseEncoder, DenseIndex, descend, pool
from .errors import DependencyError, NumericError
from .sparse import (
    DEFAULT_B, DEFAULT_K1, InvertedIndex, RankedList, bm25_score, bm25_top_k, idf,
)
from .stopwords import ENGLISH_STOPWORDS
from .subword import DEFAULT_MAX_SEQUENCE_LENGTH, SubwordVocab, tokenize_query

N_FEATURES = 6

DEFAULT_DEPTH = 100
DEFAULT_ALPHA = 0.5
DEFAULT_RRF_K = 60


class Ranker:
    """Linear scorer over the fixed query-document feature vector, on its own copy of the weights."""

    def __init__(self, weights=None):
        self.weights = (
            np.zeros(N_FEATURES) if weights is None else np.array(weights, dtype=np.float64)
        )
        if self.weights.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} weights, got {self.weights.shape}")

    def score(self, features) -> float:
        return float(np.dot(self.weights, features))

    def copy(self) -> "Ranker":
        return Ranker(self.weights)

    def save(self, path) -> None:
        save_arrays(path, "RNKR", {"weights": self.weights}, {"n_features": N_FEATURES})

    @classmethod
    def load(cls, path) -> "Ranker":
        arrays, _ = load_arrays(path, "RNKR", required={"weights": 1})
        return checked(path, cls, arrays["weights"])


@dataclass(frozen=True)
class Candidates:
    """Candidate lists as (queries x n) `doc_ids`, their `ranks` in doc-id
    order and their (queries x n x 6) ranker `features`, in list order."""

    query_ids: list[int]
    doc_ids: np.ndarray
    ranks: np.ndarray
    features: np.ndarray


@dataclass(frozen=True, eq=False)
class Ranking(Sequence):
    """Ranked lists as (queries x n) arrays, each row in list order: the doc
    ids, their doc-id `ranks` and their `scores`. Item i is query i's
    RankedList, built when it is read."""

    query_ids: list[int]
    doc_ids: np.ndarray
    ranks: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.query_ids)

    def __getitem__(self, i: int) -> RankedList:
        return RankedList.from_arrays(self.query_ids[i], self.doc_ids[i], self.scores[i])

    def check(self) -> "Ranking":
        """This ranking, once one pass over its arrays finds RankedList's rule kept in every row: no doc
        twice, ordered by score desc, then doc-id rank asc. Else ValueError names the first bad row's query."""
        s, r, ordered = self.scores, self.ranks, np.sort(self.ranks, axis=-1)
        bad = ((s[:, :-1] < s[:, 1:]) | ((s[:, :-1] == s[:, 1:]) & (r[:, :-1] >= r[:, 1:]))
               | (ordered[:, 1:] == ordered[:, :-1])).any(axis=-1)
        if bad.any():
            raise ValueError(f"ranking of query {self.query_ids[int(bad.argmax())]} repeats a doc or "
                             f"is not ordered by (score desc, doc_id asc)")
        return self


class FeatureExtractor:
    """Computes the reranker's feature vectors for (query terms, documents).

    Document vectors are rows of `dense_index` and document terms are read
    from `index`; queries are tokenized to at most `max_length` pieces.
    """

    def __init__(self, index: InvertedIndex, encoder: DenseEncoder, vocab: SubwordVocab,
                 dense_index: DenseIndex, k1: float = DEFAULT_K1, b: float = DEFAULT_B,
                 stopwords=ENGLISH_STOPWORDS, max_length: int = DEFAULT_MAX_SEQUENCE_LENGTH):
        if dense_index.doc_ids != index.doc_ids:
            raise DependencyError(
                "stale artifact: the dense index and the sparse index hold different "
                "documents; rerun train-dense on the corpus the index was built from")
        if encoder.dim != dense_index.dim or encoder.vocab_size < len(vocab):
            raise DependencyError("stale artifact: the encoder does not fit the dense index's "
                                  "width or the vocab's pieces; rerun train-dense")
        self.index, self.dense_index, self.encoder, self.vocab = index, dense_index, encoder, vocab
        self.k1, self.b, self.stopwords, self.max_length = k1, b, stopwords, max_length

    def query_vectors(self, term_lists) -> np.ndarray:
        """The pooled vector of each query's terms, tokenized as rerank reads
        a query, in one pool call."""
        return pool(self.encoder.table,
                    [tokenize_query(terms, self.vocab, self.max_length) for terms in term_lists])

    def features_matrix(self, query_terms, ordinals, bm25=None) -> np.ndarray:
        """(n, 6) ranker features of the documents at `ordinals`. `bm25` holds
        bm25_scores of the whole corpus at this extractor's k1 and b; without it
        each document is scored with bm25_score."""
        query_terms = list(query_terms)
        ordinals = np.asarray(ordinals, dtype=np.intp)
        column = bm25[ordinals] if bm25 is not None else [
            bm25_score(self.index, query_terms, o, self.k1, self.b) for o in ordinals.tolist()]
        return self._rows(query_terms, ordinals, column, self.query_vectors([query_terms])[0])

    def _rows(self, query_terms, ordinals: np.ndarray, bm25, qv: np.ndarray) -> np.ndarray:
        """features_matrix's rows from the documents' BM25 scores and the query's pooled vector."""
        out = np.zeros((len(ordinals), N_FEATURES))
        out[:, 0] = bm25
        # np.vecdot, unlike a mat-vec product, gives each row similarity()'s exact dot
        with np.errstate(over="ignore", invalid="ignore"):  # rerank rejects an overflow's inf
            out[:, 1] = np.vecdot(self.dense_index.vectors[ordinals], qv)
        unique = sorted(set(query_terms))
        for term in unique:
            if term not in self.stopwords:
                hit = self.index.tf(term, ordinals) > 0
                out[:, 2] += hit
                out[:, 3] += np.where(hit, idf(self.index, term), 0.0)
        if unique:
            out[:, 2] /= len(unique)
        out[:, 4:] = float(len(query_terms)), 1.0
        return out

    def features(self, query_terms, doc_id: str) -> np.ndarray:
        return self.features_matrix(query_terms, [self.index.ordinal_of[doc_id]])[0]

    def candidates(self, queries, k: int, fuse=None) -> Candidates:
        """The BM25 top-k of every query, passed through `fuse` when given, and
        its feature rows; the queries are pooled in one call. `fuse(i, ranks)`
        maps query i's list, as doc-id ranks, to the doc-id ranks of its fused
        list. Every BM25 list fills to n = min(k, corpus size), and a
        union-fused list is the RRF top-k of two lists that long."""
        queries = list(queries)
        vectors = self.query_vectors(q.processed_terms for q in queries)
        ordinals = np.empty((len(queries), min(k, self.index.doc_count)), dtype=np.intp)
        features = np.empty((*ordinals.shape, N_FEATURES))
        for i, query in enumerate(queries):
            terms = query.processed_terms
            top, scores = bm25_top_k(self.index, terms, k, self.k1, self.b)
            if fuse is not None:
                top = self.index.by_doc_id[fuse(i, self.index.doc_rank[top])]
            ordinals[i] = top
            features[i] = self._rows(terms, top, scores[top], vectors[i])
        ranks = self.index.doc_rank[ordinals]
        # the dense index holds the sparse index's doc ids (checked in __init__)
        return Candidates([q.query_id for q in queries], self.dense_index.by_rank[ranks], ranks,
                          features)


def rerank(ranker: Ranker, candidates: Candidates, depth: int, alpha: float | None = None) -> Ranking:
    """Each list with its top-`depth` candidates rescored by `ranker`, interp-fused when
    `alpha` is given (see the module docstring), ordered by (-score, doc id), and the rest
    below them in base order, scoring block minimum - 1, - 2, ... Raises NumericError when
    a block score is non-finite or a tail score would reach 2**52."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects a non-finite score
        scores = np.vecdot(candidates.features[:, :depth], ranker.weights)
    if alpha is not None:
        scores = alpha * _minmax(candidates.features[:, :depth, 1]) + (1.0 - alpha) * _minmax(scores)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite score in reranking")
    order = np.lexsort((candidates.ranks[:, :depth], -scores), axis=-1)
    scores = np.take_along_axis(scores, order, axis=-1)
    tail_start, tail = scores[:, -1:] - 1.0, max(candidates.ranks.shape[1] - depth, 0)
    if tail and np.any(np.abs(tail_start) + tail >= 2.0**52):  # 1.0 steps round away
        raise NumericError("reranked scores too large to rank the tail below them")

    def reordered(a):  # the block in its new order, then the tail as it was
        return np.concatenate((np.take_along_axis(a[:, :depth], order, axis=-1), a[:, depth:]), axis=1)
    scores = np.concatenate((scores, tail_start - np.arange(tail)), axis=1)
    return Ranking(candidates.query_ids, reordered(candidates.doc_ids), reordered(candidates.ranks),
                   scores)


def logistic(z: float) -> float:
    """1 / (1 + e^-z) by math.exp of an exponent <= 0 (np.exp's last bit varies by CPU)."""
    e = math.exp(-abs(z))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def pairwise_train_step(ranker: Ranker, feature_pairs, learning_rate: float) -> tuple[Ranker, float]:
    """One descent step on the mean pairwise logistic loss ln(1 + e^-(s+ - s-)).

    `feature_pairs` holds (positive features, negative features) per training
    triple; features come from FeatureExtractor or any 6-vector source.
    """
    pairs = np.asarray(feature_pairs, dtype=np.float64)
    if not len(pairs):
        raise ValueError("feature_pairs must be non-empty")
    diff, scale = pairs[:, 0] - pairs[:, 1], 1.0 / len(pairs)
    # per margin, the stable softplus(-margin) and logistic(margin) - 1, by math.exp (see logistic)
    losses, shares = np.array([(max(-m, 0.0) + math.log1p(math.exp(-abs(m))), logistic(m) - 1.0)
                               for m in np.vecdot(diff, ranker.weights).tolist()]).T
    # the rows and the losses added in pair order, as a running += would add them
    grad = ((scale * shares)[:, None] * diff).sum(axis=0)
    descend("pairwise training step", learning_rate, (ranker.weights, grad))
    return ranker, float(np.cumsum(losses)[-1]) * scale


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Each row of `scores` min-max normalized to [0, 1], 0.5 throughout where all are equal."""
    lo = scores.min(-1, keepdims=True, initial=np.inf)
    hi = scores.max(-1, keepdims=True, initial=-np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing range gives nan; rerank rejects it
        return np.divide(scores - lo, hi - lo, out=np.full(scores.shape, 0.5), where=hi != lo)


def fuse_interpolate(query_id: int, ranker_scores, dense_scores, alpha: float = DEFAULT_ALPHA) -> RankedList:
    """alpha * normalized dense + (1 - alpha) * normalized ranker, per query.

    Scores are min-max normalized to [0, 1]; a degenerate component (all its
    scores equal) contributes 0.5 uniformly. Docs missing from one component
    take 0 from it. Raises NumericError when a fused score is non-finite.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rn, dn = (dict(zip(c, _minmax(np.fromiter(c.values(), float, len(c))).tolist()))
              for c in (dict(ranker_scores), dict(dense_scores)))
    fused = {d: alpha * dn.get(d, 0.0) + (1.0 - alpha) * rn.get(d, 0.0) for d in set(rn) | set(dn)}
    if not all(map(math.isfinite, fused.values())):  # a component's range overflowed
        raise NumericError("non-finite score in interpolation fusion")
    return RankedList.from_scores(query_id, fused.items())


@functools.cache
def _rrf_shares(n: int, rrf_k: int) -> np.ndarray:
    """1 / (rrf_k + rank) for rank = 1..n, each one Python division (exact
    for any int rrf_k), read-only since every caller shares it."""
    shares = np.array([1 / (rrf_k + rank) for rank in range(1, n + 1)])
    shares.flags.writeable = False
    return shares


def rrf_top_k(lists, k: int, rrf_k: int = DEFAULT_RRF_K) -> tuple[np.ndarray, np.ndarray]:
    """The doc-id ranks and scores of the RRF top k of `lists`, 1-D arrays of
    doc-id ranks in list order (see the module docstring)."""
    keys = np.concatenate(lists)
    shares = np.concatenate([_rrf_shares(len(ranks), rrf_k) for ranks in lists])
    docs, slots = np.unique(keys, return_inverse=True)
    scores = np.bincount(slots, weights=shares)
    top = np.lexsort((docs, -scores))[:k]
    return docs[top], scores[top]


def reciprocal_rank_fusion(lists, k: int, rrf_k: int = DEFAULT_RRF_K) -> RankedList:
    """Combine ranked lists by summed 1 / (rrf_k + rank); uses ranks only.
    rrf_top_k of the lists, their doc ids ranked in Python string order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lists = list(lists)
    if not lists:
        raise ValueError("need at least one ranked list")
    query_ids = {rl.query_id for rl in lists}
    if len(query_ids) != 1:
        raise ValueError(f"cannot fuse lists for different queries: {sorted(query_ids)}")
    # an object array's np.unique sorts and compares the ids as Python strings
    names, keys = np.unique(np.array([d for rl in lists for d, _ in rl.entries], dtype=object),
                            return_inverse=True)
    ranks, scores = rrf_top_k(np.split(keys, np.cumsum([len(rl.entries) for rl in lists])[:-1]),
                              k, rrf_k)
    return RankedList.from_arrays(query_ids.pop(), names[ranks], scores)


def fuse_base_union(bm25_list: RankedList, dense_list: RankedList, k: int,
                    rrf_k: int = DEFAULT_RRF_K) -> RankedList:
    """Reciprocal-rank fusion of the two base-retrieval candidate lists."""
    return reciprocal_rank_fusion([bm25_list, dense_list], k, rrf_k)
