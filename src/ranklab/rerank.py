"""Feature-based trainable reranker with configurable depth, plus score
interpolation and reciprocal-rank fusion for combining dense retrieval with
the sparse pipeline.

Ranker features, in fixed order: BM25 score, dense similarity, content-term
overlap fraction, matched-idf sum, query length, bias. Document vectors come
only from a DenseIndex (the one train-dense writes to dense_index.bin) and
document terms only from the InvertedIndex (index.bin); a content term is
matched when it is not a stopword and its tf in the document is positive.

FeatureExtractor.candidates stacks a stage's candidate lists, all one length,
with their feature rows; `rerank` rescores such a stack in one pass, for the
rerank and depth-sweep stages and select-train's dev set alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .corpus import Qrels
from .dense import DenseEncoder, DenseIndex, descend, pool
from .errors import DependencyError, NumericError
from .evaluation import QuerySplit, Run, old_new_report
from .sparse import (
    DEFAULT_B, DEFAULT_K1, InvertedIndex, RankedList, bm25_score, bm25_top_k, idf, ranked_entries,
)
from .stopwords import ENGLISH_STOPWORDS
from .subword import DEFAULT_MAX_SEQUENCE_LENGTH, SubwordVocab, tokenize_query

N_FEATURES = 6

DEFAULT_DEPTH = 100
DEFAULT_ALPHA = 0.5
DEFAULT_RRF_K = 60


class Ranker:
    """Linear scorer over the fixed query-document feature vector."""

    def __init__(self, weights=None):
        self.weights = (
            np.zeros(N_FEATURES) if weights is None else np.asarray(weights, dtype=np.float64)
        )
        if self.weights.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} weights, got {self.weights.shape}")

    def score(self, features) -> float:
        return float(np.dot(self.weights, features))

    def copy(self) -> "Ranker":
        return Ranker(self.weights.copy())

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

    def features_matrix(self, query_terms, ordinals, bm25=None) -> np.ndarray:
        """(n, 6) ranker features of the documents at `ordinals`. `bm25` holds
        bm25_scores of the whole corpus at this extractor's k1 and b; without it
        each document is scored with bm25_score."""
        query_terms = list(query_terms)
        ordinals = np.asarray(ordinals, dtype=np.intp)
        out = np.zeros((len(ordinals), N_FEATURES))
        out[:, 0] = bm25[ordinals] if bm25 is not None else [
            bm25_score(self.index, query_terms, o, self.k1, self.b) for o in ordinals.tolist()]
        ids = tokenize_query(query_terms, self.vocab, self.max_length)
        qv = pool(self.encoder.table, [ids])[0]
        # np.vecdot, unlike a mat-vec product, gives each row similarity()'s exact dot
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
        """The BM25 top-k of every query, passed through `fuse` (RankedList to
        RankedList) when given, and its feature rows. Every BM25 list fills to
        n = min(k, corpus size), and a union-fused list is the RRF top-k of two
        lists that long; only a fused list is looked up by doc id again."""
        queries = list(queries)
        ordinals = np.empty((len(queries), min(k, self.index.doc_count)), dtype=np.intp)
        features = np.empty((*ordinals.shape, N_FEATURES))
        for i, query in enumerate(queries):
            terms = query.processed_terms
            top, scores = bm25_top_k(self.index, terms, k, self.k1, self.b)
            if fuse is not None:
                base = RankedList(query.query_id, ranked_entries(self.index.doc_ids, top, scores))
                top = [self.index.ordinal_of[d] for d in fuse(base).doc_ids()]
            ordinals[i] = top
            features[i] = self.features_matrix(terms, top, scores)
        doc_ids = np.array(self.index.doc_ids, dtype=object)[ordinals]
        return Candidates([q.query_id for q in queries], doc_ids, self.index.doc_rank[ordinals], features)


def rerank(ranker: Ranker, candidates: Candidates, depth: int) -> list[RankedList]:
    """Each list with its top-`depth` candidates rescored by `ranker`, ordered
    by (-score, doc id), so tied scores keep doc-id order, and the rest below
    them in base order, scoring block minimum - 1, - 2, ... Raises NumericError
    when a rescored score is non-finite or a tail score would reach 2**52."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    scores = np.vecdot(candidates.features[:, :depth], ranker.weights)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite score in reranking")
    order = np.lexsort((candidates.ranks[:, :depth], -scores), axis=-1)
    scores = np.take_along_axis(scores, order, axis=-1)
    block = np.take_along_axis(candidates.doc_ids[:, :depth], order, axis=-1)
    tail_start, tail = scores[:, -1:] - 1.0, candidates.doc_ids[:, depth:]
    if tail.size and np.any(np.abs(tail_start) + tail.shape[1] >= 2.0**52):  # 1.0 steps round away
        raise NumericError("reranked scores too large to rank the tail below them")
    doc_ids = np.concatenate((block, tail), axis=1)
    scores = np.concatenate((scores, tail_start - np.arange(tail.shape[1])), axis=1)
    return [RankedList(qid, tuple(zip(ids.tolist(), s.tolist())))
            for qid, ids, s in zip(candidates.query_ids, doc_ids, scores)]


def logistic(z: float) -> float:
    """1 / (1 + e^-z) by math.exp of an exponent <= 0 (np.exp's last bit varies by CPU)."""
    e = math.exp(-abs(z))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def pairwise_train_step(ranker: Ranker, feature_pairs, learning_rate: float) -> tuple[Ranker, float]:
    """One descent step on the mean pairwise logistic loss ln(1 + e^-(s+ - s-)).

    `feature_pairs` holds (positive features, negative features) per training
    triple; features come from FeatureExtractor or any 6-vector source.
    """
    pairs = [(np.asarray(p, dtype=np.float64), np.asarray(n, dtype=np.float64))
             for p, n in feature_pairs]
    if not pairs:
        raise ValueError("feature_pairs must be non-empty")
    grad = np.zeros(N_FEATURES)
    total = 0.0
    scale = 1.0 / len(pairs)
    for pos, neg in pairs:
        diff = pos - neg
        margin = float(np.dot(ranker.weights, diff))
        total += max(-margin, 0.0) + math.log1p(math.exp(-abs(margin)))  # stable softplus(-margin)
        grad += scale * (logistic(margin) - 1.0) * diff
    descend("pairwise training step", learning_rate, (ranker.weights, grad))
    return ranker, total * scale


def _minmax_normalize(scores: dict[str, float]) -> dict[str, float]:
    if not scores:
        return {}
    lo, hi = min(scores.values()), max(scores.values())
    if hi == lo:
        return {d: 0.5 for d in scores}
    return {d: (s - lo) / (hi - lo) for d, s in scores.items()}


def fuse_interpolate(query_id: int, ranker_scores, dense_scores, alpha: float = DEFAULT_ALPHA) -> RankedList:
    """alpha * normalized dense + (1 - alpha) * normalized ranker, per query.

    Scores are min-max normalized to [0, 1]; a degenerate component (all its
    scores equal) contributes 0.5 uniformly. Docs missing from one component
    take 0 from it.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rn = _minmax_normalize(dict(ranker_scores))
    dn = _minmax_normalize(dict(dense_scores))
    fused = {
        d: alpha * dn.get(d, 0.0) + (1.0 - alpha) * rn.get(d, 0.0)
        for d in sorted(set(rn) | set(dn))
    }
    return RankedList.from_scores(query_id, fused.items())


def reciprocal_rank_fusion(lists, k: int, rrf_k: int = DEFAULT_RRF_K) -> RankedList:
    """Combine ranked lists by summed 1 / (rrf_k + rank); uses ranks only."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    lists = list(lists)
    if not lists:
        raise ValueError("need at least one ranked list")
    query_ids = {rl.query_id for rl in lists}
    if len(query_ids) != 1:
        raise ValueError(f"cannot fuse lists for different queries: {sorted(query_ids)}")
    scores: dict[str, float] = {}
    for rl in lists:
        for rank, (doc_id, _) in enumerate(rl.entries, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (rrf_k + rank)
    fused = RankedList.from_scores(query_ids.pop(), scores.items())
    return fused.top(k)


def fuse_base_union(bm25_list: RankedList, dense_list: RankedList, k: int,
                    rrf_k: int = DEFAULT_RRF_K) -> RankedList:
    """Reciprocal-rank fusion of the two base-retrieval candidate lists."""
    return reciprocal_rank_fusion([bm25_list, dense_list], k, rrf_k)


def depth_sweep(ranker: Ranker, candidates: Candidates, depths, qrels: Qrels,
                k: int = 10) -> dict[int, dict[str, float]]:
    """Evaluate NDCG@k and P@5 of reranking `candidates` at each depth; one
    row per depth. Each row is the overall line of old_new_report over the
    queries in `qrels`; a judged query without candidates scores 0."""
    if not depths:
        raise ValueError("depths must be non-empty")
    split = QuerySplit.from_ids((), qrels.query_ids())
    table: dict[int, dict[str, float]] = {}
    for depth in depths:
        run = Run(dict(zip(candidates.query_ids, rerank(ranker, candidates, depth))))
        overall = old_new_report(run, qrels, split, k).overall
        table[depth] = {f"ndcg@{k}": overall.ndcg, "p@5": overall.precision}
    return table
