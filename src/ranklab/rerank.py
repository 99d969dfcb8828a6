"""Feature-based trainable reranker with configurable depth, plus score
interpolation and reciprocal-rank fusion for combining dense retrieval with
the sparse pipeline.

Ranker features, in fixed order: BM25 score, dense similarity, content-term
overlap fraction, matched-idf sum, query length, bias. Document vectors come
only from a DenseIndex (the one train-dense writes to dense_index.bin) and
document terms only from the InvertedIndex (index.bin); a content term is
matched when it is not a stopword and its tf in the document is positive.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .corpus import Qrels
from .dense import DenseEncoder, DenseIndex, pool
from .errors import DependencyError, NumericError
from .evaluation import QuerySplit, Run, old_new_report
from .sparse import (
    DEFAULT_B, DEFAULT_K1, InvertedIndex, RankedList, bm25_score, bm25_top_k, idf, ranked_entries,
)
from .stopwords import ENGLISH_STOPWORDS
from .subword import DEFAULT_MAX_SEQUENCE_LENGTH, SubwordVocab, tokenize

N_FEATURES = 6
FEATURE_NAMES = ("bm25", "dense_sim", "overlap", "matched_idf", "query_len", "bias")

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
        ids = tokenize(" ".join(query_terms), self.vocab, self.max_length)
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

    def candidates(self, query, k: int, fuse=None) -> tuple[RankedList, np.ndarray]:
        """The BM25 top-k of `query` (passed through `fuse` when given) and the
        (n, 6) ranker feature rows of its documents, in the list's order. The
        BM25 list stays ordinals until its entries are written; only a fused
        list, which holds doc ids, is looked up again."""
        terms = query.processed_terms
        ordinals, scores = bm25_top_k(self.index, terms, k, self.k1, self.b)
        ranked = RankedList(query.query_id, ranked_entries(self.index.doc_ids, ordinals, scores))
        if fuse is not None:
            ranked = fuse(ranked)
            ordinals = [self.index.ordinal_of[d] for d in ranked.doc_ids()]
        return ranked, self.features_matrix(terms, ordinals, scores)


def rerank(ranker: Ranker, candidates: RankedList, depth: int, features) -> RankedList:
    """Rescore the top-`depth` candidates; the rest keep base order below them.

    `features` holds the candidates' (n, 6) feature rows in list order, as
    FeatureExtractor.candidates returns them; only the first `depth` are read.
    Tied ranker scores stay equal and keep doc-id order; the tail scores block
    minimum - 1, - 2, ... Raises NumericError when a rescored score is
    non-finite or a tail score would reach 2**52 in magnitude.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not candidates.entries:
        return candidates
    block = [doc_id for doc_id, _ in candidates.entries[:depth]]
    scores = np.vecdot(features[: len(block)], ranker.weights)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite score in reranking")
    rescored = sorted(zip(block, scores.tolist()), key=lambda e: (-e[1], e[0]))
    tail_start, tail = rescored[-1][1] - 1.0, candidates.entries[depth:]
    if tail and abs(tail_start) + len(tail) >= 2.0**52:  # where steps of 1.0 can round away
        raise NumericError("reranked scores too large to rank the tail below them")
    tail = [(doc_id, tail_start - i) for i, (doc_id, _) in enumerate(tail)]
    return RankedList(candidates.query_id, tuple(rescored + tail))


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
        # stable softplus(-margin)
        if margin >= 0:
            total += math.log1p(math.exp(-margin))
        else:
            total += -margin + math.log1p(math.exp(margin))
        sig = 1.0 / (1.0 + math.exp(-margin)) if margin >= 0 else (
            math.exp(margin) / (1.0 + math.exp(margin))
        )
        grad += scale * (sig - 1.0) * diff
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient in pairwise training step")
    ranker.weights -= learning_rate * grad
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


def depth_sweep(ranker: Ranker, base_runs, depths, qrels: Qrels, features_by_query,
                k: int = 10) -> dict[int, dict[str, float]]:
    """Evaluate NDCG@k and P@5 of reranking at each depth; one row per depth.

    `features_by_query` maps a query id to its base list's (n, 6) feature rows
    in list order, as rerank reads them. Each row is the overall line of
    old_new_report over the queries in `qrels`; a judged query with no base
    list scores 0."""
    if not depths:
        raise ValueError("depths must be non-empty")
    split = QuerySplit.from_ids((), qrels.query_ids())
    table: dict[int, dict[str, float]] = {}
    for depth in depths:
        run = Run({qid: rerank(ranker, base_runs[qid], depth, features_by_query[qid])
                   for qid in qrels.query_ids() if qid in base_runs})
        overall = old_new_report(run, qrels, split, k).overall
        table[depth] = {f"ndcg@{k}": overall.ndcg, "p@5": overall.precision}
    return table
