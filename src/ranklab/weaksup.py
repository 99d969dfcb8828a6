"""Weak-supervision synthesis and selection.

Synthesis runs a two-stage pipeline: a salience-based generator makes a query
from one seed document, BM25 retrieves related documents for it (the ordinals
of sparse.bm25_top_k; search_topk stays analyze's and evaluate's base run's), a
contrastive generator turns a (higher-ranked, lower-ranked) document pair into a
sharper query, and the triple (query, positive, negative) becomes weak training
data (with include_stage1, so does the stage-1 query's).

Selection trains a logistic per-instance policy with REINFORCE: the reward is
the change in dev-set NDCG at evaluation.DEV_K after a trial reranker update on
the selected instances, against a running-mean baseline. A step reads its batch
as pair_features rows, so a caller featurizes each weak triple once however
often it is drawn.
"""

from __future__ import annotations

import functools
import json
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .checkpoint import read_lines, write_atomic
from .corpus import CorpusTerms, Document, Qrels, preprocess_query, text_terms
from .dense import descend
from .errors import (
    ConfigError,
    DegeneratePairError,
    GenerationError,
    ParseError,
    ToolkitWarning,
)
from .evaluation import DEV_K, mean_ndcg
from .rerank import N_FEATURES, FeatureExtractor, Ranker, logistic, pairwise_train_step, rerank
from .sparse import DEFAULT_B, DEFAULT_K1, InvertedIndex, bm25_top_k, idf
from .stopwords import ENGLISH_STOPWORDS

DEFAULT_MAX_QUERY_TERMS = 6
DEFAULT_RETRIEVAL_DEPTH = 20
N_INSTANCE_FEATURES = 6

WEAK_SOURCES = ("qg-pipeline", "external")


@dataclass(frozen=True)
class WeakTriple:
    query: str
    pos_doc_id: str
    neg_doc_id: str
    source: str = "qg-pipeline"

    def __post_init__(self):
        if not self.query:
            raise ValueError("weak triple query must be non-empty")
        if self.pos_doc_id == self.neg_doc_id:
            raise ValueError("positive and negative documents must differ")
        if self.source not in WEAK_SOURCES:
            raise ValueError(f"source must be one of {WEAK_SOURCES}, got {self.source!r}")


class SalienceQueryGenerator:
    """Selects a document's most corpus-distinctive terms as the query.

    generate(d) scores terms by tf-idf against the index; contrast_generate
    scores them by the tf-idf difference between the two documents and only
    emits terms whose difference is positive. Selected terms are emitted in
    document order: the terms of `docs` read from `view`, their corpus_terms view.
    """

    def __init__(self, index: InvertedIndex, max_query_terms: int = DEFAULT_MAX_QUERY_TERMS,
                 stopwords=ENGLISH_STOPWORDS, view: CorpusTerms | None = None, docs=()):
        self.index = index
        self.max_query_terms = max_query_terms
        self.stopwords = stopwords
        self.view, self.spans = view, {}
        if view is not None:  # a document's terms are view.ids[span]
            ends = np.cumsum(view.lengths).tolist()
            self.spans = {d.doc_id: slice(e - n, e) for d, n, e in zip(docs, view.lengths.tolist(), ends)}

    def _content_counts(self, doc: Document) -> tuple[Counter, dict[str, int]]:
        """The document's content-term counts, and each term's rank in order of first occurrence."""
        span = self.spans.get(doc.doc_id)
        words = text_terms(doc.text()) if span is None else map(
            self.view.terms.__getitem__, self.view.ids[span].tolist())
        counts = Counter(t for t in words if t not in self.stopwords)  # keys in first-occurrence order
        return counts, {t: i for i, t in enumerate(counts)}

    def _select(self, scores: dict[str, float], first_pos: dict[str, int]) -> str:
        chosen = sorted(scores, key=lambda t: (-scores[t], first_pos[t]))[: self.max_query_terms]
        return " ".join(sorted(chosen, key=first_pos.__getitem__))

    def generate(self, doc: Document) -> str:
        counts, first_pos = self._content_counts(doc)
        if not counts:
            raise GenerationError(f"document {doc.doc_id!r} has no content terms")
        scores = {t: n * idf(self.index, t) for t, n in counts.items()}
        return self._select(scores, first_pos)

    def contrast_generate(self, pos: Document, neg: Document) -> str:
        pos_counts, first_pos = self._content_counts(pos)
        neg_counts, _ = self._content_counts(neg)
        salience = {t: n * idf(self.index, t) - neg_counts[t] * idf(self.index, t)
                    for t, n in pos_counts.items()}
        eligible = {t: s for t, s in salience.items() if s > 0}
        if not eligible:
            raise DegeneratePairError(
                f"no positive-salience term between {pos.doc_id!r} and {neg.doc_id!r}"
            )
        return self._select(eligible, first_pos)


@dataclass(frozen=True)
class SynthesisRecord:
    """Provenance for one synthesized triple (used by replay checks)."""

    seed_doc_id: str
    stage1_query: str
    retrieved: tuple[str, ...]
    triple: WeakTriple


def synthesize_with_provenance(docs, index: InvertedIndex, count: int, seed: int = 0,
                               retrieval_depth: int = DEFAULT_RETRIEVAL_DEPTH,
                               max_query_terms: int = DEFAULT_MAX_QUERY_TERMS,
                               stopwords=ENGLISH_STOPWORDS, include_stage1: bool = False,
                               k1: float = DEFAULT_K1, b: float = DEFAULT_B,
                               view: CorpusTerms | None = None) -> list[SynthesisRecord]:
    """Run the two-stage pipeline until `count` triples exist or retries run out,
    reading the documents' terms from `view`, corpus_terms(docs), when given."""
    if count < 1:
        raise ConfigError(f"triple count must be >= 1, got {count}")
    docs = list(docs)
    docs_by_id = {d.doc_id: d for d in docs}
    generator = SalienceQueryGenerator(index, max_query_terms, stopwords, view, docs)
    rng = np.random.default_rng(seed)
    records: list[SynthesisRecord] = []
    made = 0
    attempts = 0
    max_attempts = max(20 * count, 100)
    while made < count and attempts < max_attempts:
        attempts += 1
        seed_doc = docs[int(rng.integers(len(docs)))]
        try:
            stage1 = generator.generate(seed_doc)
        except GenerationError:
            continue
        top, _ = bm25_top_k(index, stage1.split(), retrieval_depth, k1, b)
        retrieved = tuple(map(index.doc_ids.__getitem__, top.tolist()))
        half = len(retrieved) // 2
        pos_pool, neg_pool = retrieved[:half], retrieved[half:]
        if not pos_pool or not neg_pool:
            continue
        pos_id = pos_pool[int(rng.integers(len(pos_pool)))]
        neg_id = neg_pool[int(rng.integers(len(neg_pool)))]
        try:
            query = generator.contrast_generate(docs_by_id[pos_id], docs_by_id[neg_id])
        except DegeneratePairError:
            continue
        records += [SynthesisRecord(seed_doc.doc_id, stage1, retrieved, WeakTriple(q, pos_id, neg_id))
                    for q in ((query, stage1) if include_stage1 else (query,))]
        made += 1
    if made < count:
        warnings.warn(
            f"assembled only {made} of {count} requested weak triples",
            ToolkitWarning, stacklevel=2,
        )
    return records


def synthesize_triples(*args, **kwargs) -> list[WeakTriple]:
    """The triples of synthesize_with_provenance(*args, **kwargs), without their provenance."""
    return [r.triple for r in synthesize_with_provenance(*args, **kwargs)]


def write_triples(triples, path) -> None:
    write_atomic(path, "".join(
        json.dumps({"query": t.query, "pos_doc_id": t.pos_doc_id, "neg_doc_id": t.neg_doc_id,
                    "source": t.source}, sort_keys=True, separators=(",", ":")) + "\n"
        for t in triples))


def read_triples(path) -> list[WeakTriple]:
    triples = []
    for line_no, line in read_lines(path):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            fields = {"source": "external", **record}
            for name in ("query", "pos_doc_id", "neg_doc_id", "source"):
                if not isinstance(fields[name], str):
                    raise ValueError(f"{name} must be a string")
            triples.append(WeakTriple(
                fields["query"], fields["pos_doc_id"], fields["neg_doc_id"], fields["source"]))
        except (KeyError, ValueError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
    return triples


def pair_features(extractor: FeatureExtractor, triples) -> np.ndarray:
    """(n, 2, 6) ranker features of each triple's positive and negative
    document, for its query's processed terms (as rerank features a query)."""
    ordinal_of = extractor.index.ordinal_of
    return np.array([extractor.features_matrix(
        preprocess_query(t.query, extractor.stopwords),
        [ordinal_of[t.pos_doc_id], ordinal_of[t.neg_doc_id]]) for t in triples]
    ).reshape(-1, 2, N_FEATURES)


def instance_features(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The policy's instance rows, (n, 6) or (6,), of triples whose documents
    have the ranker feature rows `pos` and `neg`: BM25(q, d+), BM25(q, d-),
    BM25 difference, dense-similarity difference, query length, bias."""
    return np.stack([pos[..., 0], neg[..., 0], pos[..., 0] - neg[..., 0],
                     pos[..., 1] - neg[..., 1], pos[..., 4], np.ones_like(pos[..., 5])], axis=-1)


class SelectorPolicy:
    """Logistic per-instance selector on a copy of the weights with a running-mean reward baseline,
    its whole state checked when it is built."""

    def __init__(self, weights=None, seed: int = 0, baseline: float = 0.0, reward_count: int = 0):
        self.weights = (
            np.zeros(N_INSTANCE_FEATURES) if weights is None else np.array(weights, dtype=np.float64)
        )
        if self.weights.shape != (N_INSTANCE_FEATURES,):
            raise ValueError(f"expected {N_INSTANCE_FEATURES} weights, got {self.weights.shape}")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if type(seed) is not int or seed < 0:
            raise ValueError("seed must be an int >= 0")
        if type(baseline) not in (int, float) or not np.isfinite(baseline):
            raise ValueError("baseline must be a finite number")
        if type(reward_count) is not int or reward_count < 0:
            raise ValueError("reward_count must be an int >= 0")
        self.seed, self.baseline, self.reward_count = seed, baseline, reward_count
        self.rng = np.random.default_rng(seed)

    def selection_probability(self, features) -> float:
        p = logistic(float(np.dot(self.weights, features)))
        # keep the probability strictly inside (0, 1) even when the sigmoid
        # saturates in floating point
        return min(max(p, 1e-12), 1.0 - 1e-12)

    def record_reward(self, reward: float) -> None:
        self.reward_count += 1
        self.baseline += (reward - self.baseline) / self.reward_count

    def save(self, path) -> None:
        payload = {
            "weights": [float(w) for w in self.weights],
            "baseline": self.baseline,
            "reward_count": self.reward_count,
            "seed": self.seed,
        }
        write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "SelectorPolicy":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            return cls(np.asarray(payload["weights"], dtype=np.float64), payload["seed"],
                       payload["baseline"], payload["reward_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: corrupt policy file ({exc!r})") from exc


class SelectionContext:
    """Frozen dev-set evaluation shared across selection steps.

    Holds the BM25 top-`depth` candidates of every dev query, from
    `extractor`, as one stacked Candidates: `candidates` when the caller
    holds those lists, else built here. dev_ndcg reranks them all at full
    depth with rerank, the one rescoring the ranking stages use; it keeps the
    values of the last two rankers, a step's and its trial's.
    """

    k = DEV_K  # dev rankings are scored by NDCG@k

    def __init__(self, extractor: FeatureExtractor, dev_queries, qrels: Qrels, depth: int = 50, candidates=None):
        self.qrels, self.depth = qrels, depth
        self.candidates = candidates or extractor.candidates(dev_queries, depth)
        self._dev_ndcg = functools.lru_cache(maxsize=2)(lambda weights: mean_ndcg(
            rerank(Ranker(np.frombuffer(weights)), self.candidates, self.depth), self.qrels, self.k))

    def dev_ndcg(self, ranker: Ranker) -> float:
        return self._dev_ndcg(ranker.weights.tobytes())


def reinfoselect_step(policy: SelectorPolicy, pairs, ranker: Ranker,
                      context: SelectionContext, ranker_lr: float = 0.1,
                      policy_lr: float = 1.0,
                      keep_all_updates: bool = False) -> tuple[SelectorPolicy, Ranker, float]:
    """One selection step over a batch's (b, 2, 6) pair_features rows: sample
    a mask, trial-train the ranker on the selected pairs, reward = dev NDCG
    change, REINFORCE update against the baseline.

    The trial ranker is kept only when the reward is non-negative unless
    keep_all_updates is set.
    """
    pairs = np.asarray(pairs)
    if not len(pairs):
        raise ValueError("batch must be non-empty")
    features = instance_features(pairs[:, 0], pairs[:, 1])
    probs = np.array([policy.selection_probability(x) for x in features])
    actions = policy.rng.random(len(pairs)) < probs
    selected = pairs[actions]

    before = context.dev_ndcg(ranker)
    trial, reward = ranker, 0.0
    if len(selected):
        trial = ranker.copy()
        pairwise_train_step(trial, selected, ranker_lr)
        reward = context.dev_ndcg(trial) - before

    advantage = reward - policy.baseline
    # summed over rows in batch order, as a running += would add them
    grad = ((actions - probs)[:, None] * features).sum(axis=0)
    descend("selection policy", -(policy_lr * advantage), (policy.weights, grad))  # ascent
    policy.record_reward(reward)

    updated = trial if (keep_all_updates or reward >= 0.0) else ranker
    return policy, updated, reward
