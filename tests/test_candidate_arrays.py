"""The ranking stages on candidate arrays, each against the code it replaced:
BM25 top-k over the documents that score above zero against the former
whole-corpus top_k_entries, and rerank on feature rows aligned to its list
against the former doc id -> row loop. The stacked select-train dev set is
checked against its former loop in test_ranking_figures.

The former code is kept here as the oracle and every comparison is bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.corpus import Document, Query
from ranklab.errors import NumericError
from ranklab.rerank import Ranker, rerank
from ranklab.sparse import RankedList, bm25_scores, bm25_top_k, build_index, search_topk
from test_feature_matrix import extractor_of

WORDS = ["alpha", "beta", "gamma", "the"]


# -- the former code ---------------------------------------------------------

def former_top_k_entries(scores, doc_ids, doc_rank, k):
    """BM25 search's cut before it skipped the zero scores: the whole corpus
    partitioned, every ordinal tied with the k-th kept, and those lexsorted."""
    n = len(scores)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        kept = np.flatnonzero(scores >= kth)
    else:
        kept = np.arange(n)
    top = kept[np.lexsort((doc_rank[kept], -scores[kept]))[:k]]
    return tuple(zip([doc_ids[o] for o in top.tolist()], scores[top].tolist()))


def former_rerank(ranker, candidates, depth, features):
    """rerank before it took aligned rows: `features` maps doc id -> row."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not candidates.entries:
        return candidates
    block = [doc_id for doc_id, _ in candidates.entries[:depth]]
    scores = np.vecdot(np.array([features[d] for d in block]), ranker.weights)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite score in reranking")
    rescored = sorted(zip(block, scores.tolist()), key=lambda e: (-e[1], e[0]))
    tail_start, tail = rescored[-1][1] - 1.0, candidates.entries[depth:]
    if tail and abs(tail_start) + len(tail) >= 2.0**52:
        raise NumericError("reranked scores too large to rank the tail below them")
    tail = [(doc_id, tail_start - i) for i, (doc_id, _) in enumerate(tail)]
    return RankedList(candidates.query_id, tuple(rescored + tail))


def exact(entries):
    """Entries with each score as its float.hex(), so -0.0 and 0.0 differ."""
    return [(d, float(s).hex()) for d, s in entries]


# -- BM25 top-k --------------------------------------------------------------

# ids such as "b", "a9", "9", "a" in corpus order: string order differs from ordinal order
doc_ids = st.lists(st.text("a9b", min_size=1, max_size=3), min_size=1, max_size=14, unique=True)
# most documents hold no query term, so the zero-score tie set is large
texts = st.lists(st.sampled_from(WORDS + ["delta", "zeta"]), max_size=4).map(" ".join)
# repeated terms, a stopword, and terms no document holds
query_terms = st.lists(st.sampled_from(WORDS + ["unindexed"]), max_size=5)
params = st.tuples(st.sampled_from([0.0, 0.9, 1.2]), st.sampled_from([0.0, 0.4, 1.0]))


@st.composite
def top_k_inputs(draw):
    ids = draw(doc_ids)
    docs = [Document(d, draw(texts), "") for d in ids]
    return docs, draw(query_terms), draw(st.integers(1, len(docs) + 3)), draw(params)


FILLED = [Document(d, t, "") for d, t in zip(["b", "a9", "9", "a", "ba", "99"],
                                              ["alpha", "", "beta", "", "alpha beta", ""])]


@given(top_k_inputs())
@example((FILLED, ["alpha"], 1, (0.9, 0.4)))  # k below the number scoring above zero
@example((FILLED, ["alpha", "alpha"], 4, (0.9, 0.4)))  # above it: zero-score fill
@example((FILLED, ["beta", "alpha"], 6, (1.2, 1.0)))  # k = N
@example((FILLED, ["alpha"], 9, (0.0, 0.0)))  # k > N
@example((FILLED, ["unindexed"], 3, (0.9, 0.4)))  # every score zero
@example((FILLED, [], 2, (0.9, 0.4)))
def test_bm25_top_k_equals_the_former_whole_corpus_cut(inputs):
    docs, terms, k, (k1, b) = inputs
    index = build_index(docs)
    scores = bm25_scores(index, terms, k1, b)
    expected = former_top_k_entries(scores, index.doc_ids, index.doc_rank, k)
    assert exact(search_topk(index, terms, k, k1, b).entries) == exact(expected)
    top, all_scores = bm25_top_k(index, terms, k, k1, b)
    assert [index.doc_ids[o] for o in top.tolist()] == [d for d, _ in expected]
    assert all_scores.tobytes() == scores.tobytes()


@pytest.mark.parametrize("k, k1, b", [(0, 0.9, 0.4), (3, -0.1, 0.4), (3, 0.9, 1.5),
                                      (3, 0.9, -0.5)])
def test_bm25_top_k_rejects_k_or_parameters_that_can_score_below_zero(k, k1, b):
    with pytest.raises(ValueError):
        bm25_top_k(build_index(FILLED), ["alpha"], k, k1, b)


# -- rerank on aligned rows --------------------------------------------------

scores_ = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0, 1e17, np.inf, np.nan]))


@st.composite
def rerank_inputs(draw):
    ids = draw(st.lists(st.text("a9b", min_size=1, max_size=3), max_size=12, unique=True))
    candidates = RankedList.from_scores(4, [(d, draw(st.floats(-5, 5))) for d in ids])
    # repeated rows tie the ranker scores
    pool = draw(st.lists(st.lists(scores_, min_size=6, max_size=6), min_size=1, max_size=3))
    rows = {d: np.array(draw(st.sampled_from(pool))) for d in ids}
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.5]), min_size=6, max_size=6))
    return candidates, rows, Ranker(weights), draw(st.integers(1, len(ids) + 2))


def _outcome(fn, *args):
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return exact(fn(*args).entries)
    except NumericError as exc:
        return str(exc)


@given(rerank_inputs())
def test_rerank_on_aligned_rows_equals_the_former_mapping_loop(inputs):
    candidates, rows, ranker, depth = inputs
    aligned = np.array([rows[d] for d in candidates.doc_ids()]).reshape(-1, 6)
    assert (_outcome(rerank, ranker, candidates, depth, aligned)
            == _outcome(former_rerank, ranker, candidates, depth, rows))


FEATURE_WORDS = ["remdesivir", "trial", "vaccine", "antibody", "cohort", "the", "of"]


@given(st.lists(st.sampled_from(FEATURE_WORDS), min_size=1, max_size=7),
       st.integers(1, 14), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_candidates_rows_rerank_as_the_former_mapping(terms, n_docs, depth, seed):
    """Documents d0 ... d13, whose ids from d10 on sort before d2."""
    rng = np.random.default_rng(seed)
    extractor = extractor_of([" ".join(rng.choice(FEATURE_WORDS, size=int(rng.integers(0, 6))))
                              for _ in range(n_docs)])
    base, rows = extractor.candidates(Query(2, " ".join(terms), tuple(terms)), 12)
    ranker = Ranker(rng.normal(size=6))
    assert (_outcome(rerank, ranker, base, depth, rows)
            == _outcome(former_rerank, ranker, base, depth, dict(zip(base.doc_ids(), rows))))
