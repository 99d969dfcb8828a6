"""The ranking stages on candidate arrays, each against the code it replaced:
BM25 top-k over the documents that score above zero against the former
whole-corpus top_k_entries, and the stacked rerank against the former one
list at a time, on aligned rows and on a doc id -> row mapping. The stacked
select-train dev set is checked against its former loop in test_ranking_figures.

The former code is kept here as the oracle and every comparison is bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.corpus import Document, Query
from ranklab.errors import NumericError
from ranklab.rerank import Candidates, Ranker, rerank
from ranklab.sparse import (
    RankedList, bm25_scores, bm25_top_k, build_index, doc_id_ranks, search_topk,
)
from test_feature_matrix import extractor_of, rerank_one

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
    """rerank before it stacked its lists: one list and its (n, 6) feature rows
    in list order, of which only the first `depth` are read."""
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
    if tail and abs(tail_start) + len(tail) >= 2.0**52:
        raise NumericError("reranked scores too large to rank the tail below them")
    tail = [(doc_id, tail_start - i) for i, (doc_id, _) in enumerate(tail)]
    return RankedList(candidates.query_id, tuple(rescored + tail))


def former_mapping_rerank(ranker, candidates, depth, features):
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
    assert (_outcome(rerank_one, ranker, candidates, depth, aligned)
            == _outcome(former_mapping_rerank, ranker, candidates, depth, rows))


FEATURE_WORDS = ["remdesivir", "trial", "vaccine", "antibody", "cohort", "the", "of"]


@given(st.lists(st.sampled_from(FEATURE_WORDS), min_size=1, max_size=7),
       st.integers(1, 14), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_candidates_rows_rerank_as_the_former_mapping(terms, n_docs, depth, seed):
    """Documents d0 ... d13, whose ids from d10 on sort before d2."""
    rng = np.random.default_rng(seed)
    extractor = extractor_of([" ".join(rng.choice(FEATURE_WORDS, size=int(rng.integers(0, 6))))
                              for _ in range(n_docs)])
    query = Query(2, " ".join(terms), tuple(terms))
    candidates = extractor.candidates([query], 12)
    base = search_topk(extractor.index, query, 12, extractor.k1, extractor.b)
    rows = candidates.features[0]
    ranker = Ranker(rng.normal(size=6))
    assert (_outcome(lambda *a: rerank(*a)[0], ranker, candidates, depth)
            == _outcome(former_mapping_rerank, ranker, base, depth,
                        dict(zip(base.doc_ids(), rows))))


# -- the stacked rerank ------------------------------------------------------

def stacked_inputs(ids, lists, rows, weights, depth):
    """Candidates over `ids` (in corpus order): each of `lists` holds (ordinal,
    base score) pairs, all lists one length n, and `rows` holds each list's
    (n, 6) feature rows in its base order."""
    rank, ordinal = doc_id_ranks(ids), {d: o for o, d in enumerate(ids)}
    bases = [RankedList.from_scores(qid, [(ids[o], s) for o, s in pairs])
             for qid, pairs in enumerate(lists, start=1)]
    shape = (len(lists), len(lists[0]) if lists else len(ids))
    candidates = Candidates(
        [b.query_id for b in bases], np.array([b.doc_ids() for b in bases], dtype=object).reshape(shape),
        np.array([[rank[ordinal[d]] for d in b.doc_ids()] for b in bases],
                 dtype=np.intp).reshape(shape),
        np.array(rows, dtype=np.float64).reshape(*shape, 6))
    return candidates, bases, list(candidates.features), Ranker(weights), depth


@st.composite
def stacked_rerank_inputs(draw):
    """Up to four lists of one length n over ids whose string order differs
    from corpus order; rows drawn from a small pool tie the ranker scores, and
    signed zeros, 1e17, inf and NaN occur."""
    ids = draw(st.lists(st.text("a9b", min_size=1, max_size=3), min_size=1, max_size=10,
                        unique=True))
    n = draw(st.integers(1, len(ids)))
    pool = draw(st.lists(st.lists(scores_, min_size=6, max_size=6), min_size=1, max_size=3))
    lists, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        ordinals = draw(st.permutations(range(len(ids))))[:n]
        lists.append([(o, draw(st.floats(-5, 5))) for o in ordinals])
        rows.append([draw(st.sampled_from(pool)) for _ in range(n)])
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.5]), min_size=6, max_size=6))
    return stacked_inputs(ids, lists, rows, weights, draw(st.integers(1, n + 2)))


IDS = ["b", "a9", "9", "a", "ba"]  # string order: 9, a, a9, b, ba
LISTS = [[(0, 3.0), (1, 2.0), (2, 1.0)], [(4, 0.5), (3, 0.5), (2, -1.0)]]
TIED = [[[1.0, 0, 0, 0, 0, 0]] * 3, [[2.0, 0, 0, 0, 0, 0]] * 3]  # equal ranker scores
BM25 = [1.0, 0, 0, 0, 0, 0]


@given(stacked_rerank_inputs())
@example(stacked_inputs(IDS, LISTS, TIED, BM25, 1))  # depth 1
@example(stacked_inputs(IDS, LISTS, TIED, BM25, 3))  # depth = n
@example(stacked_inputs(IDS, LISTS, TIED, BM25, 5))  # depth > n
@example(stacked_inputs(IDS, [], [], BM25, 2))  # no query: an empty dev set
@example(stacked_inputs(IDS, LISTS, [TIED[0], [[np.nan, 0, 0, 0, 0, 0]] * 3], BM25, 2))
@example(stacked_inputs(IDS, LISTS, [TIED[0], [[2.0**52, 0, 0, 0, 0, 0]] * 3], BM25, 2))
def test_stacked_rerank_equals_the_former_one_list_at_a_time(inputs):
    """Bit for bit on every list; where the former raised NumericError on any
    list, the stacked rerank raises it too."""
    candidates, bases, aligned, ranker, depth = inputs
    expected = [_outcome(former_rerank, ranker, b, depth, r) for b, r in zip(bases, aligned)]
    if all(isinstance(e, list) for e in expected):
        with np.errstate(invalid="ignore", over="ignore"):
            assert [exact(r.entries) for r in rerank(ranker, candidates, depth)] == expected
    else:
        with pytest.raises(NumericError) as info, np.errstate(invalid="ignore", over="ignore"):
            rerank(ranker, candidates, depth)
        assert str(info.value) in expected


@given(st.lists(st.lists(st.sampled_from(FEATURE_WORDS), min_size=1, max_size=5),
                min_size=1, max_size=4),
       st.integers(1, 14), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_stacked_extractor_candidates_rerank_as_the_former_loop(query_terms, n_docs, depth,
                                                                 seed):
    """Several queries' candidates over documents d0 ... d13 (d10 on sorts
    before d2), reranked together and one list at a time."""
    rng = np.random.default_rng(seed)
    extractor = extractor_of([" ".join(rng.choice(FEATURE_WORDS, size=int(rng.integers(0, 6))))
                              for _ in range(n_docs)])
    queries = [Query(i + 1, " ".join(t), tuple(t)) for i, t in enumerate(query_terms)]
    candidates = extractor.candidates(queries, 12)
    ranker = Ranker(rng.normal(size=6))
    expected = [exact(former_rerank(ranker, search_topk(extractor.index, q, 12, extractor.k1,
                                                        extractor.b), depth, rows).entries)
                for q, rows in zip(queries, candidates.features)]
    assert [exact(r.entries) for r in rerank(ranker, candidates, depth)] == expected
