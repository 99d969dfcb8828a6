"""Fusion on arrays: the array reciprocal-rank fusion against the former dict
loop, the stacked dense top-k against dense_search_topk, interp as rerank's
block score against fuse_interpolate, and counts of the RankedLists the fusing
stages build."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranklab.cli import STAGES, StageRunner
from ranklab.dense import DenseEncoder, DenseIndex, dense_search_topk, dense_top_k, encode
from ranklab.errors import ToolkitWarning
from ranklab.evaluation import read_run
from ranklab.rerank import (
    Candidates, Ranker, _rrf_shares, fuse_base_union, fuse_interpolate, reciprocal_rank_fusion,
    rerank,
)
from ranklab.sparse import InvertedIndex, RankedList, doc_id_ranks, search_topk
from ranklab.subword import tokenize_query
from test_dense import few_values, reference_dense_search_topk, tricky_doc_ids
from test_stage_memo import _config


def former_reciprocal_rank_fusion(lists, k, rrf_k=60):
    """The former dict-loop fusion, kept as the oracle."""
    lists = list(lists)
    scores: dict[str, float] = {}
    for rl in lists:
        for rank, (doc_id, _) in enumerate(rl.entries, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (rrf_k + rank)
    q = lists[0].query_id
    return RankedList(q, RankedList.from_scores(q, scores.items()).entries[:k])


def exact(ranking):
    """Doc ids and score bytes, so -0.0 and 0.0 or a last-bit change differ."""
    return [(d, np.float64(s).tobytes()) for d, s in ranking.entries]


@st.composite
def ranked_lists(draw):
    """One to three lists of one query over a shared pool of tricky ids: a
    list may share documents with another or have none in common."""
    pool = draw(tricky_doc_ids)
    lists = []
    for _ in range(draw(st.integers(1, 3))):
        docs = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
        lists.append(RankedList.from_scores(4, [(d, float(-i)) for i, d in enumerate(docs)]))
    return lists


@settings(max_examples=300, deadline=None)
@given(ranked_lists(), st.integers(1, 20), st.integers(1, 100))
def test_array_rrf_equals_the_dict_loop(lists, k, rrf_k):
    expected = former_reciprocal_rank_fusion(lists, k, rrf_k)
    assert exact(reciprocal_rank_fusion(lists, k, rrf_k)) == exact(expected)
    if len(lists) == 2:
        assert exact(fuse_base_union(*lists, k, rrf_k)) == exact(expected)


@given(st.integers(0, 40), st.integers(1, 2**53 - 40))
@example(40, 2**53 - 40)
def test_rrf_shares_are_the_float_divisions_while_rrf_k_plus_n_is_exact(n, rrf_k):
    """Int division rounds 1 / (rrf_k + rank) once, as 1.0 / (rrf_k + rank) does while
    rrf_k + rank converts to a float exactly (up to 2**53): the shares keep every bit."""
    expected = np.array([1.0 / (rrf_k + rank) for rank in range(1, n + 1)])
    assert _rrf_shares(n, rrf_k).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", range(1, 7))
def test_tied_fused_scores_keep_doc_id_order(k):
    # every document holds the same ranks in mirrored lists: each rank's pair ties
    a = RankedList.from_scores(1, [("b", 3.0), ("d", 2.0), ("c", 1.0)])
    b = RankedList.from_scores(1, [("d\x00", 3.0), ("a", 2.0), ("c\x00", 1.0)])
    fused = fuse_base_union(a, b, k, 1)
    assert exact(fused) == exact(former_reciprocal_rank_fusion([a, b], k, 1))
    assert fused.doc_ids() == ["b", "d\x00", "a", "d", "c", "c\x00"][:k]


@st.composite
def candidate_stacks(draw):
    """A (Q x n) candidate stack over a pool of tricky ids, its features and
    ranker weights drawn from a few values so scores tie, some rows with every
    candidate scoring the same, a depth below, at or past n, and an alpha."""
    pool = draw(tricky_doc_ids)
    n, q = draw(st.integers(1, len(pool))), draw(st.integers(1, 3))
    positions = np.array([draw(st.permutations(range(len(pool))))[:n] for _ in range(q)])
    features = np.reshape(draw(st.lists(few_values, min_size=q * n * 6, max_size=q * n * 6)),
                          (q, n, 6))
    for i in range(q):
        if draw(st.booleans()):
            features[i] = features[i, 0]
    candidates = Candidates(list(range(1, q + 1)), np.array(pool, dtype=object)[positions],
                            doc_id_ranks(pool)[positions], features)
    ranker = Ranker(draw(st.lists(few_values, min_size=6, max_size=6)))
    return candidates, ranker, draw(st.integers(1, n + 2)), draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(candidate_stacks())
def test_interp_block_equals_fuse_interpolate(stack):
    # the block is fused as fuse_interpolate fuses its ranker and dense dicts
    # alone; the tail keeps base order at block minimum - 1, - 2, ...
    candidates, ranker, depth, alpha = stack
    fused, plain = rerank(ranker, candidates, depth, alpha), rerank(ranker, candidates, depth)
    block = min(depth, candidates.doc_ids.shape[1])
    for i, query_id in enumerate(candidates.query_ids):
        dense = zip(candidates.doc_ids[i, :block].tolist(), candidates.features[i, :block, 1].tolist())
        expected = fuse_interpolate(query_id, plain[i].entries[:block], dense, alpha).entries
        tail = tuple((d, (expected[-1][1] - 1.0) - k)
                     for k, d in enumerate(candidates.doc_ids[i, block:].tolist()))
        assert exact(fused[i]) == exact(RankedList(query_id, expected + tail))


def test_interp_fuses_the_block_alone():
    # a, b, c rerank to 2.0, 1.5, 1.0 with dense 0.1, 0.2, 0.3, above a
    # 97-document tail at 0.0 ... -96.0 with dense 0.0: normalized over the
    # block alone they tie at 0.5, where the tail's range put c, b, a first
    doc_ids = ["a", "b", "c"] + [f"t{j:02d}" for j in range(97)]
    features = np.zeros((1, 100, 6))
    features[0, :, 0] = [2.0, 1.5, 1.0, *-np.arange(97.0)]
    features[0, :3, 1] = 0.1, 0.2, 0.3
    candidates = Candidates([1], np.array([doc_ids], dtype=object), doc_id_ranks(doc_ids)[None],
                            features)
    ranking = rerank(Ranker([1.0, 0, 0, 0, 0, 0]), candidates, 3, 0.5)[0]
    assert ranking.entries[:3] == (("a", 0.5), ("b", 0.5), ("c", 0.5))
    assert ranking.doc_ids()[3:] == doc_ids[3:]
    assert ranking.entries[3][1] < 0.5


def test_interp_stage_keeps_the_tail_in_bm25_order(tmp_path):
    config = _config(tmp_path, fusion="interp", depth=3, topk=10)
    runner = StageRunner(config)
    for stage in STAGES[:STAGES.index("rerank") + 1]:
        runner.run(stage)
    index = InvertedIndex.load(tmp_path / "work" / "index.bin")
    run: dict[int, list[str]] = {}
    for line in (tmp_path / "work" / "run.trec").read_text().splitlines():
        run.setdefault(int(line.split()[0]), []).append(line.split()[2])
    for query in runner.load_queries():
        docs, bm25 = run[query.query_id], search_topk(index, query, 10, config.k1, config.b).doc_ids()
        assert len(docs) == 10
        assert sorted(docs[:3]) == sorted(bm25[:3]) and docs[3:] == bm25[3:]


@settings(max_examples=150, deadline=None)
@given(tricky_doc_ids, st.integers(2, 4), st.data())
def test_stacked_top_k_equals_dense_search_topk(doc_ids, dim, data):
    n = len(doc_ids)
    vectors = data.draw(st.lists(few_values, min_size=n * dim, max_size=n * dim))
    index = DenseIndex(np.reshape(vectors, (n, dim)), doc_ids)
    rows = data.draw(st.lists(few_values, min_size=3 * dim, max_size=3 * dim))
    encoder = DenseEncoder(np.reshape(rows, (3, dim)))
    queries = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=9),
                                 min_size=1, max_size=4))
    for k in (1, max(1, n // 2), n, n + 2):
        ranks, scores = dense_top_k(index, encoder, queries, k)
        assert ranks.shape == scores.shape == (len(queries), min(k, n))
        for query, row_ranks, row_scores in zip(queries, ranks, scores):
            stacked = RankedList.from_arrays(0, index.by_rank[row_ranks], row_scores)
            assert exact(stacked) == exact(dense_search_topk(index, encoder, query, k))
            # from dim 2 on, the pooled scores are encode()'s bit for bit
            former = RankedList(0, reference_dense_search_topk(index, encoder, query, k))
            assert exact(stacked) == exact(former)


def test_empty_queries_warn_once_per_stack():
    rng = np.random.default_rng(3)
    index = DenseIndex(rng.normal(size=(6, 3)), [f"d{i}" for i in rng.permutation(6)])
    encoder = DenseEncoder(rng.normal(size=(4, 3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ranks, scores = dense_top_k(index, encoder, [[], [1, 2], []], 4)
    assert [w.category for w in caught] == [ToolkitWarning]
    assert not scores[0].any() and not scores[2].any()
    assert ranks[0].tolist() == ranks[2].tolist() == [0, 1, 2, 3]  # all tie: doc-id order
    with pytest.warns(ToolkitWarning):
        assert not any(s for _, s in dense_search_topk(index, encoder, (), 3).entries)


def test_dim_one_scores_match_encode_closely():
    # at dim 1 encode's mean sums pairwise and pool in order; positive rows
    # keep the sums free of cancellation, so the relative gap stays at rounding
    rng = np.random.default_rng(8)
    index = DenseIndex(rng.uniform(0.5, 1.5, size=(40, 1)), [f"d{i:02d}" for i in range(40)])
    encoder = DenseEncoder(rng.uniform(0.5, 1.5, size=(30, 1)))
    queries = [rng.integers(0, 30, size=n).tolist() for n in (1, 7, 9, 16, 33, 64)]
    ranks, scores = dense_top_k(index, encoder, queries, 40)
    order = np.argsort(index.doc_rank)
    for query, row_ranks, row_scores in zip(queries, ranks, scores):
        expected = (index.vectors @ encode(encoder, query))[order[row_ranks]]
        np.testing.assert_allclose(row_scores, expected, rtol=1e-12, atol=0)


def _count_ranked_lists(monkeypatch):
    built = []
    real = RankedList.__post_init__
    monkeypatch.setattr(RankedList, "__post_init__", lambda self: built.append(self) or real(self))
    return built


def test_rrf_rerank_builds_one_ranked_list_per_query(tmp_path, monkeypatch):
    runner = StageRunner(_config(tmp_path, fusion="rrf"))
    for stage in STAGES[:STAGES.index("rerank")]:
        runner.run(stage)
    built = _count_ranked_lists(monkeypatch)
    runner.run("rerank")
    run = runner.parsed[tmp_path / "work" / "run.trec", read_run][1]
    assert [r.query_id for r in built] == [q.query_id for q in runner.load_queries()]
    assert all(r is run.rankings[r.query_id] for r in built)


def test_union_candidates_fuse_without_ranked_lists(tmp_path, monkeypatch):
    runner = StageRunner(_config(tmp_path, fusion="union"))
    for stage in STAGES[:STAGES.index("rerank")]:
        runner.run(stage)
    extractor = runner._feature_extractor()
    built = _count_ranked_lists(monkeypatch)
    candidates = runner._lists(extractor)[0]
    assert built == []
    # each fused list is the one fuse_base_union gives for the query's two lists
    for query, doc_ids in zip(runner.load_queries(), candidates.doc_ids):
        bm25 = extractor.candidates([query], runner.config.topk)
        base = RankedList.from_arrays(query.query_id, bm25.doc_ids[0], bm25.features[0, :, 0])
        pieces = tokenize_query(query.processed_terms, extractor.vocab, runner.config.max_seq_len)
        dense = dense_search_topk(extractor.dense_index, extractor.encoder, pieces,
                                  runner.config.topk, query.query_id)
        fused = fuse_base_union(base, dense, runner.config.topk, runner.config.rrf_k)
        assert doc_ids.tolist() == fused.doc_ids()
