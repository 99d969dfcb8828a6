import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.corpus import Qrels
from ranklab.dense import DenseEncoder, DenseIndex, build_dense_index, descend
from ranklab.errors import DependencyError, NumericError
from ranklab.evaluation import Run, read_run, write_run
from ranklab.rerank import (
    FeatureExtractor,
    Ranker,
    fuse_base_union,
    fuse_interpolate,
    logistic,
    pairwise_train_step,
    reciprocal_rank_fusion,
)
from ranklab.sparse import RankedList
from ranklab.subword import tokenize_corpus
from test_feature_matrix import depth_sweep
from test_feature_matrix import rerank_one as rerank_op
from test_feature_matrix import stacked


def feature_table(doc_scores, candidates):
    """Feature rows, in the candidates' order, that make the ranker score equal
    a chosen value per doc; `doc_scores` covers the leading candidates, and
    the rows below them, which rerank never reads, score 0."""
    return np.array([[doc_scores.get(doc, 0.0), 0, 0, 0, 0, 0]
                     for doc in candidates.doc_ids()], dtype=np.float64)


BM25_ONLY = Ranker(np.array([1.0, 0, 0, 0, 0, 0]))


def base_list(query_id, docs):
    return RankedList.from_scores(query_id, [(d, float(-i)) for i, d in enumerate(docs)])


class TestRerank:
    def test_depth_one_keeps_order_and_membership(self):
        candidates = base_list(1, ["a", "b", "c", "d"])
        features = feature_table({"a": 5.0}, candidates)
        out = rerank_op(BM25_ONLY, candidates, 1, features)
        assert out.doc_ids() == ["a", "b", "c", "d"]
        assert set(out.doc_ids()) == set(candidates.doc_ids())

    def test_full_depth_equals_sort_by_ranker(self):
        candidates = base_list(1, ["a", "b", "c"])
        features = feature_table({"a": 1.0, "b": 9.0, "c": 4.0}, candidates)
        out = rerank_op(BM25_ONLY, candidates, 10, features)
        assert out.doc_ids() == ["b", "c", "a"]

    def test_splice_oracle_at_depths(self):
        rng = np.random.default_rng(3)
        docs = [f"d{i:02d}" for i in range(30)]
        scores = {d: float(rng.normal()) for d in docs}
        candidates = base_list(7, docs)
        features = feature_table(scores, candidates)
        for depth in (5, 12, 30, 100):
            out = rerank_op(BM25_ONLY, candidates, depth, features)
            block = sorted(docs[:depth], key=lambda d: (-scores[d], d))
            expected = block + docs[depth:]
            assert out.doc_ids() == expected

    def test_membership_preserved(self):
        rng = np.random.default_rng(4)
        docs = [f"d{i}" for i in range(20)]
        candidates = base_list(1, docs)
        features = feature_table({d: float(rng.normal()) for d in docs}, candidates)
        for depth in (1, 7, 20):
            out = rerank_op(BM25_ONLY, candidates, depth, features)
            assert set(out.doc_ids()) == set(docs)

    def test_tied_scores_stay_equal_in_doc_id_order(self, tmp_path):
        candidates = base_list(1, ["c", "a", "b", "e", "d"])
        features = feature_table({"c": 1.0, "a": 1.0, "b": 1.0}, candidates)  # tied ranker scores
        out = rerank_op(BM25_ONLY, candidates, 3, features)
        assert out.entries[:3] == (("a", 1.0), ("b", 1.0), ("c", 1.0))
        assert out.doc_ids()[3:] == ["e", "d"]
        assert all(score < 1.0 for _, score in out.entries[3:])
        write_run(Run({1: out}, "t"), tmp_path / "run.trec")
        assert read_run(tmp_path / "run.trec").rankings == {1: out}

    def test_tail_below_block_minimum(self):
        candidates = base_list(1, ["a", "b", "c", "d"])
        features = feature_table({"a": -5.0, "b": -7.0}, candidates)
        out = rerank_op(BM25_ONLY, candidates, 2, features)
        block_min = min(s for d, s in out.entries[:2])
        for _, score in out.entries[2:]:
            assert score < block_min

    @pytest.mark.parametrize("low, high", [(1e17, 2e17), (-1e308, -0.9e308)])
    def test_tail_that_cannot_fall_below_the_block_is_numeric_error(self, low, high):
        # block_min - 1.0 rounds back onto block_min at these magnitudes
        candidates = base_list(1, ["y", "z", "a", "b"])
        with pytest.raises(NumericError, match="too large"):
            rerank_op(BM25_ONLY, candidates, 2, feature_table({"y": low, "z": high}, candidates))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
           st.integers(0, 3))
    def test_tail_strictly_decreases_below_any_finite_block(self, block_scores, tail_len):
        docs = [f"d{i}" for i in range(len(block_scores) + tail_len)]
        candidates = base_list(1, docs)
        features = feature_table(dict(zip(docs, block_scores)), candidates)
        try:
            out = rerank_op(BM25_ONLY, candidates, len(block_scores), features)
        except NumericError:  # only where the float spacing can reach 1.0
            assert tail_len and abs(min(block_scores) - 1.0) + tail_len >= 2.0**52
            return
        tail = [score for _, score in out.entries[len(block_scores):]]
        assert all(a > b for a, b in zip([min(block_scores), *tail], tail))


def reference_pairwise_train_step(ranker, feature_pairs, learning_rate):
    """pairwise_train_step's former per-pair loop, kept as the oracle of its array form."""
    pairs = [(np.asarray(p, dtype=np.float64), np.asarray(n, dtype=np.float64))
             for p, n in feature_pairs]
    grad, total, scale = np.zeros(6), 0.0, 1.0 / len(pairs)
    for pos, neg in pairs:
        diff = pos - neg
        margin = float(np.dot(ranker.weights, diff))
        total += max(-margin, 0.0) + math.log1p(math.exp(-abs(margin)))
        grad += scale * (logistic(margin) - 1.0) * diff
    descend("pairwise training step", learning_rate, (ranker.weights, grad))
    return ranker, total * scale


class TestPairwiseTraining:
    @given(st.integers(1, 40), st.floats(1e-3, 30.0), st.floats(0.0, 1.0), st.booleans(),
           st.sampled_from([0.0, 1e-3, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    @example(1, 30.0, 0.0, True, 1.0, 0)  # one pair, margin far past the underflow of e^-700
    @example(40, 1e-3, 1.0, False, 0.5, 1)  # every pair tied: all margins zero
    def test_the_array_step_is_the_former_loop(self, n, weight_scale, tied, as_array, rate, seed):
        """Weights and loss equal the per-pair loop's to the byte, over batches of 1-40 pairs
        whose margins reach past +-700, with tied (zero-margin) and repeated pairs, given as
        a list of (pos, neg) tuples or as an (n, 2, 6) array."""
        rng = np.random.default_rng(seed)
        pairs = rng.normal(0.0, 10.0, size=(n, 2, 6))
        tie = rng.random(n) < tied
        pairs[tie, 1] = pairs[tie, 0]  # pos == neg
        pairs[rng.random(n) < 0.2] = pairs[0]  # equal margins
        weights = weight_scale * rng.normal(size=6)
        expected, expected_loss = reference_pairwise_train_step(
            Ranker(weights.copy()), [(p.copy(), q.copy()) for p, q in pairs], rate)
        batch = pairs if as_array else [(p, q) for p, q in pairs]
        ranker, loss = pairwise_train_step(Ranker(weights.copy()), batch, rate)
        assert ranker.weights.tobytes() == expected.weights.tobytes()
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert type(loss) is float

    @pytest.mark.parametrize("batch", [[], np.empty((0, 2, 6))], ids=["list", "array"])
    def test_an_empty_batch_is_a_value_error(self, batch):
        with pytest.raises(ValueError, match="non-empty"):
            pairwise_train_step(Ranker(), batch, 0.1)

    def test_a_ranker_does_not_share_the_callers_array(self):
        """Two rankers built from one array train apart, and a step leaves the array as it was."""
        weights = np.linspace(-1.0, 1.0, 6)
        before = weights.copy()
        first, second = Ranker(weights), Ranker(weights)
        pairwise_train_step(first, [(np.ones(6), np.zeros(6))], 0.5)
        assert weights.tobytes() == before.tobytes()
        assert second.weights.tobytes() == before.tobytes()
        assert first.weights.tobytes() != before.tobytes()
        assert first.copy().weights is not first.weights

    def test_zero_rate_unchanged(self):
        ranker = Ranker(np.ones(6))
        pairs = [(np.ones(6), np.zeros(6))]
        before = ranker.weights.copy()
        pairwise_train_step(ranker, pairs, 0.0)
        np.testing.assert_array_equal(ranker.weights, before)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        ranker = Ranker(rng.normal(0, 0.5, size=6))
        pairs = [(rng.normal(size=6), rng.normal(size=6)) for _ in range(5)]

        def loss(weights):
            total = 0.0
            for pos, neg in pairs:
                margin = float(np.dot(weights, pos - neg))
                total += math.log(1 + math.exp(-margin))
            return total / len(pairs)

        stepped = ranker.copy()
        pairwise_train_step(stepped, pairs, 1.0)
        grad = ranker.weights - stepped.weights
        eps = 1e-6
        for j in range(6):
            plus, minus = ranker.weights.copy(), ranker.weights.copy()
            plus[j] += eps
            minus[j] -= eps
            fd = (loss(plus) - loss(minus)) / (2 * eps)
            assert abs(fd - grad[j]) <= 1e-6 * max(abs(fd), abs(grad[j]), 1.0)

    def test_loss_non_increasing_at_small_rate(self):
        rng = np.random.default_rng(8)
        ranker = Ranker(rng.normal(0, 0.1, size=6))
        pairs = [(rng.normal(size=6), rng.normal(size=6)) for _ in range(8)]
        last = None
        for _ in range(30):
            ranker, loss = pairwise_train_step(ranker, pairs, 1e-3)
            if last is not None:
                assert loss <= last + 1e-12
            last = loss

    def test_separable_fixture_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(9)
        direction = rng.normal(size=6)
        pairs = []
        for _ in range(40):
            gap = rng.uniform(0.5, 2.0)
            neg = rng.normal(size=6)
            pairs.append((neg + gap * direction, neg))
        ranker = Ranker()
        for _ in range(200):
            ranker, _ = pairwise_train_step(ranker, pairs, 0.5)
        correct = sum(
            1 for pos, neg in pairs if ranker.score(pos) > ranker.score(neg))
        assert correct == len(pairs)


class TestInterpolation:
    RANKER = {"a": 3.0, "b": 2.0, "c": 1.0}
    DENSE = {"a": 0.1, "b": 0.9, "c": 0.5}

    def test_alpha_zero_is_ranker_order(self):
        out = fuse_interpolate(1, self.RANKER, self.DENSE, 0.0)
        assert out.doc_ids() == ["a", "b", "c"]

    def test_alpha_one_is_dense_order(self):
        out = fuse_interpolate(1, self.RANKER, self.DENSE, 1.0)
        assert out.doc_ids() == ["b", "c", "a"]

    def test_hand_arithmetic_at_half(self):
        out = fuse_interpolate(1, self.RANKER, self.DENSE, 0.5)
        # normalized ranker: a=1, b=.5, c=0; normalized dense: a=0, b=1, c=.5
        expected = {"a": 0.5, "b": 0.75, "c": 0.25}
        assert dict(out.entries) == pytest.approx(expected, abs=1e-12)
        assert out.doc_ids() == ["b", "a", "c"]

    def test_degenerate_component_contributes_half(self):
        out = fuse_interpolate(1, {"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 0.0}, 0.5)
        assert dict(out.entries) == pytest.approx({"a": 0.75, "b": 0.25}, abs=1e-12)

    def test_an_overflowing_range_is_a_numeric_error(self):
        """Normalizing over a range of 2e308 gives nan, which is not ranked."""
        with pytest.raises(NumericError, match="non-finite score"):
            fuse_interpolate(1, {}, {"a": 1e308, "c": -1e308}, 0.5)

    def test_score_linear_in_alpha(self):
        values = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = fuse_interpolate(1, self.RANKER, self.DENSE, alpha)
            values.append(dict(out.entries)["b"])
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0], atol=1e-12)


class TestRrf:
    def test_single_list_order_preserved(self):
        lst = base_list(1, ["x", "y", "z"])
        out = reciprocal_rank_fusion([lst], 3)
        assert out.doc_ids() == ["x", "y", "z"]

    def test_rank_one_in_both_lists(self):
        a = base_list(1, ["top", "o1"])
        b = base_list(1, ["top", "o2"])
        out = fuse_base_union(a, b, 3, rrf_k=60)
        assert dict(out.entries)["top"] == pytest.approx(2 / 61, abs=1e-12)

    def test_doc_in_one_list_single_term(self):
        a = base_list(1, ["x", "only"])
        b = base_list(1, ["x"])
        out = fuse_base_union(a, b, 5, rrf_k=60)
        assert dict(out.entries)["only"] == pytest.approx(1 / 62, abs=1e-12)

    def test_invariant_to_monotone_score_transforms(self):
        docs1, docs2 = ["a", "b", "c", "d"], ["c", "a", "d", "b"]
        raw1 = base_list(1, docs1)
        raw2 = base_list(1, docs2)
        squashed1 = RankedList.from_scores(
            1, [(d, 100.0 + 3.0 * s) for d, s in raw1.entries])
        squashed2 = RankedList.from_scores(
            1, [(d, math.tanh(s / 10.0)) for d, s in raw2.entries])
        plain = fuse_base_union(raw1, raw2, 4)
        transformed = fuse_base_union(squashed1, squashed2, 4)
        assert plain.entries == transformed.entries

    def test_mixed_query_ids_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_rank_fusion([base_list(1, ["a"]), base_list(2, ["a"])], 1)


class TestDepthSweep:
    def setup_bundle(self):
        docs = [f"d{i}" for i in range(8)]
        qrels = Qrels({1: {"d3": 1, "d5": 2}, 2: {"d0": 1}})
        base_runs = {1: base_list(1, docs), 2: base_list(2, docs)}
        rng = np.random.default_rng(2)
        features = {
            qid: feature_table({d: float(rng.normal()) for d in docs}, base_runs[qid])
            for qid in (1, 2)
        }
        return qrels, base_runs, features

    def test_three_rows(self):
        qrels, base_runs, features = self.setup_bundle()
        table = depth_sweep(BM25_ONLY, stacked(base_runs.values(), features.values()),
                            [20, 50, 100], qrels)
        assert sorted(table) == [20, 50, 100]
        for row in table.values():
            assert set(row) == {"ndcg@10", "p@5"}

    def test_single_depth_equals_direct_evaluation(self):
        from ranklab.evaluation import ndcg_at_k, precision_at_k

        qrels, base_runs, features = self.setup_bundle()
        table = depth_sweep(BM25_ONLY, stacked(base_runs.values(), features.values()), [4], qrels)
        ndcgs, precs = [], []
        for qid in (1, 2):
            out = rerank_op(BM25_ONLY, base_runs[qid], 4, features[qid])
            ndcgs.append(ndcg_at_k(out, qrels.judgments[qid], 10))
            precs.append(precision_at_k(out, qrels.judgments[qid], 5))
        assert table[4]["ndcg@10"] == pytest.approx(np.mean(ndcgs), abs=1e-12)
        assert table[4]["p@5"] == pytest.approx(np.mean(precs), abs=1e-12)

    def test_rows_match_independent_runs(self):
        qrels, base_runs, features = self.setup_bundle()
        candidates = stacked(base_runs.values(), features.values())
        combined = depth_sweep(BM25_ONLY, candidates, [2, 6], qrels)
        for depth in (2, 6):
            single = depth_sweep(BM25_ONLY, candidates, [depth], qrels)
            assert combined[depth] == single[depth]


class TestFeatureExtractor:
    def test_feature_vector_contents(self, separable):
        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 16, seed=1)
        extractor = FeatureExtractor(
            index, encoder, vocab, build_dense_index(encoder, tokenize_corpus(docs, vocab)))
        query = separable["queries"][0]
        feats = extractor.features(query.processed_terms, docs[0].doc_id)
        assert feats.shape == (6,)
        assert feats[5] == 1.0  # bias
        assert feats[4] == float(len(query.processed_terms))
        assert 0.0 <= feats[2] <= 1.0  # overlap fraction

    def test_overlap_and_matched_idf(self, separable):
        from ranklab.sparse import idf

        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 16, seed=1)
        extractor = FeatureExtractor(
            index, encoder, vocab, build_dense_index(encoder, tokenize_corpus(docs, vocab)))
        doc = docs[0]
        doc_terms = set(doc.text().split())
        present = sorted(doc_terms)[0]
        feats = extractor.features([present, "zzzmissing"], doc.doc_id)
        assert feats[2] == pytest.approx(0.5)
        assert feats[3] == pytest.approx(idf(index, present), abs=1e-12)

    def test_dense_sim_reads_the_given_dense_index(self, separable):
        from ranklab.dense import encode
        from ranklab.subword import tokenize

        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 16, seed=1)
        # an 8-piece truncation gives vectors the default sequence length would not
        dense_index = build_dense_index(encoder, tokenize_corpus(docs, vocab, 8))
        assert not np.allclose(dense_index.vectors,
                               build_dense_index(encoder, tokenize_corpus(docs, vocab)).vectors)
        extractor = FeatureExtractor(index, encoder, vocab, dense_index)
        query = separable["queries"][0]
        qv = encode(encoder, tokenize(" ".join(query.processed_terms), vocab))
        for row in (0, 37, 199):
            feats = extractor.features(query.processed_terms, docs[row].doc_id)
            assert feats[1] == float(np.dot(qv, dense_index.vectors[row]))

    def test_query_vector_uses_max_length(self, separable):
        from ranklab.dense import encode
        from ranklab.subword import tokenize

        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 16, seed=1)
        terms = separable["queries"][0].processed_terms
        query = " ".join(terms)
        assert len(tokenize(query, vocab)) > 2
        qv = encode(encoder, tokenize(query, vocab, 2))
        rows = build_dense_index(encoder, tokenize_corpus(docs, vocab, 2)).vectors
        dense_index = DenseIndex(rows, [d.doc_id for d in docs])
        extractor = FeatureExtractor(index, encoder, vocab, dense_index, max_length=2)
        for row in (0, 37, 199):
            feats = extractor.features(terms, docs[row].doc_id)
            assert feats[1] == float(np.dot(qv, rows[row]))

    def test_dense_index_of_other_documents_is_dependency_error(self, separable):
        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 4, seed=1)
        stale = DenseIndex(np.zeros((len(docs) - 1, 4)), [d.doc_id for d in docs[1:]])
        with pytest.raises(DependencyError, match="rerun train-dense"):
            FeatureExtractor(index, encoder, vocab, stale)


def test_ranker_checkpoint_round_trip(tmp_path):
    ranker = Ranker(np.arange(6, dtype=float))
    path = tmp_path / "ranker.ckpt"
    ranker.save(path)
    loaded = Ranker.load(path)
    np.testing.assert_array_equal(loaded.weights, ranker.weights)
