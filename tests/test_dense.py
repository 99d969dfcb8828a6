import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranklab.dense import (
    DenseEncoder,
    DenseIndex,
    TrainingTriple,
    build_dense_index,
    contrastive_loss,
    dense_search_topk,
    encode,
    similarity,
    train_step,
)
from ranklab.errors import NumericError, ToolkitWarning
from ranklab.subword import tokenize, tokenize_corpus
from ranklab.synthetic import make_separable_corpus
from fixture_triples import make_training_triples, triple_from_texts


def make_encoder(vocab_size=20, dim=6, scale=0.3, seed=11):
    rng = np.random.default_rng(seed)
    return DenseEncoder(rng.normal(0, scale, size=(vocab_size, dim)))


def reference_dense_search_topk(index, encoder, query_ids, k):
    """The former search, kept as the oracle: the whole corpus sorted by
    (-score, doc_id), then cut at k."""
    scores = index.vectors @ encode(encoder, query_ids)
    order = sorted(range(index.doc_count), key=lambda o: (-scores[o], index.doc_ids[o]))
    return tuple((index.doc_ids[o], float(scores[o])) for o in order[:k])


# unique ids that are often prefixes of one another ("d1", "d10", "d1a"),
# non-ASCII, or end in a NUL that numpy's unicode comparison would drop
tricky_doc_ids = st.lists(st.text(alphabet="d1a0\x00\u00e9\u0394", min_size=1, max_size=4),
                          min_size=1, max_size=14, unique=True)
# a few values, signed zeros among them, so scores tie often and -0.0 meets 0.0
few_values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


def random_triples(rng, encoder, n=4, m=3):
    vocab_size = encoder.vocab_size
    triples = []
    for _ in range(n):
        q = tuple(int(i) for i in rng.integers(0, vocab_size, size=3))
        p = tuple(int(i) for i in rng.integers(0, vocab_size, size=4))
        negs = tuple(tuple(int(i) for i in rng.integers(0, vocab_size, size=3)) for _ in range(m))
        triples.append(TrainingTriple(q, p, negs))
    return triples


class TestEncode:
    def test_single_piece_returns_row(self):
        enc = make_encoder()
        np.testing.assert_array_equal(encode(enc, [5]), enc.table[5])

    def test_repeated_piece_mean_idempotent(self):
        enc = make_encoder()
        np.testing.assert_allclose(encode(enc, [3, 3]), enc.table[3], atol=1e-15)

    def test_two_piece_mean(self):
        enc = make_encoder()
        expected = (enc.table[2] + enc.table[7]) / 2
        np.testing.assert_allclose(encode(enc, [2, 7]), expected, atol=1e-15)

    def test_empty_sequence_warns_and_zero(self):
        enc = make_encoder()
        with pytest.warns(ToolkitWarning):
            vec = encode(enc, [])
        assert np.all(vec == 0.0) and vec.shape == (enc.dim,)


class TestSimilarity:
    def test_orthogonal(self):
        assert similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_ones(self):
        assert similarity([1.0, 1.0], [1.0, 1.0]) == 2.0

    def test_matches_independent_dot(self):
        rng = np.random.default_rng(5)
        q, d = rng.normal(size=64), rng.normal(size=64)
        oracle = sum(float(a) * float(b) for a, b in zip(q, d))
        assert similarity(q, d) == pytest.approx(oracle, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            similarity([1.0, 2.0], [1.0, 2.0, 3.0])


class TestContrastiveLoss:
    def test_uniform_ties(self):
        # all pieces identical: every similarity equal, m=3 -> ln(4)
        enc = DenseEncoder(np.ones((4, 3)))
        triple = TrainingTriple((0,), (1,), ((2,), (3,), (0, 1)))
        assert contrastive_loss(enc, triple) == pytest.approx(math.log(4), abs=1e-12)

    def test_hand_value(self):
        # sim(q, d+) = 2, sim(q, d-) = 0 -> ln(1 + e^-2)
        table = np.zeros((3, 2))
        table[0] = [1.0, 1.0]   # query
        table[1] = [1.0, 1.0]   # positive: sim 2
        table[2] = [1.0, -1.0]  # negative: sim 0
        enc = DenseEncoder(table)
        triple = TrainingTriple((0,), (1,), ((2,),))
        assert contrastive_loss(enc, triple) == pytest.approx(
            math.log(1 + math.exp(-2)), abs=1e-9)

    def test_monotone_to_zero_as_margin_grows(self):
        losses = []
        for scale in (1.0, 2.0, 4.0, 8.0):
            table = np.zeros((3, 2))
            table[0] = [scale, 0.0]
            table[1] = [scale, 0.0]
            table[2] = [0.0, 0.0]
            enc = DenseEncoder(table)
            losses.append(contrastive_loss(enc, TrainingTriple((0,), (1,), ((2,),))))
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-10

    def test_positive_for_finite_params(self):
        rng = np.random.default_rng(3)
        enc = make_encoder()
        for triple in random_triples(rng, enc, n=10):
            assert contrastive_loss(enc, triple) > 0.0

    def test_softmax_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        enc = make_encoder()
        for triple in random_triples(rng, enc, n=5):
            qv = encode(enc, triple.query_ids)
            sims = [similarity(qv, encode(enc, triple.positive_ids))]
            sims += [similarity(qv, encode(enc, n)) for n in triple.negative_ids]
            sims = np.array(sims)
            probs = np.exp(sims - sims.max())
            probs /= probs.sum()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrainingTriple:
    def test_requires_negative(self):
        with pytest.raises(ValueError):
            TrainingTriple((0,), (1,), ())

    def test_positive_not_among_negatives(self):
        with pytest.raises(ValueError):
            TrainingTriple((0,), (1, 2), ((1, 2),))


class TestTrainStep:
    def test_zero_rate_leaves_parameters(self):
        rng = np.random.default_rng(8)
        enc = make_encoder()
        before = enc.table.copy()
        train_step(enc, random_triples(rng, enc), 0.0)
        np.testing.assert_array_equal(enc.table, before)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        enc = make_encoder()
        batch = random_triples(rng, enc)

        def mean_loss(e):
            return float(np.mean([contrastive_loss(e, t) for t in batch]))

        stepped = enc.copy()
        train_step(stepped, batch, 1.0)
        grad = enc.table - stepped.table

        eps = 1e-5
        for _ in range(20):
            i = int(rng.integers(enc.vocab_size))
            j = int(rng.integers(enc.dim))
            plus, minus = enc.copy(), enc.copy()
            plus.table[i, j] += eps
            minus.table[i, j] -= eps
            fd = (mean_loss(plus) - mean_loss(minus)) / (2 * eps)
            assert abs(fd - grad[i, j]) <= 1e-4 * max(abs(fd), abs(grad[i, j]), 1e-7)

    def test_small_rate_descends(self):
        rng = np.random.default_rng(2)
        enc = make_encoder()
        triple = random_triples(rng, enc, n=1)[0]
        before = contrastive_loss(enc, triple)
        train_step(enc, [triple], 1e-2)
        assert contrastive_loss(enc, triple) <= before

    def test_an_encoder_does_not_share_the_callers_array(self):
        """Two encoders built from one table train apart, a step leaves the table as it
        was, and a copy trains apart from its original."""
        rng = np.random.default_rng(4)
        table = rng.normal(0, 0.3, size=(20, 6))
        before = table.copy()
        first, second = DenseEncoder(table), DenseEncoder(table)
        train_step(first, random_triples(rng, first), 0.5)
        assert table.tobytes() == before.tobytes()
        assert second.table.tobytes() == before.tobytes()
        assert first.table.tobytes() != before.tobytes()
        stepped, copy = first.table.copy(), first.copy()
        train_step(copy, random_triples(rng, copy), 0.5)
        assert first.table.tobytes() == stepped.tobytes()
        assert copy.table.tobytes() != stepped.tobytes()


class TestDenseIndexAndSearch:
    def test_single_doc_single_row(self, separable):
        doc = separable["docs"][0]
        vocab = separable["vocab"]
        enc = DenseEncoder.init(len(vocab), 16, seed=0)
        index = build_dense_index(enc, tokenize_corpus([doc], vocab))
        assert index.vectors.shape == (1, 16)

    def test_rebuild_identical(self, separable):
        vocab = separable["vocab"]
        docs = separable["docs"][:10]
        enc = DenseEncoder.init(len(vocab), 16, seed=0)
        a = build_dense_index(enc, tokenize_corpus(docs, vocab))
        b = build_dense_index(enc, tokenize_corpus(docs, vocab))
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_rows_match_per_doc_encode(self, separable):
        vocab = separable["vocab"]
        docs = separable["docs"][:10]
        enc = DenseEncoder.init(len(vocab), 16, seed=0)
        index = build_dense_index(enc, tokenize_corpus(docs, vocab))
        for row, doc in enumerate(docs):
            expected = encode(enc, tokenize(doc.text(), vocab))
            np.testing.assert_allclose(index.vectors[row], expected, atol=1e-15)

    def test_search_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(21)
        dim = 8
        for _ in range(10):
            n = 50
            vectors = rng.normal(size=(n, dim))
            doc_ids = [f"d{i:02d}" for i in range(n)]
            index = DenseIndex(vectors, doc_ids)
            enc = DenseEncoder(rng.normal(size=(4, dim)))
            query = (0, 2)
            got = dense_search_topk(index, enc, query, 10)
            qv = encode(enc, query)
            scores = {doc_ids[i]: float(np.dot(vectors[i], qv)) for i in range(n)}
            expected = sorted(scores, key=lambda d: (-scores[d], d))[:10]
            assert got.doc_ids() == expected

    def test_duplicate_vectors_tie_by_doc_id(self):
        vectors = np.ones((3, 2))
        index = DenseIndex(vectors, ["c", "a", "b"])
        enc = DenseEncoder(np.ones((1, 2)))
        out = dense_search_topk(index, enc, (0,), 3)
        assert out.doc_ids() == ["a", "b", "c"]

    def test_k_equals_doc_count_returns_all_sorted(self, separable):
        vocab = separable["vocab"]
        docs = separable["docs"][:20]
        enc = DenseEncoder.init(len(vocab), 16, seed=1)
        index = build_dense_index(enc, tokenize_corpus(docs, vocab))
        out = dense_search_topk(index, enc, tokenize(docs[0].text(), vocab), 20)
        assert len(out.entries) == 20
        scores = [s for _, s in out.entries]
        assert scores == sorted(scores, reverse=True)

    def test_scaling_preserves_order_and_squares_similarity(self, separable):
        vocab = separable["vocab"]
        docs = separable["docs"][:30]
        enc = DenseEncoder.init(len(vocab), 16, seed=2)
        query = tokenize(docs[3].text(), vocab)
        base_index = build_dense_index(enc, tokenize_corpus(docs, vocab))
        base = dense_search_topk(base_index, enc, query, 30)
        scaled_enc = DenseEncoder(enc.table * 2.0)
        scaled_index = build_dense_index(scaled_enc, tokenize_corpus(docs, vocab))
        scaled = dense_search_topk(scaled_index, scaled_enc, query, 30)
        assert scaled.doc_ids() == base.doc_ids()
        for (_, s_base), (_, s_scaled) in zip(base.entries, scaled.entries):
            assert s_scaled == pytest.approx(4.0 * s_base, rel=1e-9)

    def test_dim_mismatch_rejected(self):
        index = DenseIndex(np.ones((2, 3)), ["a", "b"])
        enc = DenseEncoder(np.ones((2, 4)))
        with pytest.raises(ValueError):
            dense_search_topk(index, enc, (0,), 1)

    @given(tricky_doc_ids, st.integers(1, 2), st.data())
    def test_matches_former_full_sort(self, doc_ids, dim, data):
        n = len(doc_ids)
        vectors = data.draw(st.lists(few_values, min_size=n * dim, max_size=n * dim))
        index = DenseIndex(np.reshape(vectors, (n, dim)), doc_ids)
        # row 0 is all zeros, so query (0,) scores every document 0
        rows = data.draw(st.lists(few_values, min_size=2 * dim, max_size=2 * dim))
        enc = DenseEncoder(np.vstack([np.zeros(dim), np.reshape(rows, (2, dim))]))
        query = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        for query_ids in (query, [0]):
            for k in range(1, n + 3):
                expected = reference_dense_search_topk(index, enc, query_ids, k)
                got = dense_search_topk(index, enc, query_ids, k)
                assert got.entries == expected, (query_ids, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_non_finite_score_is_numeric_error(self, bad, k):
        vectors = np.ones((4, 2))
        vectors[2] = [bad, 1.0]
        index = DenseIndex(vectors, ["a", "b", "c", "d"])
        with pytest.raises(NumericError, match="non-finite"):
            dense_search_topk(index, DenseEncoder(np.ones((1, 2))), (0,), k)


class TestPersistence:
    def test_encoder_round_trip(self, tmp_path):
        enc = make_encoder()
        path = tmp_path / "enc.ckpt"
        enc.save(path)
        loaded = DenseEncoder.load(path)
        np.testing.assert_array_equal(loaded.table, enc.table)

    def test_dense_index_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        index = DenseIndex(rng.normal(size=(5, 4)), [f"d{i}" for i in range(5)])
        path = tmp_path / "idx.bin"
        index.save(path)
        loaded = DenseIndex.load(path)
        np.testing.assert_array_equal(loaded.vectors, index.vectors)
        assert loaded.doc_ids == index.doc_ids

    def test_kind_checked(self, tmp_path):
        enc = make_encoder()
        path = tmp_path / "enc.ckpt"
        enc.save(path)
        from ranklab.errors import ConfigError
        with pytest.raises(ConfigError):
            DenseIndex.load(path)


def test_separable_fixture_learns():
    """Training run on the shipped fixture reaches high recall@10."""
    docs, queries, qrels = make_separable_corpus()
    from ranklab.subword import train_subword_vocab

    vocab = train_subword_vocab([d.text() for d in docs], 2000)
    triples = [triple_from_texts(q, p, negs, vocab)
               for q, p, negs in make_training_triples(docs, queries, qrels)]
    enc = DenseEncoder.init(len(vocab), 64, seed=3)
    rng = np.random.default_rng(5)
    order = np.arange(len(triples))
    for _ in range(60):
        rng.shuffle(order)
        for start in range(0, len(order), 16):
            train_step(enc, [triples[i] for i in order[start:start + 16]], 0.5)
    index = build_dense_index(enc, tokenize_corpus(docs, vocab))
    recalls = []
    for query in queries:
        ids = tokenize(" ".join(query.processed_terms), vocab)
        out = dense_search_topk(index, enc, ids, 10, query.query_id)
        relevant = qrels.relevant_docs(query.query_id)
        recalls.append(len(relevant & set(out.doc_ids())) / min(len(relevant), 10))
    assert np.mean(recalls) >= 0.9
