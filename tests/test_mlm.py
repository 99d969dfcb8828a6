import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranklab.dense import DenseEncoder, encode
from ranklab.errors import NumericError, ToolkitWarning
from ranklab.mlm import (
    SEQ_CHUNK,
    MaskedBatch,
    MaskedSequence,
    MlmModel,
    make_masked_batch,
    mask_tokens,
    masked_prediction_loss,
    mlm_train_step,
    warm_start,
)

MASK = 0


def _reference_loss_and_grads(model, batch):
    """One softmax per masked target: the loop the batched step must match."""
    targets = [(s, orig) for s, seq in enumerate(batch.sequences) for _, orig in seq.targets]
    contexts = []
    for seq in batch.sequences:
        masked_positions = {p for p, _ in seq.targets}
        context_ids = [i for p, i in enumerate(seq.ids) if p not in masked_positions]
        if context_ids:
            contexts.append((context_ids, model.embeddings[context_ids].mean(axis=0)))
        else:
            contexts.append(([], np.zeros(model.dim)))
    grad_emb = np.zeros_like(model.embeddings)
    grad_out = np.zeros_like(model.output_weights)
    total = 0.0
    scale = 1.0 / len(targets)
    for seq_idx, original in targets:
        context_ids, c = contexts[seq_idx]
        logits = model.output_weights @ c
        shift = logits.max()
        exp = np.exp(logits - shift)
        total += float(np.log(exp.sum()) + shift - logits[original])
        dlogits = exp / exp.sum()
        dlogits[original] -= 1.0
        grad_out += scale * np.outer(dlogits, c)
        if context_ids:
            dc = scale * (model.output_weights.T @ dlogits) / len(context_ids)
            for i in context_ids:
                grad_emb[i] += dc
    return total * scale, grad_emb, grad_out


def _batch(sequences):
    """The MaskedBatch whose `.sequences` are the given MaskedSequences."""
    sequences = list(sequences)
    targets = [t for seq in sequences for t in seq.targets]
    return MaskedBatch(np.array([i for seq in sequences for i in seq.ids], dtype=np.intp),
                       np.array([len(seq.ids) for seq in sequences], dtype=np.intp),
                       np.array([len(seq.targets) for seq in sequences], dtype=np.intp),
                       np.array([p for p, _ in targets], dtype=np.intp),
                       np.array([i for _, i in targets], dtype=np.intp))


def _perturbed_model(vocab_size, dim, seed=1):
    """A model off the zero-output-weight start, so both tables get gradients."""
    model = MlmModel.init(vocab_size, dim, seed=seed)
    model.output_weights += np.random.default_rng(seed).normal(
        0, 0.3, size=model.output_weights.shape)
    return model


class TestMaskTokens:
    def test_fifteen_of_one_hundred(self):
        out = mask_tokens(list(range(2, 102)), MASK, 0.15, rng=0)
        assert len(out.targets) == 15

    def test_minimum_one(self):
        out = mask_tokens([5], MASK, 0.15, rng=0)
        assert len(out.targets) == 1
        assert out.ids == (MASK,)

    def test_rounded_count_across_lengths(self):
        for n in range(1, 257):
            out = mask_tokens(list(range(2, 2 + n)), MASK, 0.15, rng=1)
            assert len(out.targets) == max(1, round(0.15 * n)), n

    def test_positions_distinct_and_rest_unchanged(self):
        ids = list(range(2, 42))
        out = mask_tokens(ids, MASK, 0.15, rng=3)
        positions = [p for p, _ in out.targets]
        assert len(positions) == len(set(positions))
        for pos, value in enumerate(out.ids):
            if pos in positions:
                assert value == MASK
            else:
                assert value == ids[pos]
        for pos, original in out.targets:
            assert original == ids[pos]

    def test_empirical_frequency_near_uniform(self):
        rng = np.random.default_rng(9)
        counts = np.zeros(20)
        draws = 2000  # full 10k-draw check lives in the acceptance suite
        for _ in range(draws):
            out = mask_tokens(list(range(2, 22)), MASK, 0.15, rng=rng)
            for p, _ in out.targets:
                counts[p] += 1
        freq = counts / draws
        assert np.abs(freq - 0.15).max() < 0.03

    def test_empty_sequence_skipped_with_warning(self):
        with pytest.warns(ToolkitWarning):
            assert mask_tokens([], MASK, 0.15, rng=0) is None

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            mask_tokens([1, 2], MASK, 0.0, rng=0)

    def test_deterministic_given_seed(self):
        a = mask_tokens(list(range(2, 30)), MASK, 0.15, rng=42)
        b = mask_tokens(list(range(2, 30)), MASK, 0.15, rng=42)
        assert a == b


def _choice_sequences(sequences, mask_rate, rng):
    """Masking one sequence at a time, with one Generator.choice each."""
    out = []
    for ids in sequences:
        if not ids:
            continue
        positions = sorted(rng.choice(len(ids), size=max(1, round(mask_rate * len(ids))),
                                      replace=False).tolist())
        masked = list(ids)
        for p in positions:
            masked[p] = MASK
        out.append(MaskedSequence(tuple(masked), tuple((p, ids[p]) for p in positions)))
    return tuple(out)


class TestMaskedBatch:
    @settings(max_examples=80, deadline=None)
    @given(lengths=st.lists(st.one_of(st.integers(0, 40), st.integers(1, 10_000)), max_size=6),
           mask_rate=st.floats(0.001, 0.99), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[1, 0, 3, 0, 0, 50], mask_rate=0.99, seed=0)  # k = n; empty sequences between
    @example(lengths=[10_000, 1, 7], mask_rate=0.001, seed=1)  # k = 1 but for the longest
    @example(lengths=[10_000], mask_rate=0.99, seed=2)
    def test_draws_as_one_choice_per_sequence(self, lengths, mask_rate, seed):
        ids = np.random.default_rng(seed).integers(1, 500, size=sum(lengths))
        sequences = [ids[e - n:e].tolist() for e, n in zip(np.cumsum(lengths).tolist(), lengths)]
        reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _choice_sequences(sequences, mask_rate, reference)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = make_masked_batch(sequences, MASK, mask_rate, rng)
            flat = make_masked_batch(ids, MASK, mask_rate, seed, lengths=lengths)
        assert [w.category for w in caught] == [ToolkitWarning] * (2 * lengths.count(0))
        assert batch.sequences == flat.sequences == expected
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_sequences_round_trip_through_the_flat_arrays(self):
        rng = np.random.default_rng(11)
        seqs = [rng.integers(1, 40, size=int(rng.integers(1, 30))).tolist() for _ in range(50)]
        batch = make_masked_batch(seqs, MASK, 0.15, rng=12)
        again = _batch(batch.sequences)
        for field in ("ids", "lengths", "counts", "positions", "target_ids"):
            np.testing.assert_array_equal(getattr(again, field), getattr(batch, field))
        assert again.sequences == batch.sequences


class TestMlmTraining:
    def fixture_batch(self, rng=7):
        seqs = [[2, 3, 4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14]]
        return make_masked_batch(seqs, MASK, 0.15, rng=rng)

    def test_initial_loss_is_ln_vocab(self):
        model = MlmModel.init(30, 8, seed=1)
        batch = self.fixture_batch()
        assert masked_prediction_loss(model, batch) == pytest.approx(
            math.log(30), abs=1e-9)

    def test_a_model_does_not_share_the_callers_arrays(self):
        """Two models built from one pair of tables train apart, steps leave the tables as
        they were, and a copy trains apart from its original. From zero output weights the
        first step's embedding gradient is zero, so two steps are taken to move both tables."""
        embeddings, output_weights = MlmModel.init(30, 8, seed=1).embeddings, np.zeros((30, 8))
        before = embeddings.tobytes(), output_weights.tobytes()
        first, second = MlmModel(embeddings, output_weights), MlmModel(embeddings, output_weights)
        batch = self.fixture_batch()
        for _ in range(2):
            mlm_train_step(first, batch, 0.5)
        assert (embeddings.tobytes(), output_weights.tobytes()) == before
        assert (second.embeddings.tobytes(), second.output_weights.tobytes()) == before
        assert first.embeddings.tobytes() != before[0]
        assert first.output_weights.tobytes() != before[1]
        stepped, copy = (first.embeddings.tobytes(), first.output_weights.tobytes()), first.copy()
        mlm_train_step(copy, batch, 0.5)
        assert (first.embeddings.tobytes(), first.output_weights.tobytes()) == stepped
        assert copy.embeddings.tobytes() != stepped[0]
        assert copy.output_weights.tobytes() != stepped[1]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        model = MlmModel.init(30, 8, seed=1)
        # move off the zero-output-weight point so both tables get gradients
        model.output_weights += rng.normal(0, 0.2, size=model.output_weights.shape)
        batch = self.fixture_batch()

        stepped = model.copy()
        mlm_train_step(stepped, batch, 1.0)
        grad_emb = model.embeddings - stepped.embeddings
        grad_out = model.output_weights - stepped.output_weights

        eps = 1e-5
        for _ in range(20):
            table = int(rng.integers(2))
            i = int(rng.integers(30))
            j = int(rng.integers(8))
            plus, minus = model.copy(), model.copy()
            for target, sign in ((plus, eps), (minus, -eps)):
                (target.embeddings if table == 0 else target.output_weights)[i, j] += sign
            fd = (masked_prediction_loss(plus, batch)
                  - masked_prediction_loss(minus, batch)) / (2 * eps)
            analytic = (grad_emb if table == 0 else grad_out)[i, j]
            assert abs(fd - analytic) <= 1e-4 * max(abs(fd), abs(analytic), 1e-7)

    def test_descends_below_initial_on_fixed_batch(self):
        model = MlmModel.init(30, 8, seed=1)
        batch = self.fixture_batch()
        initial = masked_prediction_loss(model, batch)
        assert initial == pytest.approx(math.log(30), abs=1e-9)
        loss = initial
        for _ in range(50):
            model, loss = mlm_train_step(model, batch, 0.5)
        assert loss < initial

    def test_softmax_probabilities_sum_to_one(self):
        model = MlmModel.init(30, 8, seed=2)
        rng = np.random.default_rng(1)
        model.output_weights += rng.normal(0, 0.5, size=model.output_weights.shape)
        context = model.embeddings[[3, 4, 5]].mean(axis=0)
        logits = model.output_weights @ context
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_training_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            model = MlmModel.init(30, 8, seed=5)
            rng = np.random.default_rng(17)
            seqs = [[2, 3, 4, 5, 6], [7, 8, 9, 10]]
            for _ in range(10):
                batch = make_masked_batch(seqs, MASK, 0.15, rng=rng)
                model, _ = mlm_train_step(model, batch, 0.3)
            results.append((model.embeddings.copy(), model.output_weights.copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])


class TestBatchedStep:
    @staticmethod
    def repeated_ids_batch():
        return _batch((
            MaskedSequence((4, MASK, 4, 9, 4, MASK, 9), ((1, 9), (5, 4))),
            MaskedSequence((7, 7, MASK, 7), ((2, 3),)),
        ))

    @staticmethod
    def empty_context_batch():
        return _batch((
            MaskedSequence((MASK,), ((0, 5),)),
            MaskedSequence((2, 3, MASK, 11), ((2, 8),)),
        ))

    @staticmethod
    def multi_chunk_batch():
        rng = np.random.default_rng(4)
        seqs = [rng.integers(1, 40, size=int(rng.integers(1, 30))).tolist() for _ in range(60)]
        batch = make_masked_batch(seqs, MASK, 0.15, rng=5)
        assert sum(len(s.targets) for s in batch.sequences) > 2 * SEQ_CHUNK
        return batch

    @staticmethod
    def multi_seq_chunk_batch():
        rng = np.random.default_rng(6)
        seqs = [rng.integers(1, 40, size=int(rng.integers(1, 30))).tolist()
                for _ in range(2 * SEQ_CHUNK + 17)]
        masked = list(make_masked_batch(seqs, MASK, 0.15, rng=7).sequences)
        # the first chunk ends on one target id repeated, the second opens fully masked
        masked[SEQ_CHUNK - 1] = MaskedSequence((MASK, 5, MASK, 5, MASK),
                                               ((0, 12), (2, 12), (4, 12)))
        masked[SEQ_CHUNK] = MaskedSequence((MASK, MASK), ((0, 3), (1, 9)))
        assert len(masked) > 2 * SEQ_CHUNK and len(masked) % SEQ_CHUNK
        return _batch(masked)

    @pytest.mark.parametrize("make_batch", ["repeated_ids_batch", "empty_context_batch",
                                            "multi_chunk_batch", "multi_seq_chunk_batch"])
    def test_matches_per_target_reference(self, make_batch):
        batch = getattr(self, make_batch)()
        model = _perturbed_model(40, 8)
        ref_loss, ref_emb, ref_out = _reference_loss_and_grads(model, batch)

        assert masked_prediction_loss(model, batch) == pytest.approx(ref_loss, rel=1e-12)
        stepped, loss = mlm_train_step(model.copy(), batch, 1.0)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(model.embeddings - stepped.embeddings, ref_emb,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(model.output_weights - stepped.output_weights, ref_out,
                                   rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        model = MlmModel.init(10, 4)
        with pytest.raises(ValueError):
            masked_prediction_loss(model, _batch(()))
        with pytest.raises(ValueError):
            mlm_train_step(model, _batch(()), 0.5)

    def test_peak_memory_bounded_by_chunk(self):
        vocab_size, dim = 1400, 64
        rng = np.random.default_rng(2)
        seqs = [rng.integers(1, vocab_size, size=27).tolist() for _ in range(2000)]
        batch = make_masked_batch(seqs, MASK, 0.15, rng=3)
        assert sum(len(s.targets) for s in batch.sequences) == 8000
        model = _perturbed_model(vocab_size, dim)
        tracemalloc.start()
        try:
            mlm_train_step(model, batch, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a targets x vocab logits array alone would take 85 MiB here
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_output_weights_raise(self, bad):
        model = _perturbed_model(30, 8)
        model.output_weights[3, 2] = bad
        batch = TestMlmTraining().fixture_batch()
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericError):
            masked_prediction_loss(model, batch)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericError):
            mlm_train_step(model, batch, 0.5)


class TestWarmStart:
    def test_copy_through(self):
        encoder = DenseEncoder.init(12, 4, seed=0)
        pretrained = np.random.default_rng(1).normal(size=(12, 4))
        warmed = warm_start(encoder, pretrained)
        np.testing.assert_array_equal(warmed.table, pretrained)

    def test_the_warmed_encoder_owns_its_table(self):
        pretrained = np.random.default_rng(1).normal(size=(12, 4))
        warmed = warm_start(DenseEncoder.init(12, 4, seed=0), pretrained)
        assert not np.shares_memory(warmed.table, pretrained)

    def test_mismatched_dim_rejected(self):
        encoder = DenseEncoder.init(12, 4, seed=0)
        with pytest.raises(ValueError):
            warm_start(encoder, np.zeros((12, 5)))
        with pytest.raises(ValueError):
            warm_start(encoder, np.zeros((11, 4)))

    def test_encode_equals_mean_pool_of_pretrained(self):
        encoder = DenseEncoder.init(12, 4, seed=0)
        model = MlmModel.init(12, 4, seed=3)
        warmed = warm_start(encoder, model.embeddings)
        ids = [2, 5, 7]
        np.testing.assert_allclose(
            encode(warmed, ids), model.embeddings[ids].mean(axis=0), atol=1e-15)

    def test_checkpoint_round_trip_via_encoder_format(self, tmp_path):
        model = MlmModel.init(12, 4, seed=3)
        path = tmp_path / "emb.ckpt"
        model.save_embeddings(path)
        loaded = DenseEncoder.load(path)
        np.testing.assert_array_equal(loaded.table, model.embeddings)
