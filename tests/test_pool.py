"""dense.pool and dense.pool_grad against the per-sequence loops they replaced.

The former loops are kept here as oracles: build_dense_index's one `encode`
per document, the former train_step's per-triple `encode`s and `similarity`s
and its `_accumulate` (one `+=` per piece id), the former per-triple
contrastive loss, and the masked-language step's per-sequence context means
and per-sequence `np.add.at` scatter. Every comparison is bit for bit.

dense.pool_grad returns the rows its sequences touch and their gradient; the
`pool_grad` helper here scatters them into a zero table, the full gradient the
oracles build.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranklab import dense
from ranklab.corpus import Document
from ranklab.dense import (
    DenseEncoder,
    TrainingTriple,
    build_dense_index,
    contrastive_loss,
    encode,
    pool,
    similarity,
    train_step,
)
from ranklab.errors import NumericError, ToolkitWarning
from ranklab.mlm import make_masked_batch
from ranklab.subword import tokenize, tokenize_corpus

VOCAB = 40


def pool_grad(shape, sequences, row_grads, lengths=None):
    """The full `shape` table gradient: dense.pool_grad's rows, every other row 0.0."""
    rows, grad = dense.pool_grad(shape, sequences, row_grads, lengths)
    table = np.zeros(shape)
    table[rows] = grad
    return table


# -- the former loops -------------------------------------------------------

def reference_build_dense_index_vectors(encoder, docs, vocab, max_length):
    vectors = np.zeros((len(docs), encoder.dim))
    for row, doc in enumerate(docs):
        ids = tokenize(doc.text(), vocab, max_length)
        if ids:
            vectors[row] = encode(encoder, ids)
    return vectors


def reference_accumulate(grad, ids, vec):
    if not ids:
        return
    contribution = vec / len(ids)
    for i in ids:
        grad[i] += contribution


def reference_triple_similarities(encoder, triple):
    qv = encode(encoder, triple.query_ids)
    pv = encode(encoder, triple.positive_ids)
    nvs = [encode(encoder, n) for n in triple.negative_ids]
    sims = np.array([similarity(qv, pv)] + [similarity(qv, nv) for nv in nvs])
    return qv, pv, nvs, sims


def reference_contrastive_loss(encoder, triple):
    _, _, _, sims = reference_triple_similarities(encoder, triple)
    if not np.all(np.isfinite(sims)):
        raise NumericError("non-finite similarity in contrastive loss")
    shift = sims.max()
    return float(np.log(np.exp(sims - shift).sum()) + shift - sims[0])


def reference_train_step(encoder, batch, learning_rate):
    grad = np.zeros_like(encoder.table)
    total_loss = 0.0
    scale = 1.0 / len(batch)
    for triple in batch:
        qv, pv, nvs, sims = reference_triple_similarities(encoder, triple)
        if not np.all(np.isfinite(sims)):
            raise NumericError("non-finite similarity during training")
        shift = sims.max()
        exp = np.exp(sims - shift)
        probs = exp / exp.sum()
        total_loss += float(np.log(exp.sum()) + shift - sims[0])
        dsims = probs.copy()
        dsims[0] -= 1.0
        dq = dsims[0] * pv + sum(d * nv for d, nv in zip(dsims[1:], nvs))
        reference_accumulate(grad, triple.query_ids, scale * dq)
        reference_accumulate(grad, triple.positive_ids, scale * dsims[0] * qv)
        for d, ids in zip(dsims[1:], triple.negative_ids):
            reference_accumulate(grad, ids, scale * d * qv)
    encoder.table -= learning_rate * grad
    return encoder, total_loss * scale


def reference_mlm_contexts(embeddings, context_ids):
    contexts = np.zeros((len(context_ids), embeddings.shape[1]))
    for s, ids in enumerate(context_ids):
        if ids:
            contexts[s] = embeddings[ids].mean(axis=0)
    return contexts


def reference_mlm_scatter(embeddings, context_ids, grad_contexts):
    grad_emb = np.zeros_like(embeddings)
    for ids, grad_context in zip(context_ids, grad_contexts):
        if ids:
            np.add.at(grad_emb, ids, grad_context / len(ids))
    return grad_emb


# -- inputs -----------------------------------------------------------------

piece = st.integers(0, VOCAB - 1)
sequence = st.one_of(
    st.just([]),
    piece.map(lambda i: [i]),
    st.tuples(piece, st.integers(2, 256)).map(lambda t: [t[0]] * t[1]),
    st.lists(piece, max_size=256),
)
sequences = st.lists(sequence, min_size=1, max_size=12)


def random_table(seed, dim, vocab=VOCAB):
    """Rows of mixed magnitude, so the order of additions shows in the bits;
    one row is all -0.0, which numpy's mean adds to 0.0 and so returns as 0.0."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(vocab, dim)) * 10.0 ** rng.uniform(-6, 6, size=(vocab, dim))
    table[3] = -0.0
    return table


# -- pool -------------------------------------------------------------------

@given(sequences, st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_pool_is_the_per_sequence_mean(seqs, dim, seed):
    table = random_table(seed, dim)
    expected = reference_mlm_contexts(table, seqs)
    assert pool(table, seqs).tobytes() == expected.tobytes()
    assert pool(table, [tuple(s) for s in seqs]).tobytes() == expected.tobytes()


def test_pool_of_a_one_column_table_is_close_to_the_mean():
    # numpy sums a one-column block pairwise, pool sums in sequence order
    table = random_table(5, 1)
    seqs = [list(range(VOCAB)) * 3, [7, 9], []]
    np.testing.assert_allclose(pool(table, seqs), reference_mlm_contexts(table, seqs),
                               rtol=1e-12, atol=0)


def test_pool_of_no_sequences_is_empty():
    assert pool(random_table(0, 3), []).shape == (0, 3)


def test_build_dense_index_matches_per_document_encode(separable):
    docs = separable["docs"] + [Document("empty", "", "")]
    vocab = separable["vocab"]
    encoder = DenseEncoder(random_table(8, 6, len(vocab)))
    for max_length in (1, 7, 256):
        index = build_dense_index(encoder, tokenize_corpus(docs, vocab, max_length))
        expected = reference_build_dense_index_vectors(encoder, docs, vocab, max_length)
        assert index.vectors.tobytes() == expected.tobytes()
        assert index.doc_ids == [d.doc_id for d in docs]
    assert not index.vectors[-1].any()


# -- pool_grad --------------------------------------------------------------

@given(sequences, st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_pool_grad_is_the_per_id_scatter(seqs, dim, seed):
    rng = np.random.default_rng(seed)
    row_grads = rng.normal(size=(len(seqs), dim)) * 10.0 ** rng.uniform(-6, 6, (len(seqs), dim))
    accumulated = np.zeros((VOCAB, dim))
    for ids, vec in zip(seqs, row_grads):
        reference_accumulate(accumulated, ids, vec)
    scattered = reference_mlm_scatter(np.zeros((VOCAB, dim)), seqs, row_grads)
    got = pool_grad((VOCAB, dim), seqs, row_grads)
    assert got.tobytes() == accumulated.tobytes() == scattered.tobytes()
    assert pool_grad((VOCAB, dim), seqs, list(row_grads)).tobytes() == got.tobytes()


def test_pool_grad_of_no_sequences_is_zero():
    assert not pool_grad((VOCAB, 3), [], []).any()


@given(sequences, st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_pool_grad_rows_are_the_touched_rows_of_the_per_id_scatter(seqs, dim, seed):
    rng = np.random.default_rng(seed)
    row_grads = rng.normal(size=(len(seqs), dim)) * 10.0 ** rng.uniform(-6, 6, (len(seqs), dim))
    accumulated = np.zeros((VOCAB, dim))
    for ids, vec in zip(seqs, row_grads):
        reference_accumulate(accumulated, ids, vec)
    rows, grad = dense.pool_grad((VOCAB, dim), seqs, row_grads)
    assert rows.tolist() == sorted({i for s in seqs for i in s})
    assert grad.shape == (len(rows), dim)
    assert grad.tobytes() == accumulated[rows].tobytes()


def test_masked_batch_contexts_and_scatter_match_the_former_loops():
    rng = np.random.default_rng(4)
    seqs = [rng.integers(1, VOCAB, size=int(rng.integers(1, 30))).tolist() for _ in range(60)]
    seqs.append([5])  # fully masked: its context is empty
    batch = make_masked_batch(seqs, 0, 0.15, rng=5)
    context_ids = [[i for p, i in enumerate(s.ids) if p not in {q for q, _ in s.targets}]
                   for s in batch.sequences]
    assert [] in context_ids
    embeddings = random_table(6, 8)
    contexts = pool(embeddings, context_ids)
    assert contexts.tobytes() == reference_mlm_contexts(embeddings, context_ids).tobytes()
    grad_contexts = rng.normal(size=contexts.shape)
    assert (pool_grad(embeddings.shape, context_ids, grad_contexts).tobytes()
            == reference_mlm_scatter(embeddings, context_ids, grad_contexts).tobytes())


# -- train_step -------------------------------------------------------------

triples = st.builds(
    lambda q, p, negs: TrainingTriple(tuple(q), tuple(p), tuple(map(tuple, negs))),
    sequence, st.lists(piece, min_size=1, max_size=20).map(lambda p: [0, *p]),
    st.lists(st.lists(piece, max_size=20).map(lambda n: [1, *n]), min_size=1, max_size=4),
)


@given(st.lists(triples, min_size=1, max_size=5), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_train_step_matches_the_accumulate_loop(batch, dim, seed):
    table = np.random.default_rng(seed).normal(0, 0.3, size=(VOCAB, dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        got, loss = train_step(DenseEncoder(table.copy()), batch, 0.5)
        expected, expected_loss = reference_train_step(DenseEncoder(table.copy()), batch, 0.5)
    assert got.table.tobytes() == expected.table.tobytes()
    assert loss == expected_loss


@given(triples, st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_contrastive_loss_matches_the_per_triple_loss(triple, dim, seed):
    # the strategy draws one to four negatives of ragged lengths
    table = np.random.default_rng(seed).normal(0, 0.3, size=(VOCAB, dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        loss = contrastive_loss(DenseEncoder(table), triple)
        assert loss == reference_contrastive_loss(DenseEncoder(table), triple)
    assert isinstance(loss, float)


@given(st.lists(triples, min_size=1, max_size=5), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_train_step_leaves_every_untouched_row_as_it_was(batch, dim, seed):
    table = np.random.default_rng(seed).normal(0, 0.3, size=(VOCAB, dim))
    table[VOCAB - 1] = -0.0  # stays -0.0: no step subtracts a 0.0 gradient from it
    touched = {i for t in batch for s in (t.query_ids, t.positive_ids, *t.negative_ids) for i in s}
    untouched = [i for i in range(VOCAB) if i not in touched]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        got, _ = train_step(DenseEncoder(table.copy()), batch, 0.5)
    assert got.table[untouched].tobytes() == table[untouched].tobytes()


def test_train_step_with_an_empty_query_leaves_no_query_gradient():
    table = np.random.default_rng(2).normal(0, 0.3, size=(VOCAB, 4))
    batch = [TrainingTriple((), (4, 5, 5), ((6,), (7, 8))),
             TrainingTriple((9, 9), (10,), ((11, 12),))]
    with pytest.warns(ToolkitWarning):
        got, loss = train_step(DenseEncoder(table.copy()), batch, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        expected, expected_loss = reference_train_step(DenseEncoder(table.copy()), batch, 1.0)
    assert got.table.tobytes() == expected.table.tobytes() and loss == expected_loss
    # the empty query pools to zeros, so the first triple's documents get no gradient
    assert (got.table[[4, 5, 6, 7, 8]] == table[[4, 5, 6, 7, 8]]).all()
