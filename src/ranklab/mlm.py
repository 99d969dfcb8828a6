"""Domain-adaptive masked-language pretraining at desk scale.

Each sequence has round(mask_rate * length) positions (minimum 1) replaced by
the MASK piece. Each masked piece is predicted from the mean embedding of the
sequence's unmasked positions through a full softmax over the vocabulary. The
trained embedding table warm-starts the dense encoder.

A MaskedBatch holds its sequences flat, in arrays. make_masked_batch draws a
whole batch with one Generator.integers call: for each sequence in turn, the
k draws of Floyd's sampling (Bentley & Floyd, CACM 1987) from [0, n-k], ...,
[0, n-1], then k-1 draws from [0, k-1], ..., [0, 1] whose values are unused.
For n <= 10,000 that is the stream, and the sorted positions, of
Generator.choice(n, k, replace=False) on each sequence in turn, shuffle draws
included; from n = 10,001 on, choice shuffles instead, so a longer sequence
draws uniformly but apart from choice's stream. Floyd's rule (a drawn
position already taken gives way to the draw's bound) is applied one target
rank at a time across the batch, so the loop runs once per target of the
batch's largest count: at most 38 times at 256 pieces and rate 0.15. The
worst case is one long sequence at a high rate: 10,000 pieces at rate 0.99
loop 9,900 times, 42 ms against choice's 3.4 ms on one x86_64 vCPU.

The loss and its gradients are computed in one batched pass over fixed chunks
of SEQ_CHUNK sequences; masked_prediction_loss is that pass's mean, the loss
mlm_train_step reports and descends. All targets of a sequence are predicted
from its one context mean, so they share one logits row and one stable
log-softmax per sequence is exact: with c_s targets in sequence s, the loss is
sum_s c_s * logZ_s less the target logits, and the logits gradient is
c_s * softmax_s less one at each target (a repeated id once per target). The
largest temporaries are two SEQ_CHUNK x vocab_size buffers (about 0.7 MB each
at a 1,400-piece vocabulary) that every chunk reuses, whatever the number of
targets.

A batch's context ids are what one flat boolean mask over all its ids (each
target's position offset by its sequence's start) leaves, in order. The context
means come from dense.pool, which adds in the order of a per-sequence mean, and their
gradient, at the embedding rows they touch and added in sequence order from 0.0, from
dense.pool_grad; mlm_train_step updates those rows and the whole output table.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .dense import DenseEncoder, descend, flatten, pool, pool_grad
from .errors import NumericError, ToolkitWarning

DEFAULT_MASK_RATE = 0.15
# sequences per logits block; bounds the softmax temporaries to this many vocab rows
SEQ_CHUNK = 64


@dataclass(frozen=True)
class MaskedSequence:
    """One sequence with MASK substituted; targets are (position, original id)."""

    ids: tuple[int, ...]
    targets: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class MaskedBatch:
    """Masked sequences as flat arrays, targets in sequence then position
    order; `.sequences` is a read-only per-sequence view of them."""

    ids: np.ndarray  # every sequence's ids, MASK substituted, concatenated
    lengths: np.ndarray  # ids per sequence
    counts: np.ndarray  # targets per sequence
    positions: np.ndarray  # each target's position within its sequence
    target_ids: np.ndarray  # each target's original id

    @property
    def sequences(self) -> tuple[MaskedSequence, ...]:
        ids, targets = self.ids.tolist(), list(zip(self.positions.tolist(), self.target_ids.tolist()))
        ends, target_ends = np.cumsum(self.lengths).tolist(), np.cumsum(self.counts).tolist()
        return tuple(MaskedSequence(tuple(ids[e - n:e]), tuple(targets[t - k:t]))
                     for e, n, t, k in zip(ends, self.lengths.tolist(), target_ends, self.counts.tolist()))


def mask_tokens(piece_ids, mask_id: int, mask_rate: float = DEFAULT_MASK_RATE,
                rng=0) -> MaskedSequence | None:
    """Mask round(mask_rate * n) distinct positions (min 1), chosen uniformly.

    Empty sequences are skipped with a warning (returns None).
    """
    masked = make_masked_batch([list(piece_ids)], mask_id, mask_rate, rng).sequences
    return masked[0] if masked else None


def make_masked_batch(sequences, mask_id: int, mask_rate: float = DEFAULT_MASK_RATE,
                      rng=0, lengths=None) -> MaskedBatch:
    """Mask every non-empty sequence with one shared random stream; with
    `lengths`, `sequences` is the sequences' ids concatenated (as dense.pool
    reads them). Each empty sequence is skipped with a warning."""
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(f"mask_rate must be in (0, 1), got {mask_rate}")
    lengths, ids = flatten(sequences, lengths)
    for _ in range(np.count_nonzero(lengths == 0)):
        warnings.warn("skipping empty sequence in masking", ToolkitWarning, stacklevel=2)
    lengths = lengths[lengths > 0]
    counts = np.maximum(1, np.rint(mask_rate * lengths)).astype(np.intp)
    # each sequence's k Floyd draws, bounds n-k .. n-1, then choice's k-1 shuffle draws, k-1 .. 1
    spans = 2 * counts - 1
    draw_starts = np.cumsum(spans) - spans
    step = np.arange(spans.sum()) - np.repeat(draw_starts, spans)
    k, n = np.repeat(counts, spans), np.repeat(lengths, spans)
    draws = np.random.default_rng(rng).integers(
        0, np.where(step < k, n - k + step, 2 * k - 1 - step), endpoint=True)

    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-counts, kind="stable")  # most targets first: sequences still drawing are a prefix
    draw_at, start_at, bound_at = draw_starts[order], starts[order], (starts + lengths - counts)[order]
    live_at = np.bincount(counts)[::-1].cumsum()[::-1][1:]  # [t]: how many have more than t targets
    masked = np.zeros(len(ids), dtype=bool)
    for rank, live in enumerate(live_at.tolist()):
        flat = start_at[:live] + draws[draw_at[:live] + rank]
        taken = masked[flat]
        flat[taken] = bound_at[:live][taken] + rank  # Floyd: a taken draw gives way to its bound
        masked[flat] = True
    targets = np.flatnonzero(masked)
    return MaskedBatch(np.where(masked, mask_id, ids), lengths, counts,
                       targets - np.repeat(starts, counts), ids[targets])


class MlmModel:
    """Embedding table plus output projection for masked-piece prediction, its own copies."""

    def __init__(self, embeddings: np.ndarray, output_weights: np.ndarray):
        self.embeddings = np.array(embeddings, dtype=np.float64)
        self.output_weights = np.array(output_weights, dtype=np.float64)
        if self.embeddings.shape != self.output_weights.shape:
            raise ValueError("embeddings and output weights must share a shape")

    @classmethod
    def init(cls, vocab_size: int, dim: int, seed: int = 0) -> "MlmModel":
        # the dense encoder's initial table; zero output weights give the exact
        # uniform-softmax starting loss ln(V)
        return cls(DenseEncoder.init(vocab_size, dim, seed).table, np.zeros((vocab_size, dim)))

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def copy(self) -> "MlmModel":
        return MlmModel(self.embeddings, self.output_weights)

    def save_embeddings(self, path) -> None:
        """Persist the embedding table in the dense-encoder checkpoint format."""
        DenseEncoder(self.embeddings).save(path)

    def save(self, path) -> None:
        save_arrays(path, "MLMM",
                    {"embeddings": self.embeddings, "output_weights": self.output_weights},
                    {"dim": self.dim, "vocab_size": self.vocab_size})

    @classmethod
    def load(cls, path) -> "MlmModel":
        arrays, _ = load_arrays(path, "MLMM", required={"embeddings": 2, "output_weights": 2})
        return checked(path, cls, arrays["embeddings"], arrays["output_weights"])


def masked_prediction_loss(model: MlmModel, batch: MaskedBatch) -> float:
    """Mean cross-entropy over all masked targets, as mlm_train_step reports it."""
    return _loss_and_grads(model, batch)[0]


def _loss_and_grads(model: MlmModel, batch: MaskedBatch):
    lengths, counts, target_ids = batch.lengths, batch.counts, batch.target_ids
    if not counts.sum():
        raise ValueError("batch has no masked targets")
    offsets = np.concatenate(([0], np.cumsum(counts)))  # targets of sequence s: offsets[s:s+2]
    # one flat mask over the batch's ids; the context is every id it leaves, in order
    masked = np.zeros(len(batch.ids), dtype=bool)
    masked[batch.positions + np.repeat(np.cumsum(lengths) - lengths, counts)] = True
    owner = np.repeat(np.arange(len(lengths)), lengths)
    context_lengths = np.bincount(owner[~masked], minlength=len(lengths))
    context_ids = batch.ids[~masked]
    # a fully masked sequence pools to zeros
    contexts = pool(model.embeddings, context_ids, context_lengths)

    weights = model.output_weights
    grad_out = np.zeros_like(weights)
    grad_contexts = np.empty_like(contexts)
    total = 0.0
    n_seqs, n_targets = len(counts), len(target_ids)
    # every chunk writes its logits and its exp (then dlogits) into these
    logits_rows = np.empty((min(SEQ_CHUNK, n_seqs), len(weights)))
    exp_rows = np.empty_like(logits_rows)
    for start in range(0, n_seqs, SEQ_CHUNK):
        stop = min(start + SEQ_CHUNK, n_seqs)
        count = counts[start:stop]
        rows = np.repeat(np.arange(stop - start), count)
        original = target_ids[offsets[start] : offsets[stop]]
        c = contexts[start:stop]
        logits, exp = logits_rows[: stop - start], exp_rows[: stop - start]
        np.matmul(c, weights.T, out=logits)
        shift = logits.max(axis=1, keepdims=True)
        np.exp(np.subtract(logits, shift, out=exp), out=exp)
        norm = exp.sum(axis=1)
        log_norm = np.log(norm) + shift[:, 0]
        total += float(count @ log_norm - logits[rows, original].sum())
        dlogits = np.multiply(exp, (count / norm)[:, None], out=exp)
        np.subtract.at(dlogits, (rows, original), 1.0)
        grad_out += dlogits.T @ c
        np.matmul(dlogits, weights, out=grad_contexts[start:stop])
    if not np.isfinite(total):
        raise NumericError("non-finite masked-prediction loss")
    scale = 1.0 / n_targets
    grad_out *= scale
    grad_contexts *= scale
    rows, grad_emb = pool_grad(model.embeddings.shape, context_ids, grad_contexts, context_lengths)
    return total * scale, (grad_emb, rows), grad_out


def mlm_train_step(model: MlmModel, batch: MaskedBatch, learning_rate: float) -> tuple[MlmModel, float]:
    """One descent step on the mean masked-target cross-entropy."""
    loss, (grad_emb, rows), grad_out = _loss_and_grads(model, batch)
    descend("masked-language training", learning_rate,
            (model.embeddings, grad_emb, rows), (model.output_weights, grad_out))
    return model, loss


def warm_start(encoder: DenseEncoder, pretrained: np.ndarray) -> DenseEncoder:
    """The encoder with pretrained embeddings, checked once: a step checks only the rows it updates."""
    warmed = DenseEncoder(pretrained)
    if warmed.table.shape != encoder.table.shape:
        raise ValueError(f"pretrained table shape {warmed.table.shape} does not match "
                         f"encoder {encoder.table.shape}")
    if not np.isfinite(warmed.table).all():
        raise NumericError("non-finite parameters in warm-start embeddings")
    return warmed
