"""Domain-adaptive masked-language pretraining at desk scale.

Each sequence has round(mask_rate * length) positions (minimum 1) replaced by
the MASK piece. Each masked piece is predicted from the mean embedding of the
sequence's unmasked positions through a full softmax over the vocabulary. The
trained embedding table warm-starts the dense encoder.

The loss and its gradients are computed in one batched pass over fixed chunks
of SEQ_CHUNK sequences; masked_prediction_loss is that pass's mean, the loss
mlm_train_step reports and descends. All targets of a sequence are predicted
from its one context mean, so they share one logits row and one stable
log-softmax per sequence is exact: with c_s targets in sequence s, the loss is
sum_s c_s * logZ_s less the target logits, and the logits gradient is
c_s * softmax_s less one at each target (a repeated id once per target). The
largest temporaries are SEQ_CHUNK x vocab_size (about 0.7 MB at a 1,400-piece
vocabulary) whatever the number of targets.

A batch's context ids are what one flat boolean mask over all its ids (each
target's position offset by its sequence's start) leaves, in order. The
context means come from dense.pool and their gradient from dense.pool_grad,
which take those ids flat and add in the order of a per-sequence mean and
np.add.at (see dense).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .dense import DenseEncoder, descend, pool, pool_grad
from .errors import NumericError, ToolkitWarning

DEFAULT_MASK_RATE = 0.15
# sequences per logits block; bounds the softmax temporaries to this many vocab rows
SEQ_CHUNK = 64


@dataclass(frozen=True)
class MaskedSequence:
    """One sequence with MASK substituted; targets are (position, original id)."""

    ids: tuple[int, ...]
    targets: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MaskedBatch:
    sequences: tuple[MaskedSequence, ...]


def mask_tokens(piece_ids, mask_id: int, mask_rate: float = DEFAULT_MASK_RATE,
                rng=0) -> MaskedSequence | None:
    """Mask round(mask_rate * n) distinct positions (min 1), chosen uniformly.

    Empty sequences are skipped with a warning (returns None).
    """
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(f"mask_rate must be in (0, 1), got {mask_rate}")
    ids = list(piece_ids)
    n = len(ids)
    if n == 0:
        warnings.warn("skipping empty sequence in masking", ToolkitWarning, stacklevel=2)
        return None
    n_mask = max(1, round(mask_rate * n))
    positions = sorted(np.random.default_rng(rng).choice(n, size=n_mask, replace=False).tolist())
    targets = tuple((p, ids[p]) for p in positions)
    for p in positions:
        ids[p] = mask_id
    return MaskedSequence(tuple(ids), targets)


def make_masked_batch(sequences, mask_id: int, mask_rate: float = DEFAULT_MASK_RATE,
                      rng=0) -> MaskedBatch:
    """Mask every non-empty sequence with one shared random stream."""
    rng = np.random.default_rng(rng)
    masked = []
    for ids in sequences:
        entry = mask_tokens(ids, mask_id, mask_rate, rng)
        if entry is not None:
            masked.append(entry)
    return MaskedBatch(tuple(masked))


class MlmModel:
    """Embedding table plus output projection for masked-piece prediction."""

    def __init__(self, embeddings: np.ndarray, output_weights: np.ndarray):
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.output_weights = np.asarray(output_weights, dtype=np.float64)
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
        return MlmModel(self.embeddings.copy(), self.output_weights.copy())

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
    seqs = batch.sequences
    lengths = np.fromiter((len(seq.ids) for seq in seqs), np.intp, len(seqs))
    counts = np.fromiter((len(seq.targets) for seq in seqs), np.intp, len(seqs))
    if not counts.sum():
        raise ValueError("batch has no masked targets")
    offsets = np.concatenate(([0], np.cumsum(counts)))  # targets of sequence s: offsets[s:s+2]
    ids = np.fromiter(chain.from_iterable(seq.ids for seq in seqs), np.intp, lengths.sum())
    targets = np.fromiter(chain.from_iterable(chain.from_iterable(seq.targets for seq in seqs)),
                          np.intp, 2 * offsets[-1]).reshape(-1, 2)
    target_ids = targets[:, 1]
    # one flat mask over the batch's ids; the context is every id it leaves, in order
    masked = np.zeros(len(ids), dtype=bool)
    masked[targets[:, 0] + np.repeat(np.cumsum(lengths) - lengths, counts)] = True
    owner = np.repeat(np.arange(len(seqs)), lengths)
    context_lengths = np.bincount(owner[~masked], minlength=len(seqs))
    context_ids = ids[~masked]
    # a fully masked sequence pools to zeros
    contexts = pool(model.embeddings, context_ids, context_lengths)

    weights = model.output_weights
    grad_out = np.zeros_like(weights)
    grad_contexts = np.empty_like(contexts)
    total = 0.0
    n_seqs, n_targets = len(counts), len(target_ids)
    for start in range(0, n_seqs, SEQ_CHUNK):
        stop = min(start + SEQ_CHUNK, n_seqs)
        count = counts[start:stop]
        rows = np.repeat(np.arange(stop - start), count)
        original = target_ids[offsets[start] : offsets[stop]]
        c = contexts[start:stop]
        logits = c @ weights.T
        shift = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - shift)
        norm = exp.sum(axis=1)
        log_norm = np.log(norm) + shift[:, 0]
        total += float(count @ log_norm - logits[rows, original].sum())
        dlogits = exp * (count / norm)[:, None]
        np.subtract.at(dlogits, (rows, original), 1.0)
        grad_out += dlogits.T @ c
        grad_contexts[start:stop] = dlogits @ weights
    if not np.isfinite(total):
        raise NumericError("non-finite masked-prediction loss")
    scale = 1.0 / n_targets
    grad_out *= scale
    grad_contexts *= scale
    grad_emb = pool_grad(model.embeddings.shape, context_ids, grad_contexts, context_lengths)
    return total * scale, grad_emb, grad_out


def mlm_train_step(model: MlmModel, batch: MaskedBatch, learning_rate: float) -> tuple[MlmModel, float]:
    """One descent step on the mean masked-target cross-entropy."""
    loss, grad_emb, grad_out = _loss_and_grads(model, batch)
    descend("masked-language training", learning_rate,
            (model.embeddings, grad_emb), (model.output_weights, grad_out))
    return model, loss


def warm_start(encoder: DenseEncoder, pretrained: np.ndarray) -> DenseEncoder:
    """Replace the encoder's embedding table with pretrained embeddings."""
    pretrained = np.asarray(pretrained, dtype=np.float64)
    if pretrained.shape != encoder.table.shape:
        raise ValueError(
            f"pretrained table shape {pretrained.shape} does not match encoder {encoder.table.shape}"
        )
    return DenseEncoder(pretrained.copy())
