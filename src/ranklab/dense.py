"""Trainable dense retriever: mean-pooled embedding encoder, dot-product
similarity, softmax contrastive loss over m negatives (a training step pools
its whole batch once), and exact top-k search.

Everything here works on piece ids: build_dense_index, the one source of
document vectors, pools the corpus that subword.tokenize_corpus encodes.

Every trained parameter (MLM tables, encoder, ranker, selection policy) takes
plain gradient descent at a fixed rate, checkable against finite differences,
through `descend`, which writes nothing unless every result is finite.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .checkpoint import checked, load_arrays, save_arrays
from .errors import NumericError, ToolkitWarning
from .sparse import RankedList, doc_id_ranks, top_k_entries

DEFAULT_DIM = 64
DEFAULT_LEARNING_RATE = 0.05
DEFAULT_NEGATIVES = 4


class DenseEncoder:
    """Trainable |vocab| x dim embedding table; encode() mean-pools piece rows."""

    def __init__(self, table: np.ndarray):
        self.table = np.asarray(table, dtype=np.float64)

    @classmethod
    def init(cls, vocab_size: int, dim: int = DEFAULT_DIM, seed: int = 0) -> "DenseEncoder":
        rng = np.random.default_rng(seed)
        half = 0.5 / dim
        return cls(rng.uniform(-half, half, size=(vocab_size, dim)))

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def copy(self) -> "DenseEncoder":
        return DenseEncoder(self.table.copy())

    def save(self, path) -> None:
        save_arrays(path, "DENC", {"table": self.table},
                    {"dim": self.dim, "vocab_size": self.vocab_size})

    @classmethod
    def load(cls, path) -> "DenseEncoder":
        arrays, _ = load_arrays(path, "DENC", required={"table": 2})
        return cls(arrays["table"])


def encode(encoder: DenseEncoder, piece_ids) -> np.ndarray:
    """Mean of the embedding rows for the given piece ids."""
    ids = list(piece_ids)
    if not ids:
        warnings.warn("encoding an empty id sequence yields the zero vector",
                      ToolkitWarning, stacklevel=2)
        return np.zeros(encoder.dim)
    return encoder.table[ids].mean(axis=0)


def _flatten(sequences, lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """The length of each id sequence and all their ids, concatenated; given
    `lengths`, `sequences` already is the concatenated ids."""
    if lengths is not None:
        return np.asarray(lengths, np.intp), np.asarray(sequences, np.intp)
    lengths = np.fromiter(map(len, sequences), np.intp, len(sequences))
    return lengths, np.fromiter(itertools.chain.from_iterable(sequences), np.intp, lengths.sum())


def pool(table: np.ndarray, sequences, lengths=None) -> np.ndarray:
    """The mean table row of each id sequence; a zero row for an empty one.
    With `lengths`, `sequences` is the sequences' ids concatenated.

    Adding position j of every sequence in one step, j = 0, 1, ..., sums each
    row's ids in order from 0.0, as numpy's table[ids].mean(axis=0) does for
    two or more columns (one column it sums pairwise): bit-equal. Not so
    np.add.reduceat, which adds in another order."""
    lengths, ids = _flatten(sequences, lengths)
    order = np.argsort(-lengths, kind="stable")  # longest first: rows still adding are a prefix
    starts = (np.cumsum(lengths) - lengths)[order]
    at_least = np.bincount(lengths)[::-1].cumsum()[::-1]  # [j]: how many have length >= j
    out = np.zeros((len(lengths), table.shape[1]))
    for j, count in enumerate(at_least[1:].tolist()):
        out[:count] += table[ids[starts[:count] + j]]
    return out[np.argsort(order)] / np.maximum(lengths, 1)[:, None]


def pool_grad(shape, sequences, row_grads, lengths=None) -> np.ndarray:
    """The `shape` table's gradient from pool()'s row gradients: each
    row_grads[i] / len(sequences[i]) added at every id of sequence i. One
    np.bincount per column adds these shares in sequence order from 0.0
    (bit-equal to one += per id) without an (ids x dim) array of them, which
    for one MLM step would be larger than its whole 16 MiB memory budget.
    `sequences` and `lengths` are read as pool() reads them."""
    lengths, ids = _flatten(sequences, lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    shares = np.reshape(row_grads, (len(lengths), shape[1])) / np.maximum(lengths, 1)[:, None]
    grad = np.empty(shape)
    for column, share in enumerate(shares.T):
        grad[:, column] = np.bincount(ids, weights=share[owner], minlength=shape[0])
    return grad


def similarity(qv: np.ndarray, dv: np.ndarray) -> float:
    """Dot product; the retrieval similarity."""
    qv = np.asarray(qv, dtype=np.float64)
    dv = np.asarray(dv, dtype=np.float64)
    if qv.shape != dv.shape:
        raise ValueError(f"dimension mismatch: {qv.shape} vs {dv.shape}")
    return float(np.dot(qv, dv))


@dataclass(frozen=True)
class TrainingTriple:
    """One supervision unit: query ids, positive doc ids, m negative docs' ids."""

    query_ids: tuple[int, ...]
    positive_ids: tuple[int, ...]
    negative_ids: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.negative_ids) < 1:
            raise ValueError("a training triple needs at least one negative")
        if self.positive_ids in self.negative_ids:
            raise ValueError("positive document also listed as a negative")


def _loss_and_row_grads(table: np.ndarray, batch) -> tuple[float, list, np.ndarray]:
    """A batch's mean contrastive loss, its sequences (each triple's query,
    positive and negatives) and the loss gradient of each one's pool() row.

    Triples with m negatives are one (b, 2 + m, dim) stack of rows taken in one
    pass, in the per-triple order and so bit-equal: each row's vecdot, max, exp
    and sum, dq = dsims[0] * pos + (((0 + dsims[1] * n1) + dsims[2] * n2) + ...)."""
    sequences = [s for t in batch for s in (t.query_ids, t.positive_ids, *t.negative_ids)]
    if not all(sequences):
        warnings.warn("encoding an empty id sequence yields the zero vector",
                      ToolkitWarning, stacklevel=3)
    vectors = pool(table, sequences)
    row_grads = np.empty_like(vectors)
    widths = np.array([2 + len(t.negative_ids) for t in batch])
    starts, losses, scale = np.cumsum(widths) - widths, np.empty(len(batch)), 1.0 / len(batch)
    for width in np.unique(widths).tolist():
        members = np.flatnonzero(widths == width)
        rows = starts[members, None] + np.arange(width)
        qv, dvs = vectors[rows[:, 0]], vectors[rows[:, 1:]]
        sims = np.vecdot(dvs, qv[:, None])  # each row's similarity(), bit for bit
        if not np.all(np.isfinite(sims)):
            raise NumericError("non-finite similarity in contrastive loss")
        shift = sims.max(axis=1)
        exp = np.exp(sims - shift[:, None])
        norm = exp.sum(axis=1)
        losses[members] = np.log(norm) + shift - sims[:, 0]
        dsims = exp / norm[:, None]  # dloss/dsim = softmax - onehot(positive)
        dsims[:, 0] -= 1.0
        negative_sum = sum(dsims[:, j, None] * dvs[:, j] for j in range(1, width - 1))
        row_grads[rows[:, 0]] = scale * (dsims[:, :1] * dvs[:, 0] + negative_sum)
        row_grads[rows[:, 1:]] = (scale * dsims)[:, :, None] * qv[:, None]
    return sum(losses.tolist()) * scale, sequences, row_grads


def contrastive_loss(encoder: DenseEncoder, triple: TrainingTriple) -> float:
    """Negative log-softmax of the positive similarity against the negatives."""
    return _loss_and_row_grads(encoder.table, [triple])[0]


def descend(what: str, learning_rate: float, *pairs) -> None:
    """param - learning_rate * grad for each (param, grad) pair, written in
    place only when every result is finite (bit-equal to param -= ...)."""
    with np.errstate(over="ignore", invalid="ignore"):  # each step's own buffer takes its result
        results = [np.subtract(p, step := learning_rate * g, out=step) for p, g in pairs]
    if not all(np.isfinite(result).all() for result in results):
        raise NumericError(f"non-finite parameters in {what}")
    for (param, _), result in zip(pairs, results):
        param[...] = result


def train_step(encoder: DenseEncoder, batch, learning_rate: float) -> tuple[DenseEncoder, float]:
    """One gradient-descent step on the mean contrastive loss of the batch."""
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    loss, sequences, row_grads = _loss_and_row_grads(encoder.table, batch)
    descend("dense training step", learning_rate,
            (encoder.table, pool_grad(encoder.table.shape, sequences, row_grads)))
    return encoder, loss


class DenseIndex:
    """Document vectors produced by one encoder state, in corpus order."""

    def __init__(self, vectors: np.ndarray, doc_ids):
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.doc_ids = list(doc_ids)
        if self.vectors.shape[0] != len(self.doc_ids):
            raise ValueError("vector row count does not match doc_ids")
        self.doc_rank = doc_id_ranks(self.doc_ids)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        save_arrays(path, "DIDX", {"vectors": self.vectors},
                    {"dim": self.dim, "doc_count": self.doc_count, "doc_ids": self.doc_ids})

    @classmethod
    def load(cls, path) -> "DenseIndex":
        arrays, meta = load_arrays(path, "DIDX", {"vectors": 2}, ("doc_ids",))
        return checked(path, cls, arrays["vectors"], meta["doc_ids"])


def build_dense_index(encoder: DenseEncoder, pieces: dict) -> DenseIndex:
    """One pooled vector row per document of `pieces` (doc id -> piece ids, as
    subword.tokenize_corpus encodes a corpus), in its order."""
    return DenseIndex(pool(encoder.table, pieces.values()), pieces)


def dense_search_topk(index: DenseIndex, encoder: DenseEncoder, query_ids, k: int,
                      query_id: int = 0) -> RankedList:
    """Exact top-k by dot product over all document vectors.

    Raises NumericError (from top_k_order) when any score is non-finite.
    """
    if index.dim != encoder.dim:
        raise ValueError(f"index dim {index.dim} does not match encoder dim {encoder.dim}")
    scores = index.vectors @ encode(encoder, query_ids)
    return RankedList(query_id, top_k_entries(scores, index.doc_ids, index.doc_rank, k))
