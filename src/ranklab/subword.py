"""Merge-based subword vocabulary: training, tokenization, and split-ratio stats.

Training greedily merges the most frequent adjacent symbol pair (ties broken
by lexicographically smallest pair), starting from single characters. The
reserved MASK and UNK pieces are never produced by merging.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from .checkpoint import write_atomic
from .corpus import text_terms
from .errors import ConfigError

MASK_PIECE = "[MASK]"
UNK_PIECE = "[UNK]"

DEFAULT_MAX_SEQUENCE_LENGTH = 256


class SubwordVocab:
    """Ordered piece inventory plus the merge rules that produced it.

    Piece ids: MASK=0, UNK=1, then single characters (sorted), then merged
    pieces in merge order.
    """

    def __init__(self, chars: list[str], merges: list[tuple[str, str]]):
        self.chars = sorted(chars)
        self.merges = [tuple(m) for m in merges]
        pieces = [MASK_PIECE, UNK_PIECE] + self.chars
        for a, b in self.merges:
            merged = a + b
            if merged not in pieces:
                pieces.append(merged)
        self.pieces = pieces
        self.piece_ids = {p: i for i, p in enumerate(pieces)}
        self._word_cache: dict[str, list[str]] = {}

    @property
    def mask_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def __len__(self) -> int:
        return len(self.pieces)

    def word_pieces(self, word: str) -> list[str]:
        """Split one normalized word into pieces; unseen characters become UNK."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        symbols = [c if c in self.piece_ids else UNK_PIECE for c in word]
        for a, b in self.merges:
            merged = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
                    merged.append(a + b)
                    i += 2
                else:
                    merged.append(symbols[i])
                    i += 1
            symbols = merged
        self._word_cache[word] = symbols
        return symbols

    def save(self, path) -> None:
        payload = {"version": 1, "chars": self.chars, "merges": [list(m) for m in self.merges]}
        write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("version") != 1:
            raise ConfigError(f"unsupported vocab file version in {path}")
        return cls(payload["chars"], [tuple(m) for m in payload["merges"]])


def train_subword_vocab(texts, target_size: int) -> SubwordVocab:
    """Learn merge rules from text until the piece inventory reaches target_size."""
    word_counts: Counter[str] = Counter()
    for text in texts:
        word_counts.update(text_terms(text))

    chars = sorted({c for w in word_counts for c in w})
    base = len(chars) + 2
    if target_size < base:
        raise ConfigError(
            f"target_size {target_size} below minimum {base} "
            f"({len(chars)} characters + MASK + UNK)"
        )

    sequences: list[tuple[list[str], int]] = [
        ([*word], count) for word, count in sorted(word_counts.items())
    ]
    merges: list[tuple[str, str]] = []
    pieces = set(chars)
    while len(pieces) + 2 < target_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for symbols, count in sequences:
            for i in range(len(symbols) - 1):
                pair_counts[(symbols[i], symbols[i + 1])] += count
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        best = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(best)
        pieces.add(best[0] + best[1])
        a, b = best
        for symbols, _ in sequences:
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == a and symbols[i + 1] == b:
                    symbols[i : i + 2] = [a + b]
                else:
                    i += 1
    return SubwordVocab(chars, merges)


def tokenize(text: str, vocab: SubwordVocab, max_length: int = DEFAULT_MAX_SEQUENCE_LENGTH) -> list[int]:
    """Map text to piece ids, truncated to max_length. Never fails."""
    ids: list[int] = []
    for word in text_terms(text):
        for piece in vocab.word_pieces(word):
            ids.append(vocab.piece_ids[piece])
            if len(ids) >= max_length:
                return ids
    return ids


def detokenize(ids, vocab: SubwordVocab) -> str:
    """Concatenate the pieces for a single word's ids."""
    return "".join(vocab.pieces[i] for i in ids)


def subword_ratio(texts, vocab: SubwordVocab) -> float:
    """Fraction of whitespace-words the vocabulary splits into two or more pieces."""
    words = 0
    split = 0
    for text in texts:
        for word in text.split():
            words += 1
            n_pieces = sum(len(vocab.word_pieces(w)) for w in text_terms(word))
            if n_pieces >= 2:
                split += 1
    return split / words if words else 0.0
