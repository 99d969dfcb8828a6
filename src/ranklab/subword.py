"""Merge-based subword vocabulary: training, tokenization, and split-ratio stats.

Training greedily merges the most frequent adjacent symbol pair (ties broken
by lexicographically smallest pair), starting from single characters. The
reserved MASK and UNK pieces are never produced by merging.

Training keeps the count of every adjacent pair and the set of words it has
occurred in, and after each merge recounts only the words in the merged
pair's set (one that no longer holds the pair recounts to no change). The
next pair to merge is popped from a heap keyed by (-count, pair); an entry
whose count is no longer the pair's current count is stale and is dropped on
the way. This picks the same pair as counting every pair of every word before
each merge: the counts are the same sums, changed only by the words a merge
changes, and the heap order is the rule itself (highest count first, then the
smallest pair).

Splitting a word means applying every merge rule in list order, each to every
occurrence of its pair, left to right. A rule whose pair is not adjacent in
the current symbols changes nothing, so only the rules that do need to be
visited: the next one is the smallest rank (position in the merge list) above
the last applied rank among the ranks of the word's adjacent pairs. A pair
keeps every rank it holds, so a merge list that repeats a rule or lists rules
out of order splits exactly as applying the whole list in order does.

Training ends on each word's word_pieces, which fill the trained vocab's cache. A document
is encoded only by tokenize_corpus, into flat arrays gathered from its corpus_terms view's
pieces, and a query only by tokenize_query; every other module works on those ids.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .corpus import CorpusTerms, corpus_terms, text_terms
from .dense import flatten
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
        self.piece_ids: dict[str, int] = {}
        for piece in [MASK_PIECE, UNK_PIECE, *self.chars, *(a + b for a, b in self.merges)]:
            self.piece_ids.setdefault(piece, len(self.piece_ids))
        self.pieces = list(self.piece_ids)
        self._merge_ranks: dict[tuple[str, str], list[int]] = {}
        for rank, pair in enumerate(self.merges):
            self._merge_ranks.setdefault(pair, []).append(rank)
        self._word_cache: dict[str, tuple[list[str], tuple[int, ...]]] = {}  # (pieces, ids)

    @property
    def mask_id(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.pieces)

    def word_pieces(self, word: str) -> list[str]:
        """Split one normalized word into pieces; unseen characters become UNK."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached[0]
        symbols = [c if c in self.piece_ids else UNK_PIECE for c in word]
        last = -1
        while len(symbols) > 1:
            best = None
            for pair in zip(symbols, symbols[1:]):
                ranks = self._merge_ranks.get(pair)
                if ranks is None:
                    continue
                i = bisect_right(ranks, last)
                if i < len(ranks) and (best is None or ranks[i] < best):
                    best = ranks[i]
            if best is None:
                break
            symbols = _merge_pair(symbols, *self.merges[best])
            last = best
        self._word_cache[word] = symbols, tuple(map(self.piece_ids.__getitem__, symbols))
        return symbols

    def word_ids(self, word: str) -> tuple[int, ...]:
        """The piece ids of word_pieces(word), kept in the word cache."""
        if word not in self._word_cache:
            self.word_pieces(word)
        return self._word_cache[word][1]

    def save(self, path) -> None:
        payload = {"version": 1, "chars": self.chars, "merges": [list(m) for m in self.merges]}
        write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if payload.get("version") != 1:
                raise ConfigError(f"unsupported vocab file version in {path}")
            chars, merges = payload["chars"], [tuple(m) for m in payload["merges"]]
            # a training run lists each character once and merges non-empty pieces
            if len(set(chars)) < len(chars) or any(len(c) != 1 for c in chars):
                raise ConfigError(f"{path}: vocab chars must be distinct single characters")
            if not all(isinstance(part, str) and part for m in merges for part in m):
                raise ConfigError(f"{path}: vocab merges must join non-empty strings")
            return cls(chars, merges)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: corrupt vocab file ({exc!r})") from exc


def _merge_pair(symbols: list[str], a: str, b: str) -> list[str]:
    """Replace every adjacent (a, b) in symbols by a + b, scanning left to right."""
    merged = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            merged.append(a + b)
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


def train_subword_vocab(texts, target_size: int) -> SubwordVocab:
    """Learn merge rules from texts, or their corpus_terms view, until the piece
    inventory reaches target_size; each training word's segmentation is cached."""
    view = texts if isinstance(texts, CorpusTerms) else corpus_terms(texts)
    chars = sorted({c for w in view.terms for c in w})
    if target_size < (base := len(chars) + 2):
        raise ConfigError(f"target_size {target_size} below minimum {base} "
                          f"({len(chars)} characters + MASK + UNK)")

    words = [[*word] for word in view.terms]
    counts = np.bincount(view.ids, minlength=len(words)).tolist()
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for w, (symbols, count) in enumerate(zip(words, counts)):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + count
            pair_words.setdefault(pair, set()).add(w)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    pieces = set(chars)
    while len(pieces) + 2 < target_size:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        _, best = heapq.heappop(heap)
        merges.append(best)
        pieces.add(best[0] + best[1])
        delta: dict[tuple[str, str], int] = {}
        for w in pair_words.pop(best):
            symbols, count = words[w], counts[w]
            merged = _merge_pair(symbols, *best)
            words[w] = merged
            for pair in zip(symbols, symbols[1:]):
                delta[pair] = delta.get(pair, 0) - count
            for pair in zip(merged, merged[1:]):
                delta[pair] = delta.get(pair, 0) + count
                pair_words.setdefault(pair, set()).add(w)
        for pair, change in delta.items():
            if change == 0:
                continue
            count = pair_counts.get(pair, 0) + change
            if count:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
                pair_words.pop(pair, None)
    vocab = SubwordVocab(chars, merges)
    for word, symbols in zip(view.terms, words):  # as word_pieces caches them
        vocab._word_cache[word] = symbols, tuple(map(vocab.piece_ids.__getitem__, symbols))
    return vocab


def tokenize(text: str, vocab: SubwordVocab, max_length: int = DEFAULT_MAX_SEQUENCE_LENGTH) -> list[int]:
    """Map text to piece ids, truncated to max_length; each word's ids come
    from the vocab's cache of word_pieces results. Never fails."""
    return list(islice(chain.from_iterable(map(vocab.word_ids, text_terms(text))), max_length))


class TokenizedCorpus(Mapping):
    """Doc id -> piece ids, held flat and read-only in `ids` and `lengths`; a tuple is built when asked."""

    def __init__(self, doc_ids, ids: np.ndarray, lengths: np.ndarray):
        self.ids, self.lengths, self.ordinal = ids, lengths, {d: i for i, d in enumerate(doc_ids)}
        ids.flags.writeable = lengths.flags.writeable = False
        self._spans = list(zip((np.cumsum(lengths) - lengths).tolist(), np.cumsum(lengths).tolist()))

    def row(self, i: int) -> tuple[int, ...]:  # the i-th document's
        return tuple(self.ids[slice(*self._spans[i])].tolist())

    def __getitem__(self, doc_id) -> tuple[int, ...]:
        return self.row(self.ordinal[doc_id])

    def __iter__(self):
        return iter(self.ordinal)

    def __len__(self) -> int:
        return len(self.ordinal)


def tokenize_corpus(docs, vocab: SubwordVocab, max_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
                    view: CorpusTerms | None = None) -> TokenizedCorpus:
    """Each document's piece ids, in corpus order: the one document encoding, as tokenize
    gives it, gathered from each distinct term's pieces in `view` (corpus_terms(docs) if None)."""
    docs = list(docs)
    view = corpus_terms(docs) if view is None else view
    term_lengths, term_ids = flatten(list(map(vocab.word_ids, view.terms)))
    at = np.concatenate(([0], np.cumsum(counts := term_lengths[view.ids])))  # where each occurrence's pieces start
    offset = np.repeat((np.cumsum(term_lengths) - term_lengths)[view.ids] - at[:-1], counts)
    bounds = at[np.concatenate(([0], np.cumsum(view.lengths)))]  # where each document's pieces start
    lengths = np.minimum(np.diff(bounds), max_length)
    kept = np.repeat(bounds[:-1] - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    return TokenizedCorpus([doc.doc_id for doc in docs], term_ids[offset[kept] + kept], lengths)


def tokenize_query(terms, vocab: SubwordVocab, max_length: int) -> list[int]:
    """A query's piece ids, as every stage encodes a query: its processed terms
    joined by spaces, tokenized and truncated at max_length."""
    return tokenize(" ".join(terms), vocab, max_length)


def subword_ratio(texts, vocab: SubwordVocab) -> float:
    """Fraction of whitespace-words the vocabulary splits into two or more pieces.

    Each distinct word is split once and weighted by its count."""
    counts = Counter(word for text in texts for word in text.split())
    split = sum(n for word, n in counts.items()
                if sum(len(vocab.word_pieces(w)) for w in text_terms(word)) >= 2)
    return split / counts.total() if counts else 0.0
