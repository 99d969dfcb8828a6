import hashlib
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.corpus import text_terms
from ranklab.errors import ConfigError
from ranklab.subword import (
    MASK_PIECE,
    UNK_PIECE,
    SubwordVocab,
    subword_ratio,
    tokenize,
    train_subword_vocab,
)


def reference_train_merges(texts, target_size):
    """The former training loop, kept as the oracle: before each merge it
    recounts every adjacent pair of every word."""
    word_counts = Counter()
    for text in texts:
        word_counts.update(text_terms(text))
    chars = sorted({c for w in word_counts for c in w})
    sequences = [([*word], count) for word, count in sorted(word_counts.items())]
    merges = []
    pieces = set(chars)
    while len(pieces) + 2 < target_size:
        pair_counts = Counter()
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
    return merges


def reference_word_pieces(vocab, word):
    """The former splitting loop, kept as the oracle: every merge rule in list
    order, each applied to every occurrence of its pair, left to right."""
    symbols = [c if c in vocab.piece_ids else UNK_PIECE for c in word]
    for a, b in vocab.merges:
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
    return symbols


def brute_force_pair_counts(words):
    """Independent pair-frequency oracle over character sequences."""
    counts = Counter()
    for word in words:
        for a, b in zip(word, word[1:]):
            counts[(a, b)] += 1
    return counts


class TestTraining:
    def test_most_frequent_pair_merged_first(self):
        texts = ["aaab", "aaab"]
        oracle = brute_force_pair_counts(["aaab", "aaab"])
        assert oracle[("a", "a")] > oracle[("a", "b")]
        vocab = train_subword_vocab(texts, 50)
        assert vocab.merges[0] == ("a", "a")
        assert vocab.pieces.index("aa") < vocab.pieces.index("ab")

    def test_empty_texts(self):
        vocab = train_subword_vocab([], 10)
        assert vocab.pieces == [MASK_PIECE, UNK_PIECE]

    def test_character_base(self):
        vocab = train_subword_vocab(["xy"], 4)
        assert {MASK_PIECE, UNK_PIECE, "x", "y"} <= set(vocab.pieces)

    def test_target_too_small(self):
        with pytest.raises(ConfigError):
            train_subword_vocab(["abc"], 4)  # needs 3 chars + 2 reserved

    def test_size_bound_and_determinism(self):
        texts = ["the spike protein binds receptors", "spike proteins and receptor binding"]
        v1 = train_subword_vocab(texts, 30)
        v2 = train_subword_vocab(texts, 30)
        assert len(v1) <= 30
        assert v1.pieces == v2.pieces and v1.merges == v2.merges

    def test_reserved_pieces_not_merge_products(self):
        vocab = train_subword_vocab(["mask unk tokens everywhere"] * 3, 60)
        for a, b in vocab.merges:
            assert a + b not in (MASK_PIECE, UNK_PIECE)


class TestTokenize:
    def test_whole_word_single_id(self):
        vocab = train_subword_vocab(["hello hello hello"], 40)
        ids = tokenize("hello", vocab)
        assert len(ids) == 1
        assert vocab.pieces[ids[0]] == "hello"

    def test_truncation_at_max_length(self):
        vocab = train_subword_vocab(["z"], 3)
        long_text = " ".join("z" * 5 for _ in range(100))  # 500 single-char pieces
        assert len(tokenize(long_text, vocab, 256)) == 256

    def test_unseen_character_maps_to_unk(self):
        vocab = train_subword_vocab(["abc"], 10)
        ids = tokenize("aqc", vocab)
        assert vocab.piece_ids[UNK_PIECE] in ids

    def test_total_over_arbitrary_text(self):
        vocab = train_subword_vocab(["some training words"], 30)
        for text in ["", "!!!", "unseen glyphs éü", "mixed 123 text"]:
            ids = tokenize(text, vocab)
            assert all(0 <= i < len(vocab) for i in ids)

    def test_round_trip_fixture_words(self, separable):
        vocab = separable["vocab"]
        words = {w for d in separable["docs"] for w in text_terms(d.text())}
        for word in sorted(words):
            ids = tokenize(word, vocab)
            assert "".join(vocab.pieces[i] for i in ids) == word


class TestSubwordRatio:
    def test_zero_when_all_words_whole(self):
        vocab = train_subword_vocab(["alpha beta gamma"] * 4, 100)
        assert subword_ratio(["alpha beta gamma"], vocab) == 0.0

    def test_half_split(self):
        # vocab knows "aa" and "bb" as whole pieces; "cd" and "ce" stay split
        vocab = train_subword_vocab(["aa bb aa bb"], 20)
        assert subword_ratio(["aa bb cd ce"], vocab) == 0.5

    def test_terminology_denser_than_general(self):
        general = ["the trial results were good", "good results for the trial"]
        terminology = ["remdesivir seroprevalence hydroxychloroquine",
                       "seroprevalence of remdesivir cohorts"]
        vocab = train_subword_vocab(general, 200)
        assert subword_ratio(terminology, vocab) > subword_ratio(general, vocab)

    def test_bounds(self, separable):
        vocab = separable["vocab"]
        texts = [d.text() for d in separable["docs"]]
        assert 0.0 <= subword_ratio(texts, vocab) <= 1.0
        assert subword_ratio([], vocab) == 0.0


def test_vocab_save_load_round_trip(tmp_path, separable):
    vocab = separable["vocab"]
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = SubwordVocab.load(path)
    assert loaded.pieces == vocab.pieces
    assert loaded.merges == vocab.merges
    sample = separable["docs"][0].text()
    assert tokenize(sample, loaded) == tokenize(sample, vocab)


# texts over two or three letters, so pairs tie and letters repeat ("aaaa");
# "-" and " " separate words
small_texts = st.lists(st.text(alphabet="aab-  ", max_size=14), max_size=8) | st.lists(
    st.text(alphabet="abc ", max_size=10), max_size=6)


class TestAgainstReferenceLoops:
    @given(small_texts, st.integers(0, 40))
    @example(["aaaa aaa aa"], 40)
    @example(["abab baba aabb"], 10)
    def test_training_merges_equal_reference(self, texts, extra):
        chars = {c for t in texts for w in text_terms(t) for c in w}
        target = len(chars) + 2 + extra
        assert train_subword_vocab(texts, target).merges == reference_train_merges(texts, target)

    @given(small_texts, st.integers(0, 30), st.lists(st.text(alphabet="abcd", max_size=9),
                                                       max_size=8))
    def test_trained_vocab_splits_like_reference(self, texts, extra, words):
        chars = {c for t in texts for w in text_terms(t) for c in w}
        vocab = train_subword_vocab(texts, len(chars) + 2 + extra)
        for word in words + [w for t in texts for w in text_terms(t)]:
            assert vocab.word_pieces(word) == reference_word_pieces(vocab, word)

    @given(
        st.sampled_from([["a", "b"], ["a", "b", "c"], ["b"]]),
        st.lists(st.tuples(*[st.sampled_from(["a", "b", "aa", "ab", "ba", "bb", UNK_PIECE])
                             | st.text(alphabet="ab", min_size=1, max_size=3)] * 2),
                 max_size=12),
        st.lists(st.text(alphabet="aabbcz", max_size=10), min_size=1, max_size=8),
    )
    @example(["a", "b", "c"], [("ab", "c"), ("a", "b")], ["abc"])
    @example(["a", "b", "c"], [("ab", "c"), ("a", "b"), ("ab", "c")], ["abc"])
    @example(["a"], [("a", "a"), ("aa", "a"), ("a", "a")], ["aaaaa"])
    def test_any_merge_list_splits_like_reference(self, chars, merges, words):
        # hand-written merge lists may list a rule before the one that makes
        # its piece, or repeat it, or merge the UNK piece; unknown letters
        # ("z", or any letter not in chars) become UNK
        vocab = SubwordVocab(chars, merges)
        for word in words:
            assert vocab.word_pieces(word) == reference_word_pieces(vocab, word)

    @given(small_texts, st.data())
    def test_reordered_and_repeated_merges_split_like_reference(self, texts, data):
        # a trained merge list, shuffled with some rules repeated: rules now
        # come before the rules that make their pieces
        chars = sorted({c for t in texts for w in text_terms(t) for c in w})
        merges = train_subword_vocab(texts, len(chars) + 32).merges
        if merges:
            merges = data.draw(st.permutations(
                merges + data.draw(st.lists(st.sampled_from(merges), max_size=6))))
        vocab = SubwordVocab(chars, merges)
        for word in {w for t in texts for w in text_terms(t)}:
            assert vocab.word_pieces(word) == reference_word_pieces(vocab, word)

    def test_fixture_words_split_like_reference(self, separable):
        vocab = separable["vocab"]
        words = {w for d in separable["docs"] for w in text_terms(d.text())}
        words |= {w for q in separable["queries"] for w in text_terms(q.raw_text)}
        for word in sorted(words):
            assert vocab.word_pieces(word) == reference_word_pieces(vocab, word)


def test_fixture_vocab_bytes_are_pinned(tmp_path, separable):
    # sha256 of vocab.json trained on the fixture at size 2000 by the
    # reference loop; any change to the merges or their order changes it
    path = tmp_path / "vocab.json"
    separable["vocab"].save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5b9daca5f27bd619b88134cea84a68662e366f59846def927ac915751abb9cf8")


def reference_subword_ratio(texts, vocab):
    """The former ratio loop, kept as the oracle: every whitespace-word
    occurrence is split again."""
    words = 0
    split = 0
    for text in texts:
        for word in text.split():
            words += 1
            if sum(len(vocab.word_pieces(w)) for w in text_terms(word)) >= 2:
                split += 1
    return split / words if words else 0.0


# words repeat, carry punctuation and case, or hold no term at all ("--")
ratio_texts = st.lists(st.text(alphabet="abcAB-. \n", max_size=24), max_size=8)


@given(ratio_texts, ratio_texts)
def test_subword_ratio_equals_reference_loop(train_texts, texts):
    vocab = train_subword_vocab(train_texts or ["ab"], 12)
    assert subword_ratio(texts, vocab) == reference_subword_ratio(texts, vocab)
    assert subword_ratio(texts * 3, vocab) == reference_subword_ratio(texts * 3, vocab)


def reference_piece_inventory(chars, merges):
    """The former SubwordVocab.__init__ loop, kept as the oracle: each merged
    piece is looked up in the piece list before it is appended."""
    pieces = [MASK_PIECE, UNK_PIECE] + sorted(chars)
    for a, b in merges:
        merged = a + b
        if merged not in pieces:
            pieces.append(merged)
    return pieces, {p: i for i, p in enumerate(pieces)}


# a four-letter alphabet makes repeated merges, and merged pieces that equal
# earlier ones ("ab" from a + b and from "" + "ab"), common
fragments = st.text(alphabet="abcd", max_size=3)


@given(st.lists(st.sampled_from("abcd[]"), unique=True),
       st.lists(st.tuples(fragments, fragments), max_size=30))
@example([], [])
@example(["a", "b"], [("a", "b"), ("a", "b"), ("", "ab"), ("ab", "a"), ("a", "ba")])
@example(["M", "["], [("[MA", "SK]"), ("[", "UNK]")])
def test_piece_inventory_equals_reference_loop(chars, merges):
    vocab = SubwordVocab(chars, merges)
    pieces, piece_ids = reference_piece_inventory(chars, merges)
    assert vocab.pieces == pieces
    assert vocab.piece_ids == piece_ids
    assert len(vocab) == len(pieces)
