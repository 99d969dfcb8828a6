"""The CSR index and array BM25 against the former per-posting code."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranklab.checkpoint import save_arrays
from ranklab.corpus import Document
from ranklab.errors import ConfigError
from ranklab.sparse import InvertedIndex, bm25_score, bm25_scores, build_index, idf

WORDS = ["alpha", "beta", "gamma", "delta", "the", "of"]

corpora = st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join),
                   min_size=1, max_size=12)
# repeated terms, and terms no document holds ("zeta", "")
query_terms = st.lists(st.sampled_from(WORDS + ["zeta", ""]), max_size=6)
params = st.tuples(st.sampled_from([0.0, 0.9, 1.2]), st.sampled_from([0.0, 0.4, 1.0]))


def index_of(texts):
    return build_index([Document(f"d{i}", t, "") for i, t in enumerate(texts)])


def reference_bm25_scores(index, terms, k1, b):
    """The former search loop, kept as the oracle: Python floats added
    posting by posting, term by term in query order."""
    lengths = index.doc_lengths
    avgdl = sum(lengths) / index.doc_count
    postings = index.postings
    scores = [0.0] * index.doc_count
    for term in terms:
        term_idf = idf(index, term)
        for ordinal, tf in postings.get(term, ()):
            ratio = lengths[ordinal] / avgdl if avgdl else 0.0
            norm = k1 * (1.0 - b + b * ratio)
            scores[ordinal] += term_idf * tf * (k1 + 1.0) / (tf + norm)
    return scores


@given(corpora, query_terms, params)
def test_bm25_scores_equal_bm25_score_bit_for_bit(texts, terms, kb):
    index = index_of(texts)
    scores = bm25_scores(index, terms, *kb)
    assert scores.tolist() == reference_bm25_scores(index, terms, *kb)
    for ordinal in range(index.doc_count):
        assert scores[ordinal] == bm25_score(index, terms, ordinal, *kb)


@given(corpora, st.sampled_from(WORDS + ["zeta"]))
def test_tf_and_df_read_the_term_slice(texts, term):
    index = index_of(texts)
    counts = [t.split().count(term) for t in texts]
    assert index.df(term) == sum(c > 0 for c in counts)
    assert index.tf(term, np.arange(len(texts))).tolist() == counts
    assert [index.tf(term, o) for o in range(len(texts))] == counts
    # ordinals in any order, repeated
    order = np.arange(len(texts))[::-1].repeat(2)
    assert index.tf(term, order).tolist() == [counts[o] for o in order]


@given(corpora)
def test_save_load_round_trip(tmp_path_factory, texts):
    index = index_of(texts)
    path = tmp_path_factory.mktemp("csr") / "index.bin"
    index.save(path)
    loaded = InvertedIndex.load(path)
    assert loaded.terms == index.terms == sorted(index.terms)
    assert loaded.doc_ids == index.doc_ids
    for name in ("offsets", "ordinals", "tfs", "lengths"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name)), name
    assert loaded.postings == index.postings
    assert loaded.avg_doc_length == index.avg_doc_length
    terms = WORDS + ["zeta"]
    assert np.array_equal(bm25_scores(loaded, terms), bm25_scores(index, terms))
    # saving what was loaded writes the same bytes
    again = path.with_name("again.bin")
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_postings_are_the_csr_slices():
    index = index_of(["b a b", "c", "a"])
    assert index.terms == ["a", "b", "c"]
    assert index.offsets.tolist() == [0, 2, 3, 4]
    assert index.ordinals.tolist() == [0, 2, 0, 1]
    assert index.tfs.tolist() == [1, 1, 2, 1]
    assert index.postings == {"a": [(0, 1), (2, 1)], "b": [(0, 2)], "c": [(1, 1)]}
    assert index.doc_lengths == [3, 1, 1]


def test_json_postings_index_is_config_error(tmp_path):
    path = tmp_path / "index.bin"
    save_arrays(path, "SIDX", {}, {"postings": {"a": [[0, 1]]}, "doc_lengths": [1],
                                   "doc_ids": ["d0"]})
    with pytest.raises(ConfigError, match="lacks array") as raised:
        InvertedIndex.load(path)
    assert str(path) in str(raised.value)
