"""The facts the held lists rest on: a list's first j entries are the depth-j list.

select-train builds the BM25 candidates once, at max(select_depth, topk), and
train-dense its last dev dense top-k at max(DEV_K, topk); every later reader
takes the first columns its own depth asks for. That is the same list only
because FeatureExtractor.candidates and dense.dense_top_k at depth k begin with
their depth-j result, doc ids, doc-id ranks and score or feature bytes alike,
for every j <= k: through BM25 lists filled with zero-score documents, queries
with no terms and score ties.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranklab.corpus import Query
from ranklab.dense import DenseEncoder, DenseIndex, dense_top_k
from ranklab.errors import ToolkitWarning
from test_dense import few_values, tricky_doc_ids
from test_feature_matrix import WORDS, corpora, extractor_of

depths = st.integers(1, 14)
# empty term lists, terms no document holds, and stopwords
term_lists = st.lists(st.lists(st.sampled_from(WORDS + ["zzq"]), max_size=4), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(corpora, term_lists, depths, depths)
# repeated documents tie on every score, and "zzq" and the empty query score 0 throughout
@example(["trial cohort", "vaccine", "trial cohort", "", "vaccine"], [[], ["zzq"], ["trial"]], 5, 2)
def test_candidates_begin_with_the_shallower_candidates(texts, terms, a, b):
    k, j = max(a, b), min(a, b)
    extractor = extractor_of(texts)
    queries = [Query(i + 1, " ".join(t), tuple(t)) for i, t in enumerate(terms)]
    deep, shallow = extractor.candidates(queries, k), extractor.candidates(queries, j)
    assert deep.query_ids == shallow.query_ids
    assert deep.doc_ids.shape[1] == min(k, len(texts)) and shallow.doc_ids.shape[1] == min(j, len(texts))
    assert deep.doc_ids[:, :j].tolist() == shallow.doc_ids.tolist()
    assert deep.ranks[:, :j].tolist() == shallow.ranks.tolist()
    assert deep.features[:, :j].tobytes() == shallow.features.tobytes()


@settings(max_examples=150, deadline=None)
@given(tricky_doc_ids, st.integers(1, 4), depths, depths, st.data())
def test_dense_top_k_begins_with_the_shallower_top_k(doc_ids, dim, a, b, data):
    k, j = max(a, b), min(a, b)
    n = len(doc_ids)
    # few distinct values, so documents and queries tie; an empty sequence scores 0 throughout
    vectors = data.draw(st.lists(few_values, min_size=n * dim, max_size=n * dim))
    index = DenseIndex(np.reshape(vectors, (n, dim)), doc_ids)
    rows = data.draw(st.lists(few_values, min_size=3 * dim, max_size=3 * dim))
    encoder = DenseEncoder(np.reshape(rows, (3, dim)))
    queries = data.draw(st.lists(st.lists(st.integers(0, 2), max_size=9), min_size=1, max_size=4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)  # the empty sequences' warning
        (deep, deep_scores), (shallow, shallow_scores) = (
            dense_top_k(index, encoder, queries, depth) for depth in (k, j))
    assert deep.shape[1] == min(k, n) and shallow.shape[1] == min(j, n)
    assert deep[:, :j].tolist() == shallow.tolist()
    assert deep_scores[:, :j].tobytes() == shallow_scores.tobytes()


def test_dense_top_k_of_tied_documents_begins_with_the_shallower_top_k():
    """Every document alike, and an empty query: all scores tie, doc-id order decides."""
    index = DenseIndex(np.ones((6, 2)), ["d5", "d10", "d0", "d2", "d1", "d3"])
    encoder = DenseEncoder(np.array([[1.0, -0.5], [0.25, 0.25]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        (deep, deep_scores), (shallow, shallow_scores) = (
            dense_top_k(index, encoder, [[0, 1], [], [1]], depth) for depth in (6, 3))
    assert index.by_rank[deep].tolist() == [["d0", "d1", "d10", "d2", "d3", "d5"]] * 3
    assert deep[:, :3].tolist() == shallow.tolist()
    assert deep_scores[:, :3].tobytes() == shallow_scores.tobytes()
