"""Ranker features as one matrix per query, against the former per-document code."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranklab.corpus import Document, Query
from ranklab.dense import DenseEncoder, build_dense_index, encode, similarity
from ranklab.evaluation import QuerySplit, Run, old_new_report
from ranklab.rerank import Candidates, FeatureExtractor, Ranker, rerank
from ranklab.sparse import RankedList, bm25_scores, build_index, idf, search_topk
from ranklab.subword import tokenize, tokenize_corpus, train_subword_vocab

WORDS = ["remdesivir", "trial", "vaccine", "antibody", "cohort", "the", "of"]
STOPWORDS = frozenset({"the", "of"})
VOCAB = train_subword_vocab([" ".join(WORDS)], 40)
ENCODER = DenseEncoder.init(len(VOCAB), 8, seed=2)

corpora = st.lists(st.lists(st.sampled_from(WORDS), max_size=7).map(" ".join),
                   min_size=1, max_size=10)
# repeated terms, stopwords, and terms no document or piece holds
query_terms = st.lists(st.sampled_from(WORDS + ["zzq", "xylo"]), max_size=6)


def extractor_of(texts, max_length=64):
    docs = [Document(f"d{i}", t, "") for i, t in enumerate(texts)]
    return FeatureExtractor(build_index(docs), ENCODER, VOCAB,
                            build_dense_index(ENCODER, tokenize_corpus(docs, VOCAB, max_length)),
                            k1=1.1, b=0.3, stopwords=STOPWORDS, max_length=max_length)


def stacked(lists, rows) -> Candidates:
    """Hand-built ranked lists of one length and their feature rows in list
    order, stacked as FeatureExtractor.candidates stacks its lists; the doc-id
    ranks follow the ids' string order."""
    lists, rows = list(lists), list(rows)
    rank = {d: i for i, d in enumerate(sorted({d for r in lists for d in r.doc_ids()}))}
    shape = (len(lists), len(lists[0].entries) if lists else 0)
    doc_ids = np.array([r.doc_ids() for r in lists], dtype=object).reshape(shape)
    ranks = np.array([[rank[d] for d in r.doc_ids()] for r in lists], dtype=np.intp).reshape(shape)
    return Candidates([r.query_id for r in lists], doc_ids, ranks,
                      np.array(rows, dtype=np.float64).reshape(*shape, 6))


def rerank_one(ranker, candidates, depth, rows):
    """rerank of one hand-built list and its rows in list order."""
    return rerank(ranker, stacked([candidates], [rows]), depth)[0]


def depth_sweep(ranker, candidates, depths, qrels, k=10) -> dict[int, dict[str, float]]:
    """NDCG@k and P@5 of rerank(ranker, candidates, depth) at each depth: the
    overall line of old_new_report over the queries in `qrels`, as the
    depth-sweep stage reports it at fusion none and linear gain."""
    split = QuerySplit.from_ids((), qrels.query_ids())
    table = {}
    for depth in depths:
        run = Run(dict(zip(candidates.query_ids, rerank(ranker, candidates, depth))))
        overall = old_new_report(run, qrels, split, k).overall
        table[depth] = {f"ndcg@{k}": overall.ndcg, "p@5": overall.precision}
    return table


def reference_features(extractor, query_terms, ordinal):
    """The former per-document features, kept as the oracle: BM25 summed
    term by term from the postings, the dense column from similarity(), and
    the matched-idf sum in sorted unique-term order."""
    index = extractor.index
    query_terms = list(query_terms)
    unique = sorted(set(query_terms))
    postings = {t: dict(p) for t, p in index.postings.items()}
    ratio = index.doc_lengths[ordinal] / index.avg_doc_length if index.avg_doc_length else 0.0
    norm = extractor.k1 * (1.0 - extractor.b + extractor.b * ratio)
    bm25 = 0.0
    for term in query_terms:
        tf = postings.get(term, {}).get(ordinal, 0)
        if tf:
            bm25 += idf(index, term) * tf * (extractor.k1 + 1.0) / (tf + norm)
    ids = tokenize(" ".join(query_terms), extractor.vocab, extractor.max_length)
    qv = encode(extractor.encoder, ids) if ids else np.zeros(extractor.encoder.dim)
    dense_sim = similarity(qv, extractor.dense_index.vectors[ordinal])
    matched = [t for t in unique
               if t not in extractor.stopwords and postings.get(t, {}).get(ordinal, 0) > 0]
    overlap = len(matched) / len(unique) if unique else 0.0
    matched_idf = sum(idf(index, t) for t in matched)
    return np.array([bm25, dense_sim, overlap, matched_idf, float(len(query_terms)), 1.0])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


@given(corpora, query_terms, st.data())
def test_features_matrix_rows_equal_former_features_bit_for_bit(texts, terms, data):
    extractor = extractor_of(texts, max_length=data.draw(st.sampled_from([2, 64])))
    ordinals = data.draw(st.lists(st.integers(0, len(texts) - 1), max_size=12))
    expected = [bits(reference_features(extractor, terms, o)) for o in ordinals]
    scores = bm25_scores(extractor.index, terms, extractor.k1, extractor.b)
    for bm25 in (None, scores):
        matrix = extractor.features_matrix(terms, ordinals, bm25)
        assert matrix.shape == (len(ordinals), 6)
        assert [bits(row) for row in matrix] == expected
    for o in ordinals:
        assert bits(extractor.features(terms, f"d{o}")) == bits(
            reference_features(extractor, terms, o))


@given(corpora, query_terms.filter(bool), st.integers(1, 12))
def test_candidates_are_the_bm25_list_and_its_features(texts, terms, k):
    extractor = extractor_of(texts)
    query = Query(3, " ".join(terms), tuple(terms))
    stack = extractor.candidates([query], k)
    features = stack.features[0]
    ranked = RankedList(3, tuple(zip(stack.doc_ids[0].tolist(), features[:, 0].tolist())))
    assert ranked == search_topk(extractor.index, query, k, extractor.k1, extractor.b)
    assert features.shape == (len(ranked.entries), 6)
    for doc_id, row in zip(ranked.doc_ids(), features):
        ordinal = extractor.index.ordinal_of[doc_id]
        assert bits(row) == bits(reference_features(extractor, terms, ordinal))


def test_candidates_feature_every_entry_of_the_fused_list():
    extractor = extractor_of(["trial cohort", "vaccine", "antibody trial", "cohort"])
    query = Query(1, "trial", ("trial",))
    extra = extractor.index.doc_rank[extractor.index.ordinal_of["d1"]]
    stack = extractor.candidates([query], 2, lambda i, ranks: np.append(ranks[:-1], extra))
    doc_ids, features = stack.doc_ids[0].tolist(), stack.features[0]
    assert doc_ids[-1] == "d1"
    assert features.shape == (len(doc_ids), 6)
    assert features[-1][0] == 0.0 and features[-1][1] != 0.0


def reference_rerank(ranker, candidates, depth, features):
    """The former rerank, kept as the oracle: Ranker.score row by row."""
    block = candidates.entries[:depth]
    rescored = sorted(((d, ranker.score(features[d])) for d, _ in block),
                      key=lambda e: (-e[1], e[0]))
    tail_start = rescored[-1][1] - 1.0
    tail = [(d, tail_start - i) for i, (d, _) in enumerate(candidates.entries[depth:])]
    return RankedList(candidates.query_id, tuple(rescored + tail))


@given(st.integers(1, 40), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_rerank_equals_scoring_row_by_row(n, depth, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=6)
    rows = rng.normal(size=(n, 6))
    rows[rng.random(n) < 0.3] = rows[0]  # ties in the ranker score
    docs = [f"d{i:02d}" for i in range(n)]
    candidates = RankedList.from_scores(5, zip(docs, rng.normal(size=n)))
    features = dict(zip(docs, rows))
    expected = reference_rerank(Ranker(weights), candidates, depth, features)
    rows = np.array([features[d] for d in candidates.doc_ids()])
    assert rerank_one(Ranker(weights), candidates, depth, rows) == expected


def test_features_without_scores_call_bm25_score(monkeypatch):
    import ranklab.rerank

    extractor = extractor_of(["trial cohort", "vaccine trial"])
    calls = []
    real = ranklab.rerank.bm25_score
    monkeypatch.setattr(ranklab.rerank, "bm25_score", lambda *a: calls.append(a) or real(*a))
    extractor.features(["trial"], "d1")
    assert len(calls) == 1
    extractor.candidates([Query(1, "trial", ("trial",))], 2)
    assert len(calls) == 1
    with pytest.raises(KeyError):
        extractor.features(["trial"], "missing")
