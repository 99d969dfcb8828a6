"""Byte oracles for the weak-supervision paths that skip repeated work.

Each test keeps the former code of one rewritten path here and checks that
the program gives the same bytes: the per-index idf memo, bm25_score's scalar
tf lookup, mean_ndcg on a rerank.Ranking's rows, the salience generator's
counts and scores, and synthesis retrieving by bm25_top_k's ordinals instead
of search_topk's RankedLists.
"""

import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab import sparse
from ranklab.cli import StageRunner
from ranklab.corpus import Document, Qrels, corpus_terms, text_terms
from ranklab.errors import DegeneratePairError, GenerationError, ToolkitWarning
from ranklab.evaluation import mean_ndcg, ndcg_at_k
from ranklab.rerank import Ranking
from ranklab.sparse import RankedList, bm25_score, build_index, doc_id_ranks, idf, search_topk
from ranklab.stopwords import ENGLISH_STOPWORDS
from ranklab.synthetic import make_separable_corpus
from ranklab.weaksup import (
    DEFAULT_MAX_QUERY_TERMS, DEFAULT_RETRIEVAL_DEPTH, SalienceQueryGenerator, SynthesisRecord,
    WeakTriple, synthesize_with_provenance,
)
from test_stage_memo import _config as stage_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus_gen import CorpusShape, make_corpus  # noqa: E402

DOCS = make_separable_corpus(4, 6)[0]
UNSEEN = ["unseenterm", "zz9"]


# -- the former code ---------------------------------------------------------

def former_idf(index, term):
    df = index.df(term)
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def former_bm25_score(index, query_terms, ordinal, k1=sparse.DEFAULT_K1, b=sparse.DEFAULT_B):
    norm = index.length_norms(k1, b)[ordinal]
    tfs = ((term, index.tf(term, ordinal)) for term in query_terms)
    return float(sum(former_idf(index, t) * tf * (k1 + 1.0) / (tf + norm) for t, tf in tfs if tf))


def former_ndcg_at_k(ranking, qrels_entry, k, gain="linear"):
    g = {"linear": lambda v: float(v), "exp": lambda v: float(2**v - 1)}[gain]
    ideal = getattr(qrels_entry, "ideal", {})
    if (k, gain) not in ideal:
        top = sorted((g(v) for v in qrels_entry.values()), reverse=True)[:k]
        ideal[k, gain] = sum(v / math.log2(r + 1) for r, v in enumerate(top, start=1))
    idcg = ideal[k, gain]
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        g(qrels_entry.get(doc_id, 0)) / math.log2(r + 1)
        for r, (doc_id, _) in enumerate(ranking.entries[:k], start=1)
    )
    return dcg / idcg


def former_mean_ndcg(rankings, qrels, k):
    values = [former_ndcg_at_k(r, qrels.judgments.get(r.query_id, {}), k) for r in rankings]
    return sum(values) / len(values) if values else 0.0


class FormerSalienceQueryGenerator:
    def __init__(self, index, max_query_terms=DEFAULT_MAX_QUERY_TERMS, stopwords=ENGLISH_STOPWORDS,
                 view=None, docs=()):
        self.index = index
        self.max_query_terms = max_query_terms
        self.stopwords = stopwords
        self.view, self.spans = view, {}
        if view is not None:
            ends = np.cumsum(view.lengths).tolist()
            self.spans = {d.doc_id: slice(e - n, e) for d, n, e in zip(docs, view.lengths.tolist(), ends)}

    def _content_counts(self, doc):
        span = self.spans.get(doc.doc_id)
        words = text_terms(doc.text()) if span is None else map(
            self.view.terms.__getitem__, self.view.ids[span].tolist())
        terms = [t for t in words if t not in self.stopwords]
        first_pos = {}
        for i, t in enumerate(terms):
            first_pos.setdefault(t, i)
        return Counter(terms), first_pos

    def _tfidf(self, counts, term):
        return counts[term] * former_idf(self.index, term)

    def _select(self, scores, first_pos):
        chosen = sorted(scores, key=lambda t: (-scores[t], first_pos[t]))[: self.max_query_terms]
        return " ".join(sorted(chosen, key=first_pos.__getitem__))

    def generate(self, doc):
        counts, first_pos = self._content_counts(doc)
        if not counts:
            raise GenerationError(f"document {doc.doc_id!r} has no content terms")
        scores = {t: self._tfidf(counts, t) for t in counts}
        return self._select(scores, first_pos)

    def contrast_generate(self, pos, neg):
        pos_counts, first_pos = self._content_counts(pos)
        neg_counts, _ = self._content_counts(neg)
        salience = {
            t: self._tfidf(pos_counts, t) - self._tfidf(neg_counts, t) for t in pos_counts
        }
        eligible = {t: s for t, s in salience.items() if s > 0}
        if not eligible:
            raise DegeneratePairError(
                f"no positive-salience term between {pos.doc_id!r} and {neg.doc_id!r}"
            )
        return self._select(eligible, first_pos)


def former_synthesize_with_provenance(docs, index, count, seed=0,
                                      retrieval_depth=DEFAULT_RETRIEVAL_DEPTH,
                                      max_query_terms=DEFAULT_MAX_QUERY_TERMS,
                                      stopwords=ENGLISH_STOPWORDS, include_stage1=False,
                                      k1=sparse.DEFAULT_K1, b=sparse.DEFAULT_B, view=None):
    docs = list(docs)
    docs_by_id = {d.doc_id: d for d in docs}
    generator = FormerSalienceQueryGenerator(index, max_query_terms, stopwords, view, docs)
    rng = np.random.default_rng(seed)
    records = []
    made = 0
    attempts = 0
    max_attempts = max(20 * count, 100)
    while made < count and attempts < max_attempts:
        attempts += 1
        seed_doc = docs[int(rng.integers(len(docs)))]
        try:
            stage1 = generator.generate(seed_doc)
        except GenerationError:
            continue
        pool = search_topk(index, stage1.split(), retrieval_depth, k1, b).entries
        half = len(pool) // 2
        pos_pool, neg_pool = pool[:half], pool[half:]
        if not pos_pool or not neg_pool:
            continue
        pos_id = pos_pool[int(rng.integers(len(pos_pool)))][0]
        neg_id = neg_pool[int(rng.integers(len(neg_pool)))][0]
        try:
            query = generator.contrast_generate(docs_by_id[pos_id], docs_by_id[neg_id])
        except DegeneratePairError:
            continue
        retrieved = tuple(d for d, _ in pool)
        records.append(SynthesisRecord(
            seed_doc.doc_id, stage1, retrieved, WeakTriple(query, pos_id, neg_id)))
        made += 1
        if include_stage1:
            records.append(SynthesisRecord(
                seed_doc.doc_id, stage1, retrieved, WeakTriple(stage1, pos_id, neg_id)))
    if made < count:
        warnings.warn(f"assembled only {made} of {count} requested weak triples",
                      ToolkitWarning, stacklevel=2)
    return records


def as_bytes(value) -> bytes:
    return np.float64(value).tobytes()


# -- (a) idf -----------------------------------------------------------------

@given(st.permutations(build_index(DOCS).terms + UNSEEN), st.integers(0, 2**32 - 1))
def test_idf_is_the_formula_in_any_query_order(order, seed):
    """Every index term and unseen term, asked in any order and again at random,
    gets the formula's bytes."""
    index = build_index(DOCS)
    again = np.random.default_rng(seed).choice(order, size=len(order)).tolist()
    for term in order + again:
        assert as_bytes(idf(index, term)) == as_bytes(former_idf(index, term)), term


def test_two_indexes_do_not_share_an_idf_memo():
    whole, half = build_index(DOCS), build_index(DOCS[: len(DOCS) // 2])
    term = half.terms[0]
    for index in (whole, half, whole, half):
        assert as_bytes(idf(index, term)) == as_bytes(former_idf(index, term))
    assert idf(whole, term) != idf(half, term)
    assert idf(whole, UNSEEN[0]) != idf(half, UNSEEN[0])  # df 0 over a different N


# -- (b) bm25_score ----------------------------------------------------------

INDEX = build_index(DOCS)


@st.composite
def query_and_ordinals(draw):
    terms = draw(st.lists(st.sampled_from(INDEX.terms + UNSEEN), min_size=0, max_size=8))
    terms += draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []  # repeats
    ordinals = set(draw(st.lists(st.integers(0, INDEX.doc_count - 1), max_size=3)))
    for term in terms:
        docs = INDEX.posting(term)[0].tolist()
        if docs:  # the first and last posting, and one absent from it
            ordinals |= {docs[0], docs[-1]}
            ordinals |= set(sorted(set(range(INDEX.doc_count)) - set(docs))[:1])
    return terms, sorted(ordinals)


@given(query_and_ordinals(), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
@example((["unseenterm"], [0, INDEX.doc_count - 1]), 0.9, 0.4)
@example(([], [0]), 0.9, 0.4)
def test_bm25_score_is_the_former_array_tf_expression(query, k1, b):
    terms, ordinals = query
    for ordinal in ordinals:
        got = bm25_score(INDEX, terms, ordinal, k1, b)
        assert type(got) is float
        assert as_bytes(got) == as_bytes(former_bm25_score(INDEX, terms, ordinal, k1, b))


def test_bm25_score_covers_every_posting_of_the_fixture():
    docs, _, _ = make_separable_corpus()
    index = build_index(docs)
    for term in index.terms:
        for ordinal in range(index.doc_count):
            terms = [term, term, UNSEEN[0]]
            assert as_bytes(bm25_score(index, terms, ordinal)) == \
                as_bytes(former_bm25_score(index, terms, ordinal))


# -- (c) mean_ndcg -----------------------------------------------------------

@st.composite
def rankings_and_qrels(draw):
    n_queries = draw(st.integers(0, 6))
    width, pool = draw(st.integers(1, 12)), [f"d{i:02d}" for i in range(15)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc_ids = np.array([rng.choice(pool, size=width, replace=False) for _ in range(n_queries)],
                       dtype=object).reshape(n_queries, width)
    scores = np.sort(rng.normal(size=(n_queries, width)), axis=1)[:, ::-1].copy()
    judged = []  # per query: absent from the qrels, all-zero grades, or random grades
    for q in range(n_queries):
        kind = draw(st.sampled_from(["absent", "zero", "graded"]))
        if kind != "absent":
            docs = rng.choice(pool, size=int(rng.integers(1, 8)), replace=False).tolist()
            judged += [(q + 1, d, 0 if kind == "zero" else int(rng.integers(0, 4))) for d in docs]
    return [q + 1 for q in range(n_queries)], doc_ids, scores, judged


def qrels_of(judged) -> Qrels:
    qrels = Qrels()
    for query_id, doc_id, grade in judged:
        qrels.add(query_id, doc_id, grade)
    return qrels


@given(rankings_and_qrels(), st.integers(1, 15))
def test_mean_ndcg_of_a_ranking_is_the_mean_over_its_lists(case, k):
    """Rows shorter and longer than k, queries absent from the qrels and all-zero grades."""
    query_ids, doc_ids, scores, judged = case
    ranks = doc_id_ranks(sorted(set(doc_ids.ravel().tolist())))  # any ints will do
    ranking = Ranking(query_ids, doc_ids, np.resize(ranks, doc_ids.shape), scores)
    lists = [RankedList.from_arrays(q, doc_ids[i], scores[i]) for i, q in enumerate(query_ids)]
    expected = former_mean_ndcg(lists, qrels_of(judged), k)
    assert as_bytes(mean_ndcg(ranking, qrels_of(judged), k)) == as_bytes(expected)
    qrels = qrels_of(judged)
    for ranked in lists:
        entry = qrels.judgments.get(ranked.query_id, {})
        assert as_bytes(ndcg_at_k(ranked, entry, k)) == as_bytes(former_ndcg_at_k(ranked, entry, k))


def test_mean_ndcg_of_a_ranking_builds_no_list(monkeypatch):
    doc_ids = np.array([["a", "b", "c"], ["c", "a", "b"]], dtype=object)
    ranking = Ranking([1, 2], doc_ids, np.zeros((2, 3), dtype=np.intp), np.array([[3.0, 2.0, 1.0]] * 2))
    qrels = qrels_of([(1, "a", 1), (2, "b", 2)])
    expected = former_mean_ndcg(list(ranking), qrels_of([(1, "a", 1), (2, "b", 2)]), 10)
    monkeypatch.setattr(RankedList, "__post_init__", lambda self: pytest.fail("built a list"))
    assert mean_ndcg(ranking, qrels, 10) == expected


def test_dev_lines_of_train_dense_and_select_train_build_no_list(tmp_path, monkeypatch):
    """Both stages score their dev rankings by mean_ndcg on a Ranking's rows."""
    runner = StageRunner(stage_config(tmp_path))
    for stage in ("ingest", "index", "synth-weak", "dapt"):
        runner.run(stage)
    monkeypatch.setattr(RankedList, "__post_init__", lambda self: pytest.fail("built a list"))
    runner.run("train-dense")
    runner.run("select-train")


# -- (d) synthesis -----------------------------------------------------------

def outcome(call, *args):
    """The query string, or the class of the generation error raised."""
    try:
        return call(*args)
    except (GenerationError, DegeneratePairError) as exc:
        return type(exc)


@pytest.mark.parametrize("with_view", [False, True])
def test_salience_queries_are_the_former_generators(separable, with_view):
    """Every document's query, and the contrast query of every pair drawn, with
    a query-term cap below and above the documents' content terms."""
    docs, index = separable["docs"], separable["index"]
    view = corpus_terms(docs) if with_view else None
    rng = np.random.default_rng(5)
    for cap in (1, 3, 6, 50):
        new = SalienceQueryGenerator(index, cap, view=view, docs=docs)
        old = FormerSalienceQueryGenerator(index, cap, view=view, docs=docs)
        for doc in docs:
            assert outcome(new.generate, doc) == outcome(old.generate, doc)
        for a, b in rng.integers(len(docs), size=(300, 2)).tolist():
            assert outcome(new.contrast_generate, docs[a], docs[b]) == \
                outcome(old.contrast_generate, docs[a], docs[b])


def synthesized(synthesize, *args, **kwargs):
    """The records and the (category, message) of every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = synthesize(*args, **kwargs)
    return records, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("count, seed, depth, include_stage1, with_view", [
    (25, 3, 20, False, True), (40, 7, 2, True, False), (10, 1, 5, False, False)])
def test_synthesis_records_are_the_former_search_topk_loop(separable, count, seed, depth,
                                                           include_stage1, with_view):
    docs, index = separable["docs"], separable["index"]
    view = corpus_terms(docs) if with_view else None
    args = (docs, index, count, seed, depth)
    kwargs = {"include_stage1": include_stage1, "view": view}
    got = synthesized(synthesize_with_provenance, *args, **kwargs)
    assert got == synthesized(former_synthesize_with_provenance, *args, **kwargs)
    assert len(got[0]) == count * (1 + include_stage1)


def test_synthesis_records_match_on_a_pretrain_shaped_corpus():
    """A corpus of the pretrain-2k workload's shape, at its triple count."""
    shape = CorpusShape(n_topics=40, docs_per_topic=50, doc_len=28, own_words=10, shared_words=6,
                        background_words=60, queries_per_topic=1)
    docs = make_corpus(shape, 7).docs
    view = corpus_terms(docs)
    index = build_index(docs, view)
    got = synthesized(synthesize_with_provenance, docs, index, 100, view=view)
    assert got == synthesized(former_synthesize_with_provenance, docs, index, 100, view=view)
    assert len(got[0]) == 100 and not got[1]


@pytest.mark.parametrize("n_twins", [2, 40])
def test_a_shortfall_warns_as_the_former_loop_did(n_twins):
    """Every pair of twin documents is degenerate: two twins make no triple, and
    forty twins beside one other document make some of the ten asked for."""
    docs = [Document(f"a{i:02d}", "alpha beta gamma", "") for i in range(n_twins)]
    docs += [Document("z", "delta", "")] if n_twins > 2 else []
    index = build_index(docs)
    got = synthesized(synthesize_with_provenance, docs, index, 10, 0, 2)
    assert got == synthesized(former_synthesize_with_provenance, docs, index, 10, 0, 2)
    assert got[1] == [(ToolkitWarning, f"assembled only {len(got[0])} of 10 requested weak triples")]
    assert (0 < len(got[0])) == (n_twins > 2)
