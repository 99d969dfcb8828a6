import math
import random
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranklab.corpus import Document, Qrels
from ranklab.errors import EmptyCorpusError, UndefinedMetricError
from ranklab.sparse import (
    InvertedIndex,
    RankedList,
    bm25_score,
    build_index,
    coverage_at_k,
    idf,
    search_topk,
)

K1, B = 0.9, 0.4


def oracle_scores(doc_term_lists, query_terms, k1=K1, b=B):
    """Brute-force BM25 over raw term lists, independent of the index."""
    n = len(doc_term_lists)
    lengths = [len(t) for t in doc_term_lists]
    avgdl = sum(lengths) / n
    dfs = Counter()
    for terms in doc_term_lists:
        dfs.update(set(terms))
    scores = []
    for terms, length in zip(doc_term_lists, lengths):
        counts = Counter(terms)
        score = 0.0
        for t in query_terms:
            tf = counts[t]
            if tf == 0:
                continue
            df = dfs[t]
            t_idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            ratio = length / avgdl if avgdl else 0.0
            score += t_idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * ratio))
        scores.append(score)
    return scores


def reference_search_topk(index, query_terms, k):
    """The former search, kept as the oracle: the whole corpus sorted by
    (-score, doc_id), then cut at k."""
    scores = [bm25_score(index, query_terms, o) for o in range(index.doc_count)]
    order = sorted(range(index.doc_count), key=lambda o: (-scores[o], index.doc_ids[o]))
    return tuple((index.doc_ids[o], scores[o]) for o in order[:k])


# unique ids that are often prefixes of one another ("d1", "d10", "d1a"),
# non-ASCII, or end in a NUL that numpy's unicode comparison would drop
tricky_doc_ids = st.lists(st.text(alphabet="d1a0\x00\u00e9\u0394", min_size=1, max_size=4),
                          min_size=1, max_size=14, unique=True)


def random_corpus(rng, n_docs, vocab):
    docs = []
    for i in range(n_docs):
        n_terms = rng.randint(1, 12)
        words = [rng.choice(vocab) for _ in range(n_terms)]
        docs.append(Document(f"doc{i:03d}", " ".join(words[:2]), " ".join(words[2:])))
    return docs


class TestRankedList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RankedList(1, (("a", 2.0), ("a", 1.0)))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            RankedList(1, (("a", 1.0), ("b", 2.0)))
        with pytest.raises(ValueError):
            RankedList(1, (("b", 1.0), ("a", 1.0)))

    def test_from_scores_applies_tie_rule(self):
        rl = RankedList.from_scores(1, [("b", 1.0), ("a", 1.0), ("c", 2.0)])
        assert rl.doc_ids() == ["c", "a", "b"]


class TestBuildIndex:
    def test_hand_counts(self):
        index = build_index([Document("d1", "a a b", "")])
        assert index.postings["a"] == [(0, 2)]
        assert index.postings["b"] == [(0, 1)]
        assert index.avg_doc_length == 3

    def test_identical_docs_identical_rows(self):
        index = build_index([Document("x", "a b a", ""), Document("y", "a b a", "")])
        assert index.postings["a"] == [(0, 2), (1, 2)]
        assert index.postings["b"] == [(0, 1), (1, 1)]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_index([])

    def test_avgdl_invariant(self, separable):
        index = separable["index"]
        assert index.avg_doc_length == pytest.approx(
            sum(index.doc_lengths) / index.doc_count, rel=1e-12)

    def test_save_load_round_trip(self, tmp_path, separable):
        index = separable["index"]
        path = tmp_path / "index.bin"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.doc_ids == index.doc_ids


class TestBm25Score:
    def test_no_query_term_in_doc(self):
        index = build_index([Document("d", "a b", "")])
        assert bm25_score(index, ["z"], 0) == 0.0

    def test_hand_value(self):
        # N=1, df=1, tf=1, |d|=avgdl: idf = ln(4/3), tf part = 1
        index = build_index([Document("d", "term", "")])
        assert bm25_score(index, ["term"], 0) == pytest.approx(math.log(4 / 3), abs=1e-6)

    def test_tf_monotonicity(self):
        low = build_index([Document("d", "x y y y", "")])
        high = build_index([Document("d", "x x y y", "")])
        assert bm25_score(high, ["x"], 0) >= bm25_score(low, ["x"], 0)

    def test_non_negative(self):
        rng = random.Random(7)
        docs = random_corpus(rng, 20, list(string.ascii_lowercase[:6]))
        index = build_index(docs)
        for ordinal in range(20):
            assert bm25_score(index, ["a", "b", "c"], ordinal) >= 0.0


class TestSearchTopk:
    def test_single_doc(self):
        index = build_index([Document("d", "covid spread", "")])
        out = search_topk(index, ["covid"], 1)
        assert out.doc_ids() == ["d"]

    def test_matches_bruteforce_on_random_corpora(self):
        rng = random.Random(13)
        vocab = [f"w{i}" for i in range(15)]
        for _ in range(100):
            n_docs = rng.randint(2, 50)
            docs = random_corpus(rng, n_docs, vocab)
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
            index = build_index(docs)
            got = search_topk(index, query, n_docs)
            term_lists = [d.text().split() for d in docs]
            expected = oracle_scores(term_lists, query)
            order = sorted(range(n_docs), key=lambda i: (-expected[i], docs[i].doc_id))
            assert got.doc_ids() == [docs[i].doc_id for i in order]
            for (_, score), i in zip(got.entries, order):
                assert score == pytest.approx(expected[i], abs=1e-9)

    def test_equal_scores_lower_doc_id_first(self):
        index = build_index([Document("b", "same text", ""), Document("a", "same text", "")])
        out = search_topk(index, ["same"], 2)
        assert out.doc_ids() == ["a", "b"]

    def test_tie_order_is_python_string_order(self):
        # numpy's unicode comparison drops trailing NULs and would tie "d1\0" with "d1"
        ids = ["d1\x00", "d1a", "é", "d10", "d1"]
        index = build_index([Document(d, "same text", "") for d in ids])
        assert search_topk(index, ["same"], 5).doc_ids() == sorted(ids)

    def test_irrelevant_doc_preserves_relative_order(self):
        base = [Document("a", "x x y", ""), Document("b", "x y y", "")]
        with_extra = base + [Document("c", "z z z", "")]
        first = search_topk(build_index(base), ["x"], 2)
        second = search_topk(build_index(with_extra), ["x"], 3)
        assert [d for d in second.doc_ids() if d in ("a", "b")] == first.doc_ids()

    def test_k_larger_than_corpus(self):
        index = build_index([Document("d", "x", "")])
        assert len(search_topk(index, ["x"], 10).entries) == 1

    @given(tricky_doc_ids, st.data())
    def test_matches_former_full_sort(self, doc_ids, data):
        # a three-term vocabulary and short documents give heavy score ties;
        # "w" is never indexed, so a query of it alone scores every doc 0
        texts = data.draw(st.lists(
            st.lists(st.sampled_from("xyz"), max_size=3).map(" ".join),
            min_size=len(doc_ids), max_size=len(doc_ids)))
        index = build_index([Document(d, t, "") for d, t in zip(doc_ids, texts)])
        query = data.draw(st.lists(st.sampled_from("xyzw"), min_size=1, max_size=3))
        for terms in (query, ["w"]):
            for k in range(1, len(doc_ids) + 3):
                expected = reference_search_topk(index, terms, k)
                assert search_topk(index, terms, k).entries == expected, (terms, k)


class TestCoverage:
    def make_run(self, entries_by_query):
        return {
            qid: RankedList.from_scores(qid, [(d, -i) for i, d in enumerate(docs)])
            for qid, docs in entries_by_query.items()
        }

    def test_full_coverage(self):
        qrels = Qrels({1: {"a": 1, "b": 2}})
        run = self.make_run({1: ["a", "b", "c"]})
        assert coverage_at_k(run, qrels, 3) == 1.0

    def test_thirty_five_percent(self):
        qrels = Qrels({1: {f"r{i}": 1 for i in range(20)}})
        ranked = [f"r{i}" for i in range(7)] + [f"x{i}" for i in range(93)]
        run = self.make_run({1: ranked})
        assert coverage_at_k(run, qrels, 100) == pytest.approx(0.35)

    def test_zero_when_absent(self):
        qrels = Qrels({1: {"missing": 1}})
        run = self.make_run({1: ["other"]})
        assert coverage_at_k(run, qrels, 10) == 0.0

    def test_undefined_without_judged_queries(self):
        with pytest.raises(UndefinedMetricError):
            coverage_at_k({}, Qrels({1: {"a": 0}}), 10)


def test_idf_non_negative_even_for_unseen_terms(separable):
    index = separable["index"]
    assert idf(index, "neverseen") >= 0.0
    assert idf(index, separable["docs"][0].title.split()[0]) >= 0.0


def test_concurrent_reads_match_sequential(separable):
    from concurrent.futures import ThreadPoolExecutor

    index = separable["index"]
    queries = [q.processed_terms for q in separable["queries"]]
    sequential = [search_topk(index, q, 20) for q in queries]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda q: search_topk(index, q, 20), queries))
    assert threaded == sequential
