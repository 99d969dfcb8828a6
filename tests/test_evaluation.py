import math
import random
from pathlib import Path

import pytest

from ranklab.corpus import Qrels
from ranklab.errors import ParseError, ToolkitWarning
from ranklab.evaluation import (
    QuerySplit,
    Run,
    load_split,
    ndcg_at_k,
    old_new_report,
    precision_at_k,
    read_qrels,
    read_run,
    residual_filter,
    write_run,
)
from ranklab.sparse import RankedList

DATA = Path(__file__).parent / "data"


def ranking(query_id, docs):
    return RankedList.from_scores(query_id, [(d, float(-i)) for i, d in enumerate(docs)])


def oracle_ndcg(ranked_docs, grades, k, gain=lambda g: g):
    """Brute-force NDCG with `gain` (default linear) and log2(r+1) discount."""
    dcg = 0.0
    for r, doc in enumerate(ranked_docs[:k], start=1):
        dcg += gain(grades.get(doc, 0)) / math.log2(r + 1)
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum(gain(g) / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def oracle_precision(ranked_docs, grades, k):
    return sum(1 for d in ranked_docs[:k] if grades.get(d, 0) > 0) / k


class TestNdcg:
    def test_perfect_ordering(self):
        grades = {"a": 3, "b": 2, "c": 1}
        assert ndcg_at_k(ranking(1, ["a", "b", "c"]), grades, 10) == pytest.approx(1.0)

    def test_hand_example(self):
        grades = {"d1": 2, "d2": 1}
        value = ndcg_at_k(ranking(1, ["d2", "d1", "d3"]), grades, 10)
        assert value == pytest.approx(0.859719, abs=1e-6)

    def test_all_grades_zero(self):
        assert ndcg_at_k(ranking(1, ["a", "b"]), {"a": 0, "b": 0}, 10) == 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(17)
        docs = [f"d{i}" for i in range(30)]
        for _ in range(100):
            ranked = rng.sample(docs, rng.randint(1, 30))
            grades = {d: rng.randint(0, 3) for d in rng.sample(docs, rng.randint(1, 20))}
            k = rng.randint(1, 15)
            got = ndcg_at_k(ranking(1, ranked), grades, k)
            assert abs(got - oracle_ndcg(ranked, grades, k)) <= 1e-9

    def test_invariant_below_k_and_appended_unjudged(self):
        grades = {"a": 2, "b": 1}
        base = ndcg_at_k(ranking(1, ["a", "b", "x", "y"]), grades, 2)
        permuted = ndcg_at_k(ranking(1, ["a", "b", "y", "x"]), grades, 2)
        extended = ndcg_at_k(ranking(1, ["a", "b", "x", "y", "z1", "z2"]), grades, 2)
        assert base == permuted == extended

    def test_exponential_gain_flag(self):
        grades = {"a": 2, "b": 1}
        linear = ndcg_at_k(ranking(1, ["b", "a"]), grades, 10, gain="linear")
        exp = ndcg_at_k(ranking(1, ["b", "a"]), grades, 10, gain="exp")
        dcg = 1 / math.log2(2) + 3 / math.log2(3)
        idcg = 3 / math.log2(2) + 1 / math.log2(3)
        assert exp == pytest.approx(dcg / idcg, abs=1e-12)
        assert exp != linear


class TestPrecision:
    def test_all_relevant(self):
        grades = {f"d{i}": 1 for i in range(5)}
        assert precision_at_k(ranking(1, list(grades)), grades, 5) == 1.0

    def test_two_of_five(self):
        grades = {"a": 1, "b": 2}
        assert precision_at_k(ranking(1, ["a", "x", "b", "y", "z"]), grades, 5) == 0.4

    def test_empty_ranking(self):
        assert precision_at_k(ranking(1, []), {"a": 1}, 5) == 0.0

    def test_short_ranking_counts_missing_as_nonrelevant(self):
        grades = {"a": 1}
        assert precision_at_k(ranking(1, ["a"]), grades, 5) == pytest.approx(0.2)

    def test_times_k_is_integer(self):
        rng = random.Random(3)
        for _ in range(50):
            docs = [f"d{i}" for i in rng.sample(range(20), rng.randint(1, 15))]
            grades = {d: rng.randint(0, 2) for d in docs[: rng.randint(0, len(docs))]}
            k = rng.randint(1, 10)
            value = precision_at_k(ranking(1, docs), grades, k)
            assert abs(value * k - round(value * k)) < 1e-9

    def test_matches_oracle(self):
        rng = random.Random(23)
        docs = [f"d{i}" for i in range(25)]
        for _ in range(100):
            ranked = rng.sample(docs, rng.randint(1, 25))
            grades = {d: rng.randint(0, 2) for d in rng.sample(docs, 10)}
            k = rng.randint(1, 12)
            got = precision_at_k(ranking(1, ranked), grades, k)
            assert abs(got - oracle_precision(ranked, grades, k)) <= 1e-9


class TestResidualFilter:
    def split(self):
        return QuerySplit.from_ids({1, 2}, {3})

    def test_fully_judged_ranking_becomes_empty(self):
        prior = Qrels({1: {"a": 1, "b": 0}})
        run = Run({1: ranking(1, ["a", "b"])})
        out = residual_filter(run, prior, self.split())
        assert out.rankings[1].entries == ()

    def test_new_query_untouched(self):
        prior = Qrels({3: {"a": 1}})
        run = Run({3: ranking(3, ["a", "b"])})
        out = residual_filter(run, prior, self.split())
        assert out.rankings[3] == run.rankings[3]

    def test_hand_application(self):
        prior = Qrels({1: {"d1": 1, "d3": 0}})
        run = Run({1: ranking(1, ["d1", "d2", "d3", "d4"])})
        out = residual_filter(run, prior, self.split())
        assert out.rankings[1].doc_ids() == ["d2", "d4"]

    def test_idempotent_and_exact(self):
        prior = Qrels({1: {"d1": 2, "d4": 0}, 2: {"x": 1}})
        run = Run({
            1: ranking(1, ["d1", "d2", "d3", "d4", "d5"]),
            2: ranking(2, ["x", "y"]),
            3: ranking(3, ["x", "d1"]),
        })
        once = residual_filter(run, prior, self.split())
        twice = residual_filter(once, prior, self.split())
        assert twice.rankings == once.rankings
        assert once.rankings[1].doc_ids() == ["d2", "d3", "d5"]
        assert once.rankings[2].doc_ids() == ["y"]
        assert once.rankings[3].doc_ids() == ["x", "d1"]  # new query keeps judged docs

    def test_residual_of_only_judged_docs_scores_zero(self):
        prior = Qrels({1: {"a": 1, "b": 1}})
        current = Qrels({1: {"c": 1}})
        run = Run({1: ranking(1, ["a", "b"])})
        filtered = residual_filter(run, prior, self.split())
        report = old_new_report(filtered, current, QuerySplit.from_ids({1}, set()))
        assert report.overall.ndcg == 0.0


class TestOldNewReport:
    def test_all_old_means_new_absent(self):
        qrels = Qrels({1: {"a": 1}, 2: {"b": 1}})
        run = Run({1: ranking(1, ["a"]), 2: ranking(2, ["b"])})
        report = old_new_report(run, qrels, QuerySplit.from_ids({1, 2}, set()))
        assert report.new is None
        assert report.old is not None and report.old.n_queries == 2

    def test_overall_is_mean_of_per_query(self):
        qrels = Qrels({1: {"a": 1}, 2: {"b": 1, "c": 1}})
        run = Run({1: ranking(1, ["x", "a"]), 2: ranking(2, ["b", "y", "c"])})
        report = old_new_report(run, qrels, QuerySplit.from_ids({1}, {2}), k=10)
        per_query = {r.query_id: r.ndcg for r in report.per_query}
        assert report.overall.ndcg == pytest.approx(
            (per_query[1] + per_query[2]) / 2, abs=1e-12)

    def test_group_means_match_hand_arithmetic(self):
        qrels = Qrels({
            1: {"a": 2, "b": 1},
            2: {"c": 1},
            3: {"d": 1, "e": 1},
        })
        run = Run({
            1: ranking(1, ["b", "a"]),
            2: ranking(2, ["x", "c"]),
            3: ranking(3, ["d", "e"]),
        })
        split = QuerySplit.from_ids({1, 2}, {3})
        report = old_new_report(run, qrels, split, k=10)
        n1 = oracle_ndcg(["b", "a"], qrels.judgments[1], 10)
        n2 = oracle_ndcg(["x", "c"], qrels.judgments[2], 10)
        n3 = oracle_ndcg(["d", "e"], qrels.judgments[3], 10)
        assert report.old.ndcg == pytest.approx((n1 + n2) / 2, abs=1e-9)
        assert report.new.ndcg == pytest.approx(n3, abs=1e-9)
        assert report.overall.ndcg == pytest.approx((n1 + n2 + n3) / 3, abs=1e-9)

    def test_no_relevant_query_flagged_and_skippable(self):
        qrels = Qrels({1: {"a": 0}, 2: {"b": 1}})
        run = Run({1: ranking(1, ["a"]), 2: ranking(2, ["b"])})
        split = QuerySplit.from_ids(set(), {1, 2})
        included = old_new_report(run, qrels, split)
        flagged = {r.query_id: r.no_relevant for r in included.per_query}
        assert flagged == {1: True, 2: False}
        assert included.overall.n_queries == 2
        skipped = old_new_report(run, qrels, split, skip_unjudgeable=True)
        assert skipped.overall.n_queries == 1

    def test_uncovered_query_rejected(self):
        qrels = Qrels({1: {"a": 1}})
        run = Run({1: ranking(1, ["a"])})
        with pytest.raises(ValueError):
            old_new_report(run, qrels, QuerySplit.from_ids(set(), set()))

    def test_renderings(self):
        qrels = Qrels({1: {"a": 1}})
        run = Run({1: ranking(1, ["a"])})
        report = old_new_report(run, qrels, QuerySplit.from_ids({1}, set()))
        text = report.to_text()
        assert "overall" in text and "absent" in text
        lines = [l for l in report.to_jsonl().splitlines() if l]
        assert len(lines) == 3  # overall group, old group, one query row


class TestRunIO:
    def test_write_read_round_trip(self, tmp_path):
        run = Run({
            1: ranking(1, ["a", "b"]),
            2: RankedList.from_scores(2, [("x", 1.5), ("y", 0.25)]),
        }, tag="trial")
        path = tmp_path / "run.trec"
        write_run(run, path)
        loaded = read_run(path)
        assert loaded.tag == "trial"
        assert loaded.rankings == run.rankings

    def test_single_entry_round_trip(self, tmp_path):
        run = Run({5: RankedList.from_scores(5, [("solo", 3.25)])})
        path = tmp_path / "run.trec"
        write_run(run, path)
        assert read_run(path).rankings[5].entries == (("solo", 3.25),)

    def test_external_reference_file(self):
        run = read_run(DATA / "sample_run.trec")
        assert run.tag == "sysA"
        assert run.rankings[1].doc_ids() == ["doc-b", "doc-a", "doc-c"]
        assert run.rankings[2].entries[0] == ("doc-a", 3.0)

    def test_noncontiguous_ranks_warn_and_renumber(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("1 Q0 a 1 2.0 t\n1 Q0 b 5 1.0 t\n")
        with pytest.warns(ToolkitWarning):
            run = read_run(path)
        assert run.rankings[1].doc_ids() == ["a", "b"]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("1 Q0 a 1 2.0 t\n1 Q0 b\n")
        with pytest.raises(ParseError, match=":2"):
            read_run(path)


class TestQrelsIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("")
        assert read_qrels(path).judgments == {}

    def test_three_line_fixture(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 a 2\n1 0 b 0\n2 0 c 1\n")
        qrels = read_qrels(path)
        assert qrels.judgments == {1: {"a": 2, "b": 0}, 2: {"c": 1}}

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 a 2\n1 0 a 1\n")
        with pytest.warns(ToolkitWarning):
            qrels = read_qrels(path)
        assert qrels.judgments[1]["a"] == 1

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 a -1\n")
        with pytest.raises(ParseError):
            read_qrels(path)

    def test_sample_file(self):
        qrels = read_qrels(DATA / "sample_qrels.txt")
        assert qrels.relevant_docs(1) == {"doc-a", "doc-b"}


class TestSplit:
    def test_load_split(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("1 old\n2 old\n3 new\n")
        split = load_split(path)
        assert split.old_query_ids == {1, 2}
        assert split.new_query_ids == {3}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            QuerySplit.from_ids({1}, {1})

    def test_bad_label(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("1 ancient\n")
        with pytest.raises(ParseError):
            load_split(path)
