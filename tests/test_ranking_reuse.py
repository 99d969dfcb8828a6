"""Within one StageRunner, the ranking stages reuse the lists the training stages built.

select-train builds every query's BM25 candidates at max(select_depth, topk), and
under --fusion union and rrf train-dense's last dev dense_top_k runs at
max(DEV_K, topk); each is held under the queries file, the files and the settings
it is built from, and each reader takes its own depth's prefix. So rerank,
evaluate and depth-sweep build no BM25 candidates or dense lists while those files
and settings are the same; under union rerank builds the fused candidates once,
from the held dense lists. A rewritten file or another setting is read or built
again, as every memoized result is. rerank keeps the run it writes as read_run
would parse run.trec back, so evaluate parses no run. A query's ideal DCG is
summed once per (k, gain) and dropped when Qrels.add changes its judgments.
"""

import dataclasses
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklab import dense, rerank
from ranklab.cli import EXIT_NUMERIC, STAGES, StageRunner, main
from ranklab.corpus import Qrels
from ranklab.errors import NumericError
from ranklab.evaluation import DEV_K, ndcg_at_k, read_run
from ranklab.sparse import RankedList
from test_evaluation import oracle_ndcg
from test_stage_memo import _config, _counting, _stopwords

def _run_stages(runner, stages):
    for stage in stages:
        runner.run(stage)


def _count_candidates(monkeypatch, calls):
    real = rerank.FeatureExtractor.candidates
    monkeypatch.setattr(rerank.FeatureExtractor, "candidates",
                        lambda self, *args: calls.append(args[1]) or real(self, *args))


def test_evaluate_parses_no_run_after_rerank(tmp_path, monkeypatch):
    calls = []
    _counting(monkeypatch, "read_run", calls)
    _run_stages(StageRunner(_config(tmp_path)), STAGES)
    assert calls == []


def test_a_run_rewritten_after_rerank_is_parsed_and_scored(tmp_path, monkeypatch):
    config = _config(tmp_path)
    calls = []
    _counting(monkeypatch, "read_run", calls)
    runner = StageRunner(config)
    _run_stages(runner, STAGES[:STAGES.index("evaluate") + 1])
    report = tmp_path / "work" / "report.txt"
    before = report.read_bytes()
    run = tmp_path / "work" / "run.trec"
    first = run.read_text().split()[0]
    run.write_text("".join(line + "\n" for line in run.read_text().splitlines()
                           if line.split()[0] == first))
    runner.run("evaluate")
    assert calls == ["read_run"]
    rescored = report.read_bytes()
    assert rescored != before
    StageRunner(config).run("evaluate")
    assert report.read_bytes() == rescored


@pytest.mark.parametrize("fusion", ["none", "interp", "union", "rrf", "no queries"])
def test_the_kept_run_is_what_read_run_parses(tmp_path, fusion):
    config = _config(tmp_path, fusion="none" if fusion == "no queries" else fusion)
    runner = StageRunner(config)
    _run_stages(runner, STAGES[:STAGES.index("rerank")])
    if fusion == "no queries":
        Path(config.queries_path).write_text("")
    runner.run("rerank")
    path = tmp_path / "work" / "run.trec"
    kept, parsed = runner.parsed[path, read_run][1], read_run(path)
    assert kept == parsed
    assert list(kept.rankings) == list(parsed.rankings)
    assert kept.tag == parsed.tag == ("external" if fusion == "no queries" else config.run_tag)


@pytest.mark.parametrize("fusion, builds", [("none", 1), ("interp", 1), ("union", 2), ("rrf", 1)])
def test_the_ranking_stages_build_one_candidate_set(tmp_path, monkeypatch, fusion, builds):
    """select-train builds the one BM25 candidate set, as deep as a later stage reads it;
    rerank, evaluate and depth-sweep build none but union's fused set."""
    runner = StageRunner(_config(tmp_path, fusion=fusion))
    _run_stages(runner, STAGES[:STAGES.index("select-train")])
    calls = []
    _count_candidates(monkeypatch, calls)
    _run_stages(runner, STAGES[STAGES.index("select-train"):])
    c = runner.config
    assert calls == [max(c.select_depth, c.topk)] + [c.topk] * (builds - 1)


@pytest.mark.parametrize("fusion", ["union", "rrf"])
def test_the_ranking_stages_build_one_set_of_dense_lists(tmp_path, monkeypatch, fusion):
    """train-dense's one dev evaluation (the last epoch) builds the run's dense lists."""
    runner = StageRunner(_config(tmp_path, fusion=fusion))
    _run_stages(runner, STAGES[:STAGES.index("train-dense")])
    calls = []
    real = dense.dense_top_k
    monkeypatch.setattr(dense, "dense_top_k", lambda *args: calls.append(args[3]) or real(*args))
    _run_stages(runner, STAGES[STAGES.index("train-dense"):])
    assert calls == [max(DEV_K, runner.config.topk)]


def test_a_union_depth_sweep_sweeps_the_fused_candidates(tmp_path, monkeypatch):
    config = _config(tmp_path, fusion="union")
    runner = StageRunner(config)
    _run_stages(runner, STAGES[:STAGES.index("rerank")])
    runner.run("rerank")
    fused = runner.parsed[Path(config.queries_path), StageRunner._lists][1][0]
    swept = []
    real = rerank.rerank
    monkeypatch.setattr(rerank, "rerank", lambda r, candidates, *args:
                        swept.append(candidates.doc_ids) or real(r, candidates, *args))
    _run_stages(runner, STAGES[STAGES.index("rerank") + 1:])
    sweep = tmp_path / "work" / "depth_sweep.tsv"
    kept = sweep.read_bytes()
    StageRunner(config).run("depth-sweep")  # alone, in a new runner
    assert sweep.read_bytes() == kept
    StageRunner(dataclasses.replace(config, fusion="none")).run("depth-sweep")
    in_pipeline, alone, unfused = swept[::len(config.depth_list())]  # one rerank per depth
    assert (in_pipeline == fused.doc_ids).all() and (alone == fused.doc_ids).all()
    assert not (unfused == fused.doc_ids).all()


def _rewrite_queries(runner):
    path = Path(runner.config.queries_path)
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines()[1:]))


def _set_topk(runner):
    runner.config = dataclasses.replace(runner.config, topk=7)


def _rewrite_artifact(name):
    def rewrite(runner):
        path = Path(runner.config.workdir) / name
        data = path.read_bytes()
        path.unlink()  # a new inode, as a rerun of the stage that writes it gives
        path.write_bytes(data)
    return rewrite


_rewrite_encoder = _rewrite_artifact("encoder.ckpt")


def _setting(**values):
    def change(runner):
        runner.config = dataclasses.replace(runner.config, **values)
    return change


def _rewrite_stopwords(runner):
    """Make the first query's first term a stopword, which changes that query's lists."""
    path = Path(runner.config.stopwords_path)
    term = Path(runner.config.queries_path).read_text().split()[1]
    path.write_text(path.read_text() + term + "\n")


@pytest.mark.parametrize("fusion", ["none", "union", "rrf"])
@pytest.mark.parametrize("change", [_set_topk, _rewrite_queries, _rewrite_encoder],
                         ids=["topk", "queries", "encoder"])
def test_depth_sweep_builds_candidates_again_when_an_input_changes(tmp_path, monkeypatch, change,
                                                                   fusion):
    runner = StageRunner(_config(tmp_path, fusion=fusion))
    calls, dense_calls = [], []
    _count_candidates(monkeypatch, calls)  # before rerank keeps its lists
    real = dense.dense_top_k
    monkeypatch.setattr(dense, "dense_top_k", lambda *args: dense_calls.append(args[3]) or real(*args))
    _run_stages(runner, STAGES[:STAGES.index("rerank") + 1])
    change(runner)
    calls.clear()
    dense_calls.clear()
    runner.run("depth-sweep")
    c = runner.config  # union builds its fused set at topk, the others their BM25 set
    assert calls == [c.topk if fusion == "union" else max(c.select_depth, c.topk)]
    assert dense_calls == ([] if fusion == "none" else [max(DEV_K, c.topk)])
    sweep = tmp_path / "work" / "depth_sweep.tsv"
    kept = sweep.read_bytes()
    StageRunner(runner.config).run("depth-sweep")
    assert sweep.read_bytes() == kept


# (change, whether the dense lists are stale after it): they read neither index.bin nor k1 nor b
STALE_AFTER = [(_rewrite_encoder, True), (_rewrite_artifact("dense_index.bin"), True),
               (_rewrite_artifact("index.bin"), False), (_rewrite_artifact("vocab.json"), True),
               (_rewrite_queries, True), (_setting(k1=0.5), False), (_setting(b=0.2), False),
               (_setting(max_seq_len=2), True), (_rewrite_stopwords, True)]


@pytest.mark.parametrize("fusion", ["none", "union", "rrf"])
@pytest.mark.parametrize("change, dense_stale", STALE_AFTER, ids=[
    "encoder", "dense_index", "index", "vocab", "queries", "k1", "b", "max_seq_len", "stopwords"])
def test_rerank_builds_its_own_lists_when_an_input_changes(tmp_path, monkeypatch, change, dense_stale,
                                                           fusion):
    """A file or setting changed between the training stages and rerank makes rerank build
    the lists it reads, so its run.trec is a fresh runner's."""
    runner = StageRunner(_config(tmp_path, fusion=fusion, stopwords_path=_stopwords(tmp_path)))
    _run_stages(runner, STAGES[:STAGES.index("rerank")])
    change(runner)
    calls, dense_calls = [], []
    _count_candidates(monkeypatch, calls)
    real = dense.dense_top_k
    monkeypatch.setattr(dense, "dense_top_k", lambda *args: dense_calls.append(args[3]) or real(*args))
    runner.run("rerank")
    c = runner.config
    assert calls == [c.topk if fusion == "union" else max(c.select_depth, c.topk)]
    assert dense_calls == ([max(DEV_K, c.topk)] if dense_stale and fusion != "none" else [])
    run = tmp_path / "work" / "run.trec"
    kept = run.read_bytes()
    StageRunner(c).run("rerank")
    assert run.read_bytes() == kept


DOCS = [f"d{i}" for i in range(12)]
ORACLE_GAINS = {"linear": lambda g: g, "exp": lambda g: 2**g - 1}


@settings(max_examples=60, deadline=None)
@given(grades=st.dictionaries(st.sampled_from(DOCS), st.integers(0, 40), min_size=1),
       ranked=st.permutations(DOCS), k=st.integers(1, 14),
       gain=st.sampled_from(sorted(ORACLE_GAINS)),
       added=st.tuples(st.sampled_from(DOCS), st.integers(0, 40)))
def test_the_kept_ideal_dcg_scores_as_the_oracle(grades, ranked, k, gain, added):
    qrels = Qrels()
    for doc_id, grade in grades.items():
        qrels.add(1, doc_id, grade)
    ranking = RankedList.from_scores(1, [(d, float(-i)) for i, d in enumerate(ranked)])
    g = ORACLE_GAINS[gain]
    for _ in range(2):  # the second call reads the kept ideal DCG
        assert ndcg_at_k(ranking, qrels.judgments[1], k, gain) == oracle_ndcg(ranked, grades, k, g)
    qrels.add(1, *added)
    grades = {**grades, added[0]: added[1]}
    assert ndcg_at_k(ranking, qrels.judgments[1], k, gain) == oracle_ndcg(ranked, grades, k, g)


@pytest.mark.parametrize("grade, gain", [(1023, "exp"), (10**308, "linear")], ids=["exp-1023", "linear-1e308"])
def test_an_ideal_dcg_that_overflows_is_a_numeric_error(grade, gain):
    ranking = RankedList.from_scores(7, [("a", 1.0)])
    with pytest.raises(NumericError, match="query 7"):
        ndcg_at_k(ranking, {"a": grade, "b": grade, "c": grade}, 10, gain)
    assert ndcg_at_k(ranking, {"a": grade}, 10, gain) == 1.0


@pytest.fixture(scope="module")
def ranked(tmp_path_factory):
    """Fixture inputs and a work directory holding every artifact up to run.trec."""
    root = tmp_path_factory.mktemp("ranked")
    config = _config(root)
    _run_stages(StageRunner(config), STAGES[:STAGES.index("rerank") + 1])
    return root


@pytest.mark.parametrize("stage, grade, flags, report", [
    ("evaluate", "1023", ["--gain", "exp"], "report.txt"),
    ("depth-sweep", "1" + "0" * 308, [], "depth_sweep.tsv"),
], ids=["evaluate-exp", "depth-sweep-linear"])
def test_overflowing_ndcg_is_one_line_exit_4(ranked, tmp_path, capsys, stage, grade, flags, report):
    root = tmp_path / "root"
    shutil.copytree(ranked, root)
    qrels = root / "qrels.txt"
    qrels.write_text(qrels.read_text() + "".join(f"99 0 t00d0{i} {grade}\n" for i in range(3)))
    capsys.readouterr()
    code = main([stage, *flags, "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(qrels),
                 "--workdir", str(root / "work")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert err == "numeric error: ideal DCG@10 of query 99 overflows a float\n"
    assert not (root / "work" / report).exists()


def test_an_entry_given_as_a_plain_dict_takes_more_grades():
    qrels = Qrels({1: {"a": 1}})
    qrels.add(1, "b", 2)
    ranking = RankedList.from_scores(1, [("b", 1.0), ("a", 0.0)])
    assert ndcg_at_k(ranking, qrels.judgments[1], 10) == 1.0


def _count_reranks(monkeypatch, calls):
    real = rerank.rerank
    monkeypatch.setattr(rerank, "rerank", lambda r, candidates, depth, *args:
                        calls.append(depth) or real(r, candidates, depth, *args))


def _count_ranked_lists(monkeypatch, calls):
    real = RankedList.__post_init__
    monkeypatch.setattr(RankedList, "__post_init__", lambda self: calls.append(self.query_id) or real(self))


FUSIONS = ["none", "interp", "union", "rrf"]


@pytest.mark.parametrize("fusion", FUSIONS)
def test_depth_sweep_reads_the_ranking_rerank_held(tmp_path, monkeypatch, fusion):
    """rerank ranks once; depth-sweep ranks only at its other depths, and builds no RankedList."""
    runner = StageRunner(_config(tmp_path, fusion=fusion))
    _run_stages(runner, STAGES[:STAGES.index("rerank")])
    reranks, lists = [], []
    _count_reranks(monkeypatch, reranks)
    _run_stages(runner, ["rerank", "evaluate"])
    c = runner.config
    assert reranks == [c.depth]
    reranks.clear()
    _count_ranked_lists(monkeypatch, lists)
    runner.run("depth-sweep")
    assert c.depth in c.depth_list()
    assert reranks == [d for d in c.depth_list() if d != c.depth]
    assert lists == []


def _rewrite_ranker(runner):
    path = Path(runner.config.workdir) / "ranker.ckpt"
    ranker = rerank.Ranker.load(path)
    path.unlink()  # a new inode, as a rerun of select-train gives
    rerank.Ranker(ranker.weights[::-1]).save(path)


NEXT_FUSION = dict(zip(FUSIONS, FUSIONS[1:] + FUSIONS[:1]))


def _next_fusion(runner):
    runner.config = dataclasses.replace(runner.config, fusion=NEXT_FUSION[runner.config.fusion])


@pytest.mark.parametrize("fusion", FUSIONS)
@pytest.mark.parametrize("change", [_rewrite_ranker, _setting(alpha=0.2), _setting(rrf_k=7), _next_fusion,
                                    _setting(depth=50)], ids=["ranker", "alpha", "rrf_k", "fusion", "depth"])
def test_depth_sweep_ranks_again_when_the_held_rankings_inputs_change(tmp_path, monkeypatch, change, fusion):
    runner = StageRunner(_config(tmp_path, fusion=fusion))
    _run_stages(runner, STAGES[:STAGES.index("rerank") + 1])
    change(runner)
    reranks = []
    _count_reranks(monkeypatch, reranks)
    runner.run("depth-sweep")
    assert reranks == runner.config.depth_list()
    sweep = tmp_path / "work" / "depth_sweep.tsv"
    kept = sweep.read_bytes()
    StageRunner(runner.config).run("depth-sweep")
    assert sweep.read_bytes() == kept
