"""Tests of the benchmark's own logic (run with PYTHONPATH=src from the repo root)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import run
from corpus_gen import PROBE_QUERIES_PER_TOPIC, CorpusShape, make_corpus, write_inputs
from ranklab.sparse import build_index, coverage_at_k, search_topk
from ranklab.synthetic import make_separable_corpus
from tracer import Tracer, layer_units, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


@pytest.mark.parametrize("samples, expected", [
    (5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile([3.0], 99.0) == 3.0
    assert percentile([4, 1, 3, 2], 50.0) == 2


def test_self_time_subtracts_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def span(name, start, end, children=()):
        now[0] = start
        tracer.enter()
        for child in children:
            child()
        now[0] = end
        tracer.exit(name)

    # A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,7]
    span("A", 0.0, 10.0, [
        lambda: span("B", 1.0, 4.0, [lambda: span("C", 2.0, 3.0)]),
        lambda: span("B", 5.0, 7.0),
    ])
    assert tracer.calls == {"C": 1, "B": 2, "A": 1}
    assert tracer.total == {"C": 1.0, "B": 5.0, "A": 10.0}
    assert tracer.self_time == {"C": 1.0, "B": 4.0, "A": 5.0}
    assert list(tracer.durations["B"]) == [3.0, 2.0]


def _program_recall(docs, queries, qrels, k):
    index = build_index(docs)
    run_ = {q.query_id: search_topk(index, q, k) for q in queries}
    return coverage_at_k(run_, qrels, k)


def test_bm25_oracle_matches_search_topk_on_fixture():
    docs, queries, qrels = make_separable_corpus()
    for k in (5, 20, 100):
        assert abs(checks.oracle_recall(docs, queries, qrels, k)
                   - _program_recall(docs, queries, qrels, k)) <= 1e-9


def test_bm25_oracle_matches_search_topk_on_overlapping_topics():
    shape = CorpusShape(n_topics=6, docs_per_topic=15, doc_len=10, own_words=4,
                        shared_words=3, background_words=10, queries_per_topic=4)
    docs, queries, qrels, _, _ = make_corpus(shape, seed=5)
    for k in (3, 10, 40):
        assert abs(checks.oracle_recall(docs, queries, qrels, k)
                   - _program_recall(docs, queries, qrels, k)) <= 1e-9


def test_generator_is_deterministic_per_seed():
    shape = CorpusShape(n_topics=4, docs_per_topic=5, doc_len=8)
    first, second, other = (make_corpus(shape, s) for s in (3, 3, 4))
    assert first.docs == second.docs and first.queries == second.queries
    assert first.qrels.judgments == second.qrels.judgments
    assert first.probe_queries == second.probe_queries
    assert [d.text() for d in first.docs] != [d.text() for d in other.docs]
    # every seed asks for the same amount of work
    assert ([len(d.text().split()) for d in first.docs]
            == [len(d.text().split()) for d in other.docs])
    assert len(first.queries) == 4 * shape.queries_per_topic
    assert len(first.probe_queries) == 4 * PROBE_QUERIES_PER_TOPIC
    # probe queries are never judged in the qrels the program reads
    assert not set(first.probe_qrels.judgments) & set(first.qrels.judgments)


def test_run_file_check_flags_duplicates_and_missing_queries(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 a 1 2.0 t\n1 Q0 b 2 1.0 t\n2 Q0 a 1 1.0 t\n2 Q0 a 2 0.5 t\n")
    problems = checks.run_file_problems(path, [1, 2, 3], ["a", "b"])
    assert any("duplicate" in p for p in problems)
    assert any("without a ranking" in p for p in problems)
    assert checks.run_file_problems(path, [1], ["a", "b"]) == [
        "query 2: duplicate or unknown doc ids"]


def test_git_sha_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    assert run.git_sha(git) == "unknown"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_sha(git) == "unknown"
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "abc123 refs/heads/main\nfff000 refs/heads/other\n")
    assert run.git_sha(git) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_sha(git) == "def456"
    (git / "HEAD").write_text("0123abcd\n")
    assert run.git_sha(git) == "0123abcd"


def test_timings_scale_with_host_speed():
    manifest = [{"stage": s, "wall_time_s": 0.5} for s in run.STAGES]
    rep = run.Rep(wall=6.0, exit_code=0, peak_rss_mb=50.0, manifest=manifest, stderr_tail="")
    as_measured = run.timing_metrics([rep], 10, speed=1.0)
    assert as_measured["wall_s"] == 6.0
    assert as_measured["setup_s"] == 1.0
    assert as_measured["rank_s"] == 2.0
    assert as_measured["rerank_qps"] == 20.0
    # a host probed twice as slow as the reference halves the timings
    scaled = run.timing_metrics([rep], 10, speed=0.5)
    assert scaled["wall_s"] == 3.0
    assert scaled["setup_s"] == 0.5
    assert scaled["rank_s"] == 1.0
    assert scaled["rerank_qps"] == 40.0
    assert scaled["peak_rss_mb"] == 50.0


def test_probe_does_fixed_work():
    first, second = hostspeed._round(), hostspeed._round()
    assert first == second
    assert hostspeed.probe_seconds() > 0.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units(run.STAGES)


def test_traced_child_counts_calls_in_every_namespace(tmp_path):
    docs, queries, qrels = make_separable_corpus()
    inputs = write_inputs(docs, queries, qrels, tmp_path)
    spans = tmp_path / "spans.json"
    settings = {"mlm_epochs": "1", "dense_epochs": "1", "select_steps": "2",
                "triples_count": "10"}
    argv = run.pipeline_argv(inputs, tmp_path / "wd", settings)
    env = {**run.child_env(), "PYTHONPATH": f"{REPO / 'src'}"}
    done = subprocess.run([sys.executable, str(HERE / "traced_child.py"), str(spans), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dump = json.loads(spans.read_text())
    assert all(dump["calls"][f"cli.stage.{s}"] == 1 for s in run.STAGES)
    # synth-weak, select-train, rerank, depth-sweep and analyze each load the index
    assert dump["calls"]["sparse.InvertedIndex.load"] == 5
    # cli, weaksup and rerank call these through names imported from their modules
    assert dump["calls"]["sparse.search_topk"] > 0
    assert dump["calls"]["sparse.bm25_score"] > 0
    assert dump["calls"]["subword.tokenize"] > 0
    for name, total in dump["total"].items():
        assert 0.0 <= dump["self_time"][name] <= total + 1e-9
    manifest = checks.read_manifest(tmp_path / "wd")
    assert [m["stage"] for m in manifest] == list(run.STAGES)
