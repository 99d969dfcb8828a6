"""Every committed paired benchmark result, BENCH_<short-sha>.json at the root
of the repository, parses and speaks the benchmark's own terms: it names only
workloads and end-to-end metrics that BENCHMARK.json declares, and holds at
least ten parent/change pairs per workload, each metric with one run per pair
on either side. The files make the perf trajectory that later changes compare
against, so one that drifts from the benchmark fails here."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"] for w in benchmark["workloads"]},
            {m["name"]: m["better"] for m in benchmark["end_to_end"]})


def test_a_bench_result_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_result_names_declared_workloads_and_metrics(path):
    workloads, metrics = _declared()
    result = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{result['measured_commit']}.json"
    assert result["parent_commit"] and result["parent_commit"] != result["measured_commit"]
    claim = result.get("claim")
    if claim:
        assert claim["workload"] in workloads
        assert metrics.get(claim["metric"]) == claim["better"]
    assert result["workloads"] and set(result["workloads"]) <= workloads
    for name, workload in result["workloads"].items():
        pairs = workload["pairs"]
        assert isinstance(pairs, int) and pairs >= MIN_PAIRS, name
        assert 0 <= workload["artifacts_identical_pairs"] <= pairs, name
        assert workload["metrics"] and set(workload["metrics"]) <= set(metrics), name
        for metric, figures in workload["metrics"].items():
            for side in ("parent_runs", "change_runs"):
                runs = figures[side]
                assert len(runs) == pairs, (name, metric, side)
                assert all(isinstance(v, (int, float)) for v in runs), (name, metric, side)
            assert 0 <= figures["change_better_pairs"] + figures["tied_pairs"] <= pairs
