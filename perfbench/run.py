"""ranklab benchmark: the full pipeline on seeded corpora, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pretrain-2k --seed 1 --seconds 60 --trace 0

Each repetition runs every stage in order through `python3 -m ranklab.cli
pipeline` in a fresh child process, one at a time (a closed loop with one
client). Every run makes REPETITIONS repetitions, sized to fit in
`--seconds` on a slow host, and each timing is the mean over them (`setup_s`
the median), scaled to the reference host speed that `hostspeed.py` probes
before every repetition. `--trace 1` makes the last repetition a traced one
and reports per-layer figures instead. The last stdout line is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
when any output check fails. See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# the child runs single-threaded BLAS so the one-client loop uses one core, and
# the benchmark process too, so its speed probe does the same kind of work
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _key in THREAD_ENV:
    os.environ[_key] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
if not (ROOT / "src" / "ranklab").is_dir():
    sys.exit(f"no ranklab sources under {ROOT / 'src'}; run from the root of a source checkout")
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy
    import checks
    import hostspeed
    from checks import COVERAGE_K, EVAL_K
    from corpus_gen import Corpus, CorpusShape, make_corpus, write_inputs
    from ranklab.corpus import Qrels
    from tracer import layer_metrics, layer_units
except ImportError as exc:  # not run from the root of a source checkout
    sys.exit(f"cannot import ranklab from {ROOT / 'src'}: {exc}")

STAGES = ("ingest", "index", "synth-weak", "dapt", "train-dense",
          "select-train", "rerank", "evaluate", "depth-sweep", "analyze")
PHASES = {
    "index_s": ("ingest", "index"),
    "dapt_s": ("dapt",),
    "train_dense_s": ("train-dense",),
    "weak_s": ("synth-weak", "select-train"),
    "rank_s": ("rerank", "evaluate", "depth-sweep", "analyze"),
}
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "index_s": "s", "dapt_s": "s", "train_dense_s": "s",
    "weak_s": "s", "rank_s": "s", "rerank_qps": "1/s", "peak_rss_mb": "MB",
    "ndcg_at_10": "score", "dense_ndcg_at_10": "score", "recall_at_100": "share",
}
CHILD_TIMEOUT_S = 170.0
# repetitions per run, the same for every host and commit; five of either
# workload and their speed probes fit in 60 s on a host running at two thirds
# of its best speed
REPETITIONS = 5


@dataclass(frozen=True)
class Workload:
    shape: dict
    settings: dict


WORKLOADS = {
    # MLM-bound: one masked-language step over ~8k targets is the largest stage
    "pretrain-2k": Workload(
        dict(n_topics=40, docs_per_topic=50, doc_len=28, own_words=10, shared_words=6,
             background_words=60, queries_per_topic=1),
        {"warm_start": "true", "mlm_epochs": "1", "dense_epochs": "8", "dense_lr": "0.5",
         "triples_count": "100", "select_steps": "5", "policy_lr": "0.001"}),
    # read-path bound: 5k short documents, sparse + dense search fused by RRF
    "query-5k": Workload(
        dict(n_topics=40, docs_per_topic=125, doc_len=6, own_words=10, shared_words=10,
             background_words=60, queries_per_topic=2),
        {"fusion": "rrf", "vocab_size": "1000", "mlm_epochs": "1", "dense_epochs": "1",
         "triples_count": "50", "select_steps": "3", "policy_lr": "0.001"}),
}


@dataclass
class Rep:
    wall: float
    exit_code: int
    peak_rss_mb: float
    manifest: list
    stderr_tail: str


def git_sha(git_dir: Path) -> str:
    """The checked-out commit, from a loose or packed ref; "unknown" without one."""
    head = git_dir / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git_dir / name).is_file():
        return (git_dir / name).read_text(encoding="utf-8").strip()
    packed = git_dir / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return "unknown"


def environment(nproc: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
        "blas_threads": {k: "1" for k in THREAD_ENV},
        "git_sha": git_sha(ROOT / ".git"),
    }


def child_env() -> dict:
    """Single-threaded BLAS, so the one-client loop uses one core, and a
    fixed hash seed, so set and dict orders do not vary between repetitions."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in THREAD_ENV:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], log_dir: Path, timeout: float) -> tuple[float, int, float, str]:
    """Run one child to completion; returns wall s, exit code, peak RSS MB, stderr tail."""
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, tail


def pipeline_argv(inputs: dict, workdir: Path, settings: dict) -> list[str]:
    """The program sees only the input files; its own seed stays at the default."""
    argv = ["pipeline", "--stages", ",".join(STAGES), "--workdir", str(workdir),
            "--corpus", str(inputs["corpus"]), "--queries", str(inputs["queries"]),
            "--qrels", str(inputs["qrels"])]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def run_rep(run_dir: Path, inputs: dict, settings: dict, deadline: float,
            spans: Path | None = None) -> Rep:
    workdir = run_dir / "wd"
    shutil.rmtree(workdir, ignore_errors=True)
    args = pipeline_argv(inputs, workdir.relative_to(ROOT), settings)
    if spans is None:
        argv = [sys.executable, "-m", "ranklab.cli", *args]
    else:
        argv = [sys.executable, str((HERE / "traced_child.py").relative_to(ROOT)),
                str(spans), *args]
    wall, code, rss, tail = run_child(argv, run_dir, deadline - time.perf_counter())
    return Rep(wall, code, rss, checks.read_manifest(workdir), tail)


def stage_walls(rep: Rep) -> dict[str, float]:
    return {m["stage"]: m["wall_time_s"] for m in rep.manifest}


def rep_figures(rep: Rep, n_queries: int) -> dict[str, float]:
    """The timing and memory figures of one repetition."""
    walls = stage_walls(rep)
    out = {name: sum(walls[s] for s in stages) for name, stages in PHASES.items()}
    out["setup_s"] = rep.wall - sum(walls.values())
    out["wall_s"] = rep.wall
    out["rerank_qps"] = n_queries / walls["rerank"]
    out["peak_rss_mb"] = rep.peak_rss_mb
    return out


def timing_metrics(reps: list[Rep], n_queries: int, speed: float) -> dict[str, float]:
    """Mean over repetitions of each figure (the median for setup_s), scaled
    by `speed`, the reference probe time over the run's mean probe time.

    The host switches between two speeds from one repetition to the next, so
    a median of a few repetitions jumps between them while the mean follows
    the share of time spent at each. Over minutes the host's speed drifts as
    a whole; the scaling takes that out.
    """
    figures = [rep_figures(r, n_queries) for r in reps]
    metrics = {name: (statistics.median if name == "setup_s" else statistics.mean)(
                   f[name] for f in figures)
               for name in figures[0]}
    return {name: value if name == "peak_rss_mb" else
                  value / speed if name == "rerank_qps" else value * speed
            for name, value in metrics.items()}


class Checks:
    """Counts output-check operations and keeps a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"{label}: {problems}")

    def check_rep(self, label: str, rep: Rep, run_dir: Path, query_ids, doc_ids, first: Rep):
        problems = checks.stage_problems(rep.manifest, STAGES, rep.exit_code)
        for stage in STAGES:
            self.record(f"{label} stage {stage}", problems.get(stage))
        if problems:
            self.notes.append(f"{label} exit {rep.exit_code}: {rep.stderr_tail.strip()[-300:]}")
        self.record(f"{label} run.trec", checks.run_file_problems(
            run_dir / "wd" / "run.trec", query_ids, doc_ids))
        if rep is not first:
            same = checks.output_hashes(rep.manifest) == checks.output_hashes(first.manifest)
            self.record(f"{label} artifact sha256 vs first repetition",
                        [] if same else ["artifact hashes differ"])


def quality(run_dir: Path, corpus: Corpus, record: Checks) -> dict[str, float]:
    """Quality figures of one repetition's artifacts, plus the recall oracle check."""
    docs, queries, qrels = corpus.docs, corpus.queries, corpus.qrels
    wd = run_dir / "wd"
    report = [json.loads(line) for line in (wd / "report.jsonl").read_text().splitlines()]
    overall = next(r for r in report if r.get("kind") == "group" and r["group"] == "overall")
    recall = json.loads((wd / "analysis.json").read_text())["coverage_at_k"]
    expected = checks.oracle_recall(docs, queries, qrels, COVERAGE_K)
    record.record("recall_at_100 vs BM25 oracle",
                  [] if abs(recall - expected) <= 1e-9 else [f"{recall} != oracle {expected}"])
    dense_ndcg = checks.dense_ndcg(wd, queries + corpus.probe_queries,
                                   Qrels({**qrels.judgments, **corpus.probe_qrels.judgments}))
    return {"ndcg_at_10": overall[f"ndcg@{EVAL_K}"], "dense_ndcg_at_10": dense_ndcg,
            "recall_at_100": recall}


def traced_metrics(untraced: list[Rep], traced: Rep, spans: Path,
                   speed: float) -> dict[str, float]:
    """Stage walls are means over the untraced repetitions, scaled as in
    timing_metrics; the rest comes from the traced one, as measured."""
    if traced.exit_code != 0 or not spans.is_file():
        return {}
    walls = [stage_walls(r) for r in untraced]
    metrics = {f"cli.stage.{s}.s": statistics.mean(w[s] for w in walls) * speed
               for s in STAGES}
    metrics.update(layer_metrics(json.loads(spans.read_text(encoding="utf-8"))))
    metrics["trace.overhead_s"] = traced.wall - statistics.mean(r.wall for r in untraced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    # one core for the benchmark and its children, so the speed probe runs
    # where the program runs
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    corpus = make_corpus(CorpusShape(**workload.shape), args.seed)
    inputs = write_inputs(corpus.docs, corpus.queries, corpus.qrels, run_dir / "inputs")
    query_ids = [q.query_id for q in corpus.queries]
    doc_ids = [d.doc_id for d in corpus.docs]
    hard_end = start + CHILD_TIMEOUT_S
    outcome = Checks()
    probes: list[float] = []

    def one_rep(label: str, first: Rep | None, spans: Path | None = None) -> Rep:
        probes.append(hostspeed.probe_seconds())
        rep = run_rep(run_dir, inputs, workload.settings, hard_end, spans)
        outcome.check_rep(label, rep, run_dir, query_ids, doc_ids, first or rep)
        return rep

    first = one_rep("rep 1", None)
    quality_metrics = quality(run_dir, corpus, outcome) if first.exit_code == 0 else {}
    reps = [first] + [one_rep(f"rep {i}", first)
                      for i in range(2, REPETITIONS + 1 - args.trace)]
    complete = [r for r in reps if r.exit_code == 0]
    if args.trace:
        spans = run_dir / "spans.json"
        traced = one_rep("traced rep", first, spans)
    probes.append(hostspeed.probe_seconds())
    speed = hostspeed.REFERENCE_S / statistics.mean(probes)
    if args.trace:
        metrics = traced_metrics(complete, traced, spans, speed) if complete else {}
        units = layer_units(STAGES)
    else:
        metrics = timing_metrics(complete, len(corpus.queries), speed) if complete else {}
        metrics.update(quality_metrics)
        units = END_TO_END_UNITS
    elapsed = time.perf_counter() - start
    failed = outcome.failed
    env = environment(len(cpus))
    result = {"correct": failed == 0, "attempted": outcome.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
         "probes_s": probes, "speed": speed,
         "repetitions": [{"wall_s": r.wall, "exit_code": r.exit_code, "peak_rss_mb": r.peak_rss_mb,
                          "stages": stage_walls(r)} for r in reps],
         "result": result,
         "failures": outcome.notes}, indent=2), encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed} repetitions {REPETITIONS}")
    print("repetition walls s " + " ".join(f"{r.wall:.3f}" for r in reps))
    print("speed probes s " + " ".join(f"{p:.3f}" for p in probes)
          + f", timings scaled by {speed:.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    if elapsed > args.seconds:
        print(f"note: the run took {elapsed:.1f} s, over --seconds {args.seconds:g}")
    for failure in outcome.notes:
        print(f"FAILED {failure}")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_share':44s} {failed / outcome.attempted:.6g} share")
    print(json.dumps(result))
    return 0 if failed == 0 and len(result["metrics"]) == len(units) else 1


if __name__ == "__main__":
    sys.exit(main())
