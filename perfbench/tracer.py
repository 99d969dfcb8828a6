"""Function-level spans installed into ranklab from outside the program.

`install` wraps each traced function once and rebinds the wrapper in every
ranklab namespace that holds the original, because several modules import
functions by name (`from .sparse import search_topk`) and patching only the
defining module would miss those calls. Methods are patched once on their
class. A parent stack gives each span's self time: its duration minus the
durations of the traced spans nested directly inside it. Spans are folded
into per-function totals in memory and written out when the traced process
ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array

# (module, attribute) of every traced module-level function
FUNCTIONS = (
    ("checkpoint", "save_arrays"), ("checkpoint", "load_arrays"),
    ("corpus", "load_corpus"),
    ("dense", "train_step"), ("dense", "build_dense_index"), ("dense", "dense_search_topk"),
    ("evaluation", "old_new_report"), ("evaluation", "write_run"), ("evaluation", "read_run"),
    ("mlm", "mlm_train_step"), ("mlm", "make_masked_batch"),
    ("rerank", "rerank"), ("rerank", "pairwise_train_step"),
    ("sparse", "build_index"), ("sparse", "search_topk"), ("sparse", "bm25_score"),
    ("subword", "tokenize"), ("subword", "subword_ratio"), ("subword", "train_subword_vocab"),
    ("weaksup", "synthesize_triples"), ("weaksup", "reinfoselect_step"),
)

# (module, class, method, span name) of every traced method
METHODS = (
    ("sparse", "InvertedIndex", "save", "sparse.InvertedIndex.save"),
    ("sparse", "InvertedIndex", "load", "sparse.InvertedIndex.load"),
    ("rerank", "FeatureExtractor", "features", "rerank.FeatureExtractor.features"),
    ("subword", "SubwordVocab", "word_pieces", "subword.SubwordVocab.word_pieces"),
    ("weaksup", "SelectionContext", "__init__", "weaksup.SelectionContext.init"),
)


class Tracer:
    """Per-function call counts, total and self time, durations and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, array] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # [start, time spent in child spans]

    def enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def exit(self, name: str) -> None:
        start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.durations.setdefault(name, array("d")).append(duration)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def dump(self) -> dict:
        return {
            "calls": self.calls, "total": self.total, "self_time": self.self_time,
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counters": self.counters,
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(name)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return traced


def _file_bytes(key: str):
    def after(tracer, args, kwargs, result):
        tracer.count(key, os.path.getsize(args[0]))
    return after


def _mlm_targets(tracer, args, kwargs, result):
    tracer.count("mlm.targets", sum(len(s.targets) for s in args[1].sequences))


def _synth_yield(tracer, args, kwargs, result):
    requested = args[2] if len(args) > 2 else kwargs["count"]
    tracer.count("weaksup.synthesize_triples.requested", requested)
    tracer.count("weaksup.synthesize_triples.made", len(result))


def _selection_batch(tracer, args, kwargs, result):
    tracer.count("weaksup.reinfoselect_step.offered", len(args[1]))


def _selected_pairs(tracer, args, kwargs, result):
    # reinfoselect_step trial-trains the ranker on exactly the selected triples
    tracer.count("weaksup.reinfoselect_step.selected", len(args[1]))


AFTER_HOOKS = {
    "checkpoint.save_arrays": _file_bytes("checkpoint.save_arrays.bytes"),
    "checkpoint.load_arrays": _file_bytes("checkpoint.load_arrays.bytes"),
    "mlm.mlm_train_step": _mlm_targets,
    "weaksup.synthesize_triples": _synth_yield,
    "weaksup.reinfoselect_step": _selection_batch,
    "rerank.pairwise_train_step": _selected_pairs,
}


def install(tracer: Tracer) -> None:
    """Trace FUNCTIONS, METHODS and every pipeline stage of ranklab.cli."""
    import ranklab.cli

    namespaces = [m for n, m in sys.modules.items()
                  if m is not None and (n == "ranklab" or n.startswith("ranklab."))]
    for module_name, attr in FUNCTIONS:
        name = f"{module_name}.{attr}"
        original = getattr(sys.modules[f"ranklab.{module_name}"], attr)
        wrapped = _wrap(tracer, name, original, AFTER_HOOKS.get(name))
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
    for module_name, class_name, method, name in METHODS:
        cls = getattr(sys.modules[f"ranklab.{module_name}"], class_name)
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(_wrap(tracer, name, raw.__func__)))
        else:
            setattr(cls, method, _wrap(tracer, name, raw))
    stages = ranklab.cli.StageRunner.STAGE_FUNCTIONS
    for stage, fn in list(stages.items()):
        stages[stage] = _wrap(tracer, f"cli.stage.{stage}", fn)


STANDARD_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: int) -> float:
    """Highest standard percentile with at least 10 samples beyond it (else 50)."""
    for p in STANDARD_PERCENTILES:
        if samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# span name -> which statistics it reports
LAYER_STATS = {
    "mlm.mlm_train_step": ("calls", "s", "self_s"),
    "mlm.make_masked_batch": ("s",),
    "dense.train_step": ("calls", "s"),
    "dense.build_dense_index": ("calls", "s"),
    "dense.dense_search_topk": ("calls", "p50_ms", "tail_ms", "tail_pct"),
    "sparse.search_topk": ("calls", "p50_ms", "tail_ms", "tail_pct"),
    "sparse.bm25_score": ("calls", "s"),
    "sparse.build_index": ("s",),
    "sparse.InvertedIndex.save": ("s",),
    "sparse.InvertedIndex.load": ("calls", "s"),
    "subword.tokenize": ("calls", "s", "self_s"),
    "subword.SubwordVocab.word_pieces": ("calls", "s"),
    "subword.subword_ratio": ("s",),
    "subword.train_subword_vocab": ("s",),
    "rerank.FeatureExtractor.features": ("calls", "s", "self_s"),
    "rerank.rerank": ("calls", "s"),
    "weaksup.synthesize_triples": ("s",),
    "weaksup.SelectionContext.init": ("s",),
    "weaksup.reinfoselect_step": ("calls", "s"),
    "checkpoint.save_arrays": ("calls", "s"),
    "checkpoint.load_arrays": ("calls", "s"),
    "corpus.load_corpus": ("calls", "s"),
    "evaluation.old_new_report": ("s",),
    "evaluation.write_run": ("s",),
    "evaluation.read_run": ("s",),
}


STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms",
              "tail_pct": "%"}
# figures derived from counters and stage totals; run.py adds trace.overhead_s
DERIVED_UNITS = {
    "mlm.targets_per_s": "1/s", "weaksup.synthesize_triples.yield": "share",
    "weaksup.reinfoselect_step.selected_share": "share",
    "checkpoint.save_arrays.bytes": "bytes", "checkpoint.load_arrays.bytes": "bytes",
    "trace.overhead_s": "s", "trace.uncovered_share": "share",
}


def layer_units(stages) -> dict[str, str]:
    """Every per-layer metric name with its unit, stage walls first."""
    units = {f"cli.stage.{s}.s": "s" for s in stages}
    for name, stats in LAYER_STATS.items():
        units.update({f"{name}.{stat}": STAT_UNITS[stat] for stat in stats})
    units.update(DERIVED_UNITS)
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer figures from one traced process (see LAYER_STATS)."""
    calls, total, self_time = dump["calls"], dump["total"], dump["self_time"]
    counters = dump["counters"]
    out: dict[str, float] = {}
    for name, stats in LAYER_STATS.items():
        durations = dump["durations"].get(name, [])
        for stat in stats:
            if stat == "calls":
                value = calls.get(name, 0)
            elif stat == "s":
                value = total.get(name, 0.0)
            elif stat == "self_s":
                value = self_time.get(name, 0.0)
            elif stat == "p50_ms":
                value = 1e3 * percentile(durations, 50.0) if durations else 0.0
            elif stat == "tail_ms":
                p = tail_percentile(len(durations))
                value = 1e3 * percentile(durations, p) if durations else 0.0
            else:  # tail_pct
                value = tail_percentile(len(durations))
            out[f"{name}.{stat}"] = value
    out["mlm.targets_per_s"] = _ratio(counters.get("mlm.targets", 0.0),
                                      total.get("mlm.mlm_train_step", 0.0))
    out["weaksup.synthesize_triples.yield"] = _ratio(
        counters.get("weaksup.synthesize_triples.made", 0.0),
        counters.get("weaksup.synthesize_triples.requested", 0.0))
    out["weaksup.reinfoselect_step.selected_share"] = _ratio(
        counters.get("weaksup.reinfoselect_step.selected", 0.0),
        counters.get("weaksup.reinfoselect_step.offered", 0.0))
    out["checkpoint.save_arrays.bytes"] = counters.get("checkpoint.save_arrays.bytes", 0.0)
    out["checkpoint.load_arrays.bytes"] = counters.get("checkpoint.load_arrays.bytes", 0.0)
    stage_total = sum(v for k, v in total.items() if k.startswith("cli.stage."))
    stage_self = sum(v for k, v in self_time.items() if k.startswith("cli.stage."))
    # stage time spent outside every traced function
    out["trace.uncovered_share"] = _ratio(stage_self, stage_total)
    return out
