"""A fixed reference workload that measures how fast the host runs right now.

On a shared VM the same code runs up to 1.5x slower for minutes at a time,
because other tenants load the host. `probe_seconds` times a fixed mix of
the work ranklab does (interpreted loops over dicts and strings, small
single-threaded BLAS products, array passes over a few MB), written here and
independent of ranklab, so a change to the program never changes it. The
benchmark probes before every repetition and after the last, and scales its
timings by REFERENCE_S over the mean probe of the run: a host that runs the
probe 1.3x slower than the reference has its timings divided by 1.3.
"""

from __future__ import annotations

import time

import numpy as np

# a round figure near the fastest probes on a shared 2-vCPU x86_64 VM (Python
# 3.11, numpy 2.4, single-threaded OpenBLAS): 0.9-1.7 s, median 1.4 s, over 240
# probes; scaled timings read as seconds on a host that runs the probe this fast
REFERENCE_S = 1.0
ROUNDS = 200

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((128, 128))
_ARRAY = _rng.random(500_000)
_WORDS = [f"w{i:05d}" for i in range(4096)]


def _round() -> float:
    counts: dict[str, int] = {}
    for i in range(12_000):
        word = _WORDS[(i * 2654435761) & 4095]
        counts[word] = counts.get(word, 0) + len(word)
    product = _MATRIX
    for _ in range(12):
        product = np.tanh(product @ _MATRIX * 0.01)
    passes = float(np.sort(_ARRAY[::7]).sum() + (_ARRAY * _ARRAY).sum())
    return sum(counts.values()) + float(product.sum()) + passes


def probe_seconds() -> float:
    """Wall seconds for ROUNDS rounds of the reference work."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return time.perf_counter() - start
