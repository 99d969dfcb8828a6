"""Artifacts do not depend on Python's string hash seed.

Criterion 10 compares two runs inside one process, where every set and dict
of strings is ordered alike, so it cannot see an order that follows hashes.
Here the fixture pipeline runs in two child processes with PYTHONHASHSEED 1
and 2, and every artifact but manifest.jsonl (which holds wall times) must
have the same bytes."""

import os
import subprocess
import sys

from ranklab.cli import STAGES
from test_stage_memo import SMALL, SRC, _config, _stopwords


def test_every_artifact_is_the_same_under_two_hash_seeds(tmp_path):
    config = _config(tmp_path, stopwords_path=_stopwords(tmp_path))
    settings = {**SMALL, "warm_start": True, "fusion": "rrf"}
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        argv = ["pipeline", "--stages", ",".join(STAGES), "--corpus", config.corpus_path,
                "--queries", config.queries_path, "--qrels", config.qrels_path,
                "--stopwords", config.stopwords_path, "--workdir", str(tmp_path / seed),
                *(f"--set={k}={v}" for k, v in settings.items())]
        done = subprocess.run([sys.executable, "-m", "ranklab.cli", *argv], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
    names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "manifest.jsonl")
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir()
                           if p.name != "manifest.jsonl")
    assert len(names) == 14
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
