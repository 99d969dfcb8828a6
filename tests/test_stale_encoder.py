"""An encoder.ckpt that does not fit dense_index.bin or vocab.json is a stale
artifact: every stage that builds ranker features from it exits 3 with one
stderr line instead of failing in the middle of a dot product."""

import numpy as np
import pytest

from ranklab.cli import EXIT_DEPENDENCY, main
from ranklab.dense import DenseEncoder
from test_cli import write_fixture_inputs


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("stale")
    corpus, queries, qrels = write_fixture_inputs(root)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(root / "w"), "--set", "vocab_size=600",
              "--set", "dense_epochs=1", "--set", "select_steps=1", "--set", "triples_count=8"]
    stages = "ingest,index,synth-weak,train-dense,select-train"
    assert main(["pipeline", "--stages", stages, *common]) == 0
    return root / "w", common


@pytest.mark.parametrize("stage", ["rerank", "select-train", "depth-sweep"])
@pytest.mark.parametrize("stale", ["twice as wide", "a row short"])
def test_a_stale_encoder_is_exit_3(trained, capsys, stage, stale):
    work, common = trained
    path = work / "encoder.ckpt"
    fitting = path.read_bytes()
    table = DenseEncoder.load(path).table
    DenseEncoder(np.hstack([table, table]) if stale == "twice as wide" else table[:-1]).save(path)
    try:
        capsys.readouterr()
        assert main([stage, *common]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert err.startswith("dependency error: stale artifact: the encoder"), err
        assert err.endswith("rerun train-dense\n") and err.count("\n") == 1
    finally:
        path.write_bytes(fitting)
    assert main([stage, *common]) == 0
