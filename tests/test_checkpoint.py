import ast
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import ranklab
from ranklab.checkpoint import load_arrays, save_arrays
from ranklab.cli import EXIT_CONFIG, main
from ranklab.dense import DenseEncoder
from ranklab.errors import ConfigError
from ranklab.evaluation import Run, write_run
from ranklab.mlm import MlmModel
from ranklab.sparse import RankedList

from test_cli import write_fixture_inputs


def test_save_writes_documented_layout_in_place(tmp_path):
    path = tmp_path / "enc.ckpt"
    path.write_bytes(b"stale contents")
    table = np.arange(12, dtype=np.float64).reshape(4, 3)
    save_arrays(path, "DENC", {"table": table}, {"vocab_size": 4, "dim": 3})
    meta = b'{"dim":3,"vocab_size":4}'
    expected = (b"RLCK" + b"DENC" + struct.pack("<II", 1, len(meta)) + meta
                + struct.pack("<H", 5) + b"table" + b"<f8".ljust(16, b"\0")
                + struct.pack("<I2Q", 2, 4, 3) + table.tobytes())
    assert path.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["enc.ckpt"]
    arrays, loaded_meta = load_arrays(path, "DENC", required=("table",))
    np.testing.assert_array_equal(arrays["table"], table)
    assert loaded_meta == {"dim": 3, "vocab_size": 4}


def test_truncated_encoder_checkpoint_is_config_error(tmp_path):
    path = tmp_path / "mlm_embeddings.ckpt"
    MlmModel.init(6, 3, seed=0).save_embeddings(path)
    data = path.read_bytes()
    # every cut: inside the header, the JSON metadata, the array header and the data
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ConfigError):
            DenseEncoder.load(path)


def test_checkpoint_cut_between_arrays_is_config_error(tmp_path):
    path = tmp_path / "mlm.ckpt"
    model = MlmModel.init(6, 3, seed=0)
    model.save(path)
    data = path.read_bytes()
    # the arrays are stored in name order; the first ends where the second's name starts
    cut = data.index(b"output_weights") - 2
    path.write_bytes(data[:cut])
    assert set(load_arrays(path, "MLMM")[0]) == {"embeddings"}
    with pytest.raises(ConfigError, match="output_weights"):
        MlmModel.load(path)


def test_truncated_mlm_embeddings_exit_2(tmp_path, capsys):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600",
              "--set", "mlm_epochs=1", "--set", "triples_count=8"]
    assert main(["pipeline", "--stages", "ingest,index,synth-weak,dapt", *common]) == 0
    ckpt = tmp_path / "w" / "mlm_embeddings.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    code = main(["train-dense", "--warm-start", "--epochs", "1", *common])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "truncated" in err
    assert err.count("\n") == 1


def test_failed_run_write_leaves_old_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "run.trec"
    write_run(Run({1: RankedList(1, (("a", 2.0), ("b", 1.0)))}, "old"), path)
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_run(Run({1: RankedList(1, (("c", 3.0),))}, "new"), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]


def _file_writes(tree):
    """Line numbers of open(..., "w"/"x") calls and of .write_text/.write_bytes calls."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.add(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(isinstance(m, ast.Constant) and set(str(m.value)) & {"w", "x"}
                   for m in modes):
                lines.add(node.lineno)
    return lines


def test_only_the_atomic_helper_writes_files():
    """Every artifact writer goes through checkpoint.write_atomic."""
    offenders = []
    for module in sorted(Path(ranklab.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        allowed = set()
        if module.name == "checkpoint.py":
            helper = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "write_atomic")
            allowed = _file_writes(helper)
        offenders += [f"{module.name}:{line}" for line in sorted(_file_writes(tree) - allowed)]
    assert offenders == []
