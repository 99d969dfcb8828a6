"""A complete but malformed checkpoint ends in exit 2 with one stderr line."""

import re
import shutil

import numpy as np
import pytest

from ranklab.checkpoint import load_arrays, save_arrays
from ranklab.cli import EXIT_CONFIG, main
from ranklab.dense import DenseEncoder, DenseIndex, build_dense_index
from ranklab.errors import ConfigError
from ranklab.mlm import MlmModel
from ranklab.sparse import InvertedIndex
from ranklab.subword import tokenize_corpus
from ranklab.weaksup import SelectorPolicy
from test_cli import write_fixture_inputs


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Fixture inputs and a work directory holding every checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    corpus, queries, qrels = write_fixture_inputs(root)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--set", "vocab_size=600", "--set", "mlm_epochs=1", "--set", "dense_epochs=1",
              "--set", "select_steps=1", "--set", "triples_count=8"]
    stages = "ingest,index,dapt,synth-weak,train-dense,select-train"
    assert main(["pipeline", "--stages", stages, "--workdir", str(root / "w"), *common]) == 0
    return root, common


def _rewrite(path, kind, change):
    """Save path's arrays and metadata again after change(arrays, meta) -> (arrays, meta)."""
    arrays, meta = load_arrays(path, kind)
    save_arrays(path, kind, *change(arrays, meta))


# artifact -> (its kind tag, the change that breaks it, the command that reads it,
# the words of the message)
CASES = {
    "index.bin": ("SIDX", lambda a, m: (a, [m]), ["synth-weak"],
                  "metadata is not a JSON object"),
    "mlm_embeddings.ckpt": ("DENC", lambda a, m: ({"table": a["table"][0]}, m),
                            ["train-dense", "--warm-start"], "'table' is 1-d, expected 2-d"),
    "encoder.ckpt": ("DENC", lambda a, m: ({"table": a["table"].astype(object)}, m),
                     ["rerank"], "non-numeric dtype '|O'"),
    "dense_index.bin": ("DIDX", lambda a, m: (a, {k: v for k, v in m.items() if k != "doc_ids"}),
                        ["rerank"], "metadata lacks key(s) doc_ids"),
    "ranker.ckpt": ("RNKR", lambda a, m: ({"weights": a["weights"][:5]}, m),
                    ["rerank"], "expected 6 weights"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_malformed_checkpoint_is_one_line_exit_2(trained, tmp_path, capsys, name):
    root, common = trained
    kind, change, command, message = CASES[name]
    work = tmp_path / "w"
    shutil.copytree(root / "w", work)
    _rewrite(work / name, kind, change)
    capsys.readouterr()
    assert main([*command, "--workdir", str(work), *common]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {work / name}: ") and message in err, err
    assert err.count("\n") == 1


# index.bin metadata of the wrong type, and what synth-weak did with it when the index built
# its lookup tables at load: exit 2 naming '<', exit 2 naming an unhashable type, exit 3 calling
# the index stale, and exit 0 with a term BM25 never matches
INDEX_METADATA = {
    "int-among-doc-ids": lambda m: {**m, "doc_ids": [1, *m["doc_ids"][1:]]},
    "list-term": lambda m: {**m, "terms": [["a"], *m["terms"][1:]]},
    "int-doc-ids": lambda m: {**m, "doc_ids": list(range(len(m["doc_ids"])))},
    "int-term": lambda m: {**m, "terms": [7, *m["terms"][1:]]},
}


@pytest.mark.parametrize("name", list(INDEX_METADATA))
def test_index_metadata_of_the_wrong_type_is_one_line_exit_2_at_load(trained, tmp_path, capsys, name):
    root, common = trained
    work = tmp_path / "w"
    shutil.copytree(root / "w", work)
    _rewrite(work / "index.bin", "SIDX", lambda a, m: (a, INDEX_METADATA[name](m)))
    capsys.readouterr()
    assert main(["synth-weak", "--workdir", str(work), *common]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {work / 'index.bin'}: malformed checkpoint (every term and doc id must be a string)\n")


def test_pretrained_table_of_another_width_is_one_line_exit_2(trained, tmp_path, capsys):
    root, common = trained
    work = tmp_path / "w"
    shutil.copytree(root / "w", work)
    _rewrite(work / "mlm_embeddings.ckpt", "DENC",
             lambda a, m: ({"table": np.hstack([a["table"], a["table"]])}, m))
    capsys.readouterr()
    assert main(["train-dense", "--warm-start", "--workdir", str(work), *common]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {work / 'mlm_embeddings.ckpt'}: "), err
    assert "does not match encoder" in err and err.count("\n") == 1


@pytest.mark.parametrize("tag", ["|O", "<U4", "|S4", "|V8", "<M8[D]", "<c16"])
def test_load_arrays_reads_only_numeric_dtypes(tmp_path, tag):
    path = tmp_path / "a.bin"
    save_arrays(path, "TEST", {"x": np.zeros(2)}, {})
    data = path.read_bytes()
    at = data.index(b"<f8")
    path.write_bytes(data[:at] + tag.encode().ljust(16, b"\0") + data[at + 16:])
    with pytest.raises(ConfigError, match="non-numeric dtype"):
        load_arrays(path, "TEST")


# artifact -> (what writes it from the separable fixture, its class and kind tag,
# the change that makes one array or metadata key disagree with the rest)
SHAPE_CASES = {
    "index.bin": (lambda f: f["index"], InvertedIndex, "SIDX",
                  lambda a, m: ({**a, "doc_lengths": a["doc_lengths"][:-1]}, m)),
    "dense_index.bin": (lambda f: build_dense_index(DenseEncoder.init(len(f["vocab"]), 4),
                                                    tokenize_corpus(f["docs"], f["vocab"])),
                        DenseIndex, "DIDX",
        lambda a, m: (a, {**m, "doc_ids": m["doc_ids"][:-1]})),
    "mlm.ckpt": (lambda f: MlmModel.init(10, 4), MlmModel, "MLMM",
                 lambda a, m: ({**a, "output_weights": a["output_weights"][:-1]}, m)),
}


@pytest.mark.parametrize("name", list(SHAPE_CASES))
def test_inconsistent_shapes_are_config_errors(tmp_path, separable, name):
    make, cls, kind, change = SHAPE_CASES[name]
    path = tmp_path / name
    make(separable).save(path)
    _rewrite(path, kind, change)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: malformed checkpoint")):
        cls.load(path)


@pytest.mark.parametrize("payload", ['[1, 2]', '{"weights": [0, 0, 0, 0, 0, 0]}',
                                     '{"weights": [0, 0, 0, 0, 0, 0], "seed": 0', *(
    # well-formed files whose weights are not six finite numbers
    f'{{"weights": {w}, "seed": 0, "baseline": 0.0, "reward_count": 0}}'
    for w in ("null", "[1.0, 2.0]", "[[0, 0, 0, 0, 0, 0]]", "[0, 0, NaN, 0, 0, 0]")), *(
    # well-formed weights with a baseline that is not a finite number or a count that is not an int >= 0
    f'{{"weights": [0, 0, 0, 0, 0, 0], "seed": 0, "baseline": {b}, "reward_count": {n}}}'
    for b, n in (('"x"', 0), ("NaN", 0), ("0.0", -3), ("0.0", 1.5))),
    # a seed that is a bool, which numpy's generator would take as 0 or 1
    '{"weights": [0, 0, 0, 0, 0, 0], "seed": true, "baseline": 0.0, "reward_count": 0}'])
def test_corrupt_policy_file_is_config_error(tmp_path, payload):
    path = tmp_path / "policy.json"
    path.write_text(payload)
    with pytest.raises(ConfigError, match="corrupt policy file"):
        SelectorPolicy.load(path)
