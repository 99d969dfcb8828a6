"""Numeric faults end in exit 4 with one stderr line and leave no artifact.

Every trained parameter goes through dense.descend, which writes nothing
unless every updated value is finite; every top-k list goes through
sparse.top_k_order, which rejects a non-finite score; rerank.logistic is the
one sigmoid, bit-equal to the two-branch forms it replaced.
"""

import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.cli import EXIT_NUMERIC, main
from ranklab.corpus import Document
from ranklab.dense import descend
from ranklab.errors import NumericError
from ranklab.mlm import MlmModel, make_masked_batch, mlm_train_step
from ranklab.rerank import logistic
from ranklab.sparse import build_index, search_topk

from test_cli import write_fixture_inputs


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Fixture inputs and a work directory holding every artifact select-train reads."""
    root = tmp_path_factory.mktemp("base")
    write_fixture_inputs(root)
    assert main(["pipeline", "--stages", "ingest,index,synth-weak,train-dense",
                 *_common(root), "--set", "dense_epochs=1", "--set", "triples_count=8"]) == 0
    return root


def _common(root):
    return ["--corpus", str(root / "corpus.jsonl"), "--queries", str(root / "queries.tsv"),
            "--qrels", str(root / "qrels.txt"), "--workdir", str(root / "w"),
            "--set", "vocab_size=600"]


@pytest.mark.parametrize("argv, never_written", [
    (["dapt", "--lr", "1e308", "--epochs", "2"], ["mlm_embeddings.ckpt"]),
    (["select-train", "--policy-lr", "1e308", "--steps", "6"], ["policy.json", "ranker.ckpt"]),
    (["synth-weak", "--set", "k1=1e308"], []),
    (["analyze", "--set", "k1=1e308"], ["analysis.json", "analysis.txt"]),
], ids=["dapt", "select-train", "synth-weak", "analyze"])
def test_overflow_is_one_line_exit_4(base, tmp_path, capsys, argv, never_written):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    triples = (root / "w" / "weak_triples.jsonl").read_bytes()
    capsys.readouterr()
    assert main([*argv, *_common(root)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: non-finite")
    assert err.count("\n") == 1
    for name in never_written:
        assert not (root / "w" / name).exists()
    assert (root / "w" / "weak_triples.jsonl").read_bytes() == triples


def test_bm25_overflow_is_numeric_error():
    docs = [Document("d0", "alpha alpha", "alpha"),
            *(Document(f"d{i}", "beta", "") for i in (1, 2, 3))]
    with pytest.raises(NumericError, match="non-finite score in top-k search"):
        search_topk(build_index(docs), ["alpha"], 3, k1=1e308)  # 1.2 * 3 * 1e308 overflows


finite = st.floats(-1e3, 1e3)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6), st.floats(0.0, 10.0))
def test_descend_equals_in_place_subtraction(pairs, learning_rate):
    param, grad = (np.array(column) for column in zip(*pairs))
    expected = param.copy()
    expected -= learning_rate * grad
    descend("test", learning_rate, (param, grad))
    assert param.tobytes() == expected.tobytes()


@pytest.mark.parametrize("learning_rate, grad", [
    (1.0, [0.0, np.nan]), (1.0, [np.inf, 0.0]), (1e308, [0.0, -10.0]), (0.0, [0.0, np.inf]),
])
def test_descend_writes_nothing_when_a_result_is_not_finite(learning_rate, grad):
    first, second = np.array([1.0, 2.0]), np.array([1e308, 3.0])
    before = first.copy(), second.copy()
    with pytest.raises(NumericError, match="non-finite parameters in test"):
        descend("test", learning_rate, (first, np.ones(2)), (second, np.array(grad)))
    assert first.tobytes() == before[0].tobytes()
    assert second.tobytes() == before[1].tobytes()


def test_mlm_step_that_overflows_leaves_both_tables():
    model = MlmModel.init(30, 8, seed=1)
    model.output_weights += np.random.default_rng(1).normal(0, 0.3, model.output_weights.shape)
    model.embeddings[5] = 1e300  # the embeddings' update overflows, the output weights' need not
    before = model.copy()
    batch = make_masked_batch([[2, 3, 4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14]], 1, 0.15, rng=7)
    with pytest.raises(NumericError, match="non-finite parameters in masked-language training"):
        mlm_train_step(model, batch, 1e308)
    assert model.embeddings.tobytes() == before.embeddings.tobytes()
    assert model.output_weights.tobytes() == before.output_weights.tobytes()


def former_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def former_softplus_of_negative(margin):
    if margin >= 0:
        return math.log1p(math.exp(-margin))
    return -margin + math.log1p(math.exp(margin))


@given(st.floats(allow_nan=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(745.0)
@example(-745.0)
@example(1e308)
@example(-1e308)
@example(math.inf)
@example(-math.inf)
def test_logistic_and_softplus_are_the_former_branches_bit_for_bit(z):
    assert logistic(z).hex() == former_sigmoid(z).hex()
    softplus = max(-z, 0.0) + math.log1p(math.exp(-abs(z)))
    assert softplus.hex() == former_softplus_of_negative(z).hex()
