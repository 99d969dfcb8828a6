"""run.trec carries the reranker's exact ranking: evaluate scores what rerank
made, and a score that is not a number ends the run with one stderr line."""

import json
import shutil

import numpy as np
import pytest

from ranklab.cli import EXIT_CONFIG, EXIT_NUMERIC, main
from ranklab.dense import DenseIndex
from ranklab.rerank import Ranker

from test_cli import write_fixture_inputs

STAGES = "ingest,index,synth-weak,train-dense,select-train,rerank,evaluate,depth-sweep"


def command(root, *argv):
    return [*argv, "--corpus", str(root / "corpus.jsonl"), "--queries", str(root / "queries.tsv"),
            "--qrels", str(root / "qrels.txt"), "--workdir", str(root / "w")]


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Every ranking stage on the 24-doc fixture at default config."""
    root = tmp_path_factory.mktemp("runs")
    write_fixture_inputs(root)
    assert main(command(root, "pipeline", "--stages", STAGES)) == 0
    return root


@pytest.fixture
def copy_of(default_run, tmp_path):
    return shutil.copytree(default_run, tmp_path / "root")


def test_evaluate_scores_the_ranking_rerank_made(default_run):
    work = default_run / "w"
    overall = json.loads((work / "report.jsonl").read_text().splitlines()[0])
    assert overall["group"] == "overall"
    rows = (line.split("\t") for line in (work / "depth_sweep.tsv").read_text().splitlines())
    sweep = {depth: ndcg for depth, ndcg, _ in rows}
    assert f"{overall['ndcg@10']:.6f}" == sweep["100"]


def test_non_finite_rerank_score_is_exit_4(copy_of, capsys):
    path = copy_of / "w" / "dense_index.bin"
    index = DenseIndex.load(path)
    index.vectors[0] = np.nan
    index.save(path)
    capsys.readouterr()
    assert main(command(copy_of, "rerank")) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: non-finite score in reranking\n"


def test_tail_that_cannot_fall_below_the_block_is_exit_4(copy_of, capsys):
    # every block score is 1e17, where 1e17 - 1.0 rounds back to 1e17
    Ranker(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e17])).save(copy_of / "w" / "ranker.ckpt")
    capsys.readouterr()
    assert main(command(copy_of, "rerank", "--depth", "2")) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric error: reranked scores too large to rank the tail below them\n")


def test_nan_score_in_run_file_is_exit_2(copy_of, capsys):
    path = copy_of / "w" / "run.trec"
    path.write_text("1 Q0 t00d01 1 2.5 t\n1 Q0 t00d00 2 nan t\n", encoding="utf-8")
    capsys.readouterr()
    assert main(command(copy_of, "evaluate")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"input error: {path}:2: score is not a number\n"


def test_document_listed_twice_for_a_query_is_exit_2(copy_of, capsys):
    path = copy_of / "w" / "run.trec"
    path.write_text("1 Q0 t00d01 1 2.5 t\n1 Q0 t00d00 2 1.5 t\n2 Q0 t00d01 1 2.5 t\n"
                    "1 Q0 t00d01 3 0.5 t\n", encoding="utf-8")
    capsys.readouterr()
    assert main(command(copy_of, "evaluate")) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"input error: {path}:4: doc_id t00d01 is listed twice for query 1\n")
