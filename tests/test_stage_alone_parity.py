"""A pipeline run writes and prints what its stages write and print run alone.

In one pipeline the StageRunner's memo hands parsed files, models and the held
lists from stage to stage: select-train's BM25 candidates, built at
max(select_depth, topk), and under union and rrf train-dense's last dev dense
ranks, built at max(DEV_K, topk). A stage run alone by main([stage, ...]) gets a
fresh runner and builds or parses all of them again. Every artifact but
manifest.jsonl, and stdout, must be the same either way: under each fusion, with
select_depth below (7, below evaluation.DEV_K too), at and above topk, with topk
below DEV_K, and in a run with no qrels, where train-dense has no dev set and so
holds no dense lists.
"""

import shutil

import pytest

from ranklab.cli import STAGES, main
from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS
from test_cli import write_fixture_inputs
from test_stage_memo import SMALL

CASES = [(fusion, {"select_depth": depth}) for fusion in ("none", "interp", "union", "rrf")
         for depth in (7, 100, 150)] + [(fusion, {"topk": 7}) for fusion in ("union", "rrf")]


def _outputs(workdir):
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.name != "manifest.jsonl"}


def _both_ways(root, capsys, stages, flags):
    """stdout and outputs of `stages` as one pipeline and as one main() call each."""
    capsys.readouterr()
    assert main(["pipeline", "--stages", ",".join(stages), "--workdir", str(root / "pipeline"), *flags]) == 0
    piped = capsys.readouterr().out
    for stage in stages:
        assert main([stage, "--workdir", str(root / "alone"), *flags]) == 0
    alone = capsys.readouterr().out
    return (piped, _outputs(root / "pipeline")), (alone, _outputs(root / "alone"))


def _flags(root, fusion, settings, qrels=True):
    corpus, queries, judged = write_fixture_inputs(root, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    settings = {**SMALL, "fusion": fusion, **settings}
    return ["--corpus", str(corpus), "--queries", str(queries), *(["--qrels", str(judged)] if qrels else []),
            *(f"--set={key}={value}" for key, value in settings.items())]


@pytest.mark.parametrize("fusion, settings", CASES, ids=[
    f"{fusion}-{key}={value}" for fusion, s in CASES for key, value in s.items()])
def test_a_pipeline_writes_what_its_stages_write_alone(tmp_path, capsys, fusion, settings):
    piped, alone = _both_ways(tmp_path, capsys, STAGES, _flags(tmp_path, fusion, settings))
    assert set(piped[1]) == {"vocab.json", "index.bin", "mlm_embeddings.ckpt", "encoder.ckpt",
                             "dense_index.bin", "weak_triples.jsonl", "ranker.ckpt", "policy.json",
                             "run.trec", "report.txt", "report.jsonl", "depth_sweep.tsv",
                             "analysis.json", "analysis.txt"}
    assert piped == alone


@pytest.mark.parametrize("fusion", ["none", "union", "rrf"])
def test_a_pipeline_without_qrels_writes_what_its_stages_write_alone(tmp_path, capsys, fusion):
    """ingest and select-train read qrels, so a full run first gives both work
    directories the vocab and the ranker; the stages after it run without qrels."""
    flags = _flags(tmp_path, fusion, {})
    assert main(["pipeline", "--stages", ",".join(STAGES[:STAGES.index("rerank")]),
                 "--workdir", str(tmp_path / "full"), *flags]) == 0
    for workdir in ("pipeline", "alone"):
        (tmp_path / workdir).mkdir()
        for name in ("vocab.json", "ranker.ckpt"):
            shutil.copy(tmp_path / "full" / name, tmp_path / workdir / name)
    stages = ["index", "dapt", "synth-weak", "train-dense", "rerank"]
    piped, alone = _both_ways(tmp_path, capsys, stages, _flags(tmp_path, fusion, {}, qrels=False))
    assert "run.trec" in piped[1] and "dev-ndcg" not in piped[0]
    assert piped == alone
