"""Byte pins of the ranker artifacts and the manifest's file hashes.

The sha256 values were written by the per-document feature path (one
`FeatureExtractor.features` call and one `Ranker.score` per candidate, BM25
summed posting by posting) on the 200-doc fixture at default config; the
array-backed index and the per-query feature matrix must reproduce them.
"""

import dataclasses
import hashlib
import json

import pytest

from ranklab.cli import EXIT_CONFIG, PipelineConfig, StageRunner, main, run_pipeline
from ranklab.checkpoint import save_arrays
from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS
from test_cli import write_fixture_inputs

RUN_SHA256 = {
    "none": "7e5a5d7b697351579da1f8cd3b6a7f2ae06fc5f7cce0abbc36b09da53e796be4",
    "union": "41e2fd93937e53693de6cc07a2f2ef531ddab5461af2637f57bc97a8ec19ad9f",
    "interp": "76ed0cc567bd3cef4f110165661e8e9a622bca35b0ae6c34c316bcfbf76d6876",
    "rrf": "28d748ca2f155831b84c84ab9a20af55fb03102e3dd87753aed4f3331e165a94",
}
ARTIFACT_SHA256 = {
    "depth_sweep.tsv": "c57c051f7347c10cdad86f09cbaffad7202a2704876c85f34a0db7feba7e8488",
    "policy.json": "6f7fbcf881022362386a97186ee107bccfc5ac9645d2b2ed7956b89b0a6d4233",
    "ranker.ckpt": "a599d4fb40f12ef3e6d37febe6d069918c2897d2e32e56275edefa636f968f5f",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    corpus, queries, qrels = write_fixture_inputs(root, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                            qrels_path=str(qrels), workdir=str(root / "work"))
    run_pipeline(config, ["ingest", "index", "synth-weak", "train-dense",
                          "select-train", "depth-sweep"])
    return config, root / "work"


@pytest.mark.parametrize("name", list(ARTIFACT_SHA256))
def test_fixture_ranker_artifacts_are_pinned(default_run, name):
    _, work = default_run
    assert sha256(work / name) == ARTIFACT_SHA256[name]


@pytest.mark.parametrize("fusion", list(RUN_SHA256))
def test_fixture_run_is_pinned_for_each_fusion(default_run, fusion):
    config, work = default_run
    run_pipeline(dataclasses.replace(config, fusion=fusion), ["rerank"])
    assert sha256(work / "run.trec") == RUN_SHA256[fusion]


def test_index_written_with_json_postings_is_exit_2(default_run, capsys):
    config, work = default_run
    old = work.parent / "old_format"
    old.mkdir()
    # the layout of an index.bin whose postings are JSON metadata, with no arrays
    save_arrays(old / "index.bin", "SIDX", {}, {
        "postings": {"alpha": [[0, 1]]}, "doc_lengths": [1], "doc_ids": ["t00d00"]})
    code = main(["synth-weak", "--corpus", config.corpus_path, "--workdir", str(old)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(old / "index.bin") in err
    assert err.count("\n") == 1


def test_manifest_hashes_each_file_once_and_sees_rewrites(tmp_path, monkeypatch):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                            qrels_path=str(qrels), workdir=str(tmp_path / "work"))
    (tmp_path / "work").mkdir()
    hashed = []
    real_sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(1) or real_sha256(data))
    runner = StageRunner(config)
    runner.run("index")
    runner.run("synth-weak")
    # synth-weak reads the corpus and index.bin that index hashed a moment ago;
    # each of the two manifest lines also hashes its config snapshot
    assert len(hashed) == 3 + 2
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines[1:]) + "\n")
    runner.run("index")
    monkeypatch.undo()
    first, second, third = [json.loads(l) for l in
                            (tmp_path / "work" / "manifest.jsonl").read_text().splitlines()]
    assert first["inputs"][str(corpus)] == second["inputs"][str(corpus)]
    assert third["inputs"][str(corpus)] == sha256(corpus) != first["inputs"][str(corpus)]
    index_bin = str(tmp_path / "work" / "index.bin")
    assert third["outputs"][index_bin] == sha256(tmp_path / "work" / "index.bin")
    assert third["outputs"][index_bin] != first["outputs"][index_bin]


# sha256 of analysis.txt and analysis.json on the 200-doc fixture, as analyze
# wrote them with one hand-written line per measurement. "inputs" also reads
# reference texts and an external triples file, and its coverage_k has five
# digits; its analysis.txt pads the coverage label to 25 columns like every other
ANALYSIS_SHA256 = {
    "default": ("4b7209031e10cd21a7725eda50f2090a2d626d4b4ff4ba555a97b9cdeb72f30e",
                "8e036601aec90231c94a6b97072cccbfd763597e83bed206a4a37620ac6cae01"),
    "inputs": ("475328189ed1a0a9c3fb840cddf8bac34327fb290efb5fabc6208cd79ae532b1",
               "ebace5259d8654208792d267238cb2235bdeb0c9990683ca78c7ca94b7a45f50"),
}


@pytest.mark.parametrize("case", list(ANALYSIS_SHA256))
def test_fixture_analysis_is_pinned(tmp_path, capsys, case):
    corpus, queries, qrels = write_fixture_inputs(tmp_path, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                            qrels_path=str(qrels), workdir=str(tmp_path / "work"))
    run_pipeline(config, ["ingest", "index"])
    argv = ["analyze", "--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
            "--workdir", config.workdir]
    if case == "inputs":
        reference = tmp_path / "reference.txt"
        reference.write_text("t0w12 antiviral t1w3 cohort\nremdesivir t2w7 outcomes\n")
        triples = tmp_path / "external.jsonl"
        triples.write_text("".join(json.dumps({"query": q, "pos_doc_id": p, "neg_doc_id": n}) + "\n"
                                   for q, p, n in [("x", "t00d00", "t01d00"), ("y", "t02d03", "t00d00")]))
        argv += ["--reference-texts", str(reference), "--set", f"external_triples_path={triples}",
                 "--coverage-k", "12345"]
    capsys.readouterr()
    assert main(argv) == 0
    work = tmp_path / "work"
    assert capsys.readouterr().out == (work / "analysis.txt").read_text() + "\n"
    assert all(line.index(":") == 25 for line in (work / "analysis.txt").read_text().splitlines())
    assert (sha256(work / "analysis.txt"), sha256(work / "analysis.json")) == ANALYSIS_SHA256[case]
