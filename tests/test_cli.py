import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ranklab.cli import (
    EXIT_CONFIG,
    EXIT_DEPENDENCY,
    EXIT_NUMERIC,
    PipelineConfig,
    analyze_domain_gap,
    main,
    run_pipeline,
)
from ranklab.dense import DenseIndex
from ranklab.errors import ConfigError, DependencyError
from ranklab.evaluation import read_qrels
from ranklab.sparse import InvertedIndex, coverage_at_k, search_topk
from ranklab.subword import SubwordVocab
from ranklab.synthetic import make_separable_corpus


def write_fixture_inputs(root, n_topics=4, docs_per_topic=6):
    docs, queries, qrels = make_separable_corpus(n_topics, docs_per_topic)
    corpus = root / "corpus.jsonl"
    with open(corpus, "w") as fh:
        for d in docs:
            fh.write(json.dumps(
                {"doc_id": d.doc_id, "title": d.title, "abstract": d.abstract}) + "\n")
    queries_path = root / "queries.tsv"
    with open(queries_path, "w") as fh:
        for q in queries:
            fh.write(f"{q.query_id}\t{q.raw_text}\n")
    qrels_path = root / "qrels.txt"
    with open(qrels_path, "w") as fh:
        for qid in qrels.query_ids():
            for doc_id, grade in sorted(qrels.judgments[qid].items()):
                fh.write(f"{qid} 0 {doc_id} {grade}\n")
    return corpus, queries_path, qrels_path


@pytest.fixture
def fixture_config(tmp_path):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    return PipelineConfig(
        corpus_path=str(corpus),
        queries_path=str(queries),
        qrels_path=str(qrels),
        workdir=str(tmp_path / "work"),
        vocab_size=600,
        topk=20,
        depth=20,
        coverage_k=20,
        triples_count=8,
        dense_epochs=4,
        mlm_epochs=2,
        select_steps=4,
        seed=0,
    )


class TestConfig:
    def test_file_parse_and_overrides(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# comment\nk1 = 1.2\ntopk = 30\nfusion = rrf\nresidual = true\n")
        config = PipelineConfig.from_file(path)
        assert config.k1 == 1.2
        assert config.topk == 30
        assert config.fusion == "rrf"
        assert config.residual is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("topk = many\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(alpha=1.5).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(mask_rate=0.0).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(fusion="blend").validate()


class TestPipeline:
    def test_smoke_path_produces_run_and_report(self, fixture_config, tmp_path):
        outputs = run_pipeline(fixture_config, ["ingest", "index", "evaluate"])
        work = tmp_path / "work"
        assert (work / "run.trec").is_file()
        assert (work / "report.txt").is_file()
        assert (work / "report.jsonl").is_file()
        assert "evaluate" in outputs
        manifest = [json.loads(l) for l in (work / "manifest.jsonl").read_text().splitlines()]
        assert [m["stage"] for m in manifest] == ["ingest", "index", "evaluate"]
        listed = {path for m in manifest for path in m["outputs"]}
        for name in ("vocab.json", "index.bin", "run.trec", "report.txt", "report.jsonl"):
            assert str(work / name) in listed

    def test_rerank_without_ranker_is_dependency_error(self, fixture_config):
        run_pipeline(fixture_config, ["ingest", "index"])
        with pytest.raises(DependencyError):
            run_pipeline(fixture_config, ["rerank"])

    def test_evaluate_without_any_artifact_is_dependency_error(self, fixture_config):
        with pytest.raises(DependencyError):
            run_pipeline(fixture_config, ["evaluate"])

    def test_missing_input_is_config_error(self, fixture_config):
        import dataclasses

        broken = dataclasses.replace(fixture_config, corpus_path="nope.jsonl")
        with pytest.raises(ConfigError):
            run_pipeline(broken, ["ingest"])

    def test_unknown_stage_rejected(self, fixture_config):
        with pytest.raises(ConfigError):
            run_pipeline(fixture_config, ["shampoo"])

    def test_lock_conflict(self, fixture_config, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        # a live pid: this test's own process
        (work / ".lock").write_text(str(os.getpid()))
        with pytest.raises(ConfigError, match="lock"):
            run_pipeline(fixture_config, ["ingest"])

    @pytest.mark.parametrize("content", ["", "not a pid", "0", "-1", "9" * 30, "\xff"])
    def test_unreadable_lock_is_conflict(self, fixture_config, tmp_path, content):
        work = tmp_path / "work"
        work.mkdir()
        (work / ".lock").write_text(content, encoding="latin-1")
        with pytest.raises(ConfigError, match="lock"):
            run_pipeline(fixture_config, ["ingest"])
        assert (work / ".lock").read_text(encoding="latin-1") == content

    def test_dead_run_lock_is_reclaimed(self, fixture_config, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0
        work = tmp_path / "work"
        work.mkdir()
        (work / ".lock").write_text(str(child.pid))
        assert run_pipeline(fixture_config, ["ingest"])["ingest"]
        assert not (work / ".lock").exists()

    def test_full_pipeline_and_determinism(self, fixture_config, tmp_path):
        import dataclasses

        stages = ["ingest", "index", "synth-weak", "train-dense",
                  "select-train", "rerank", "evaluate"]
        artifacts = ["vocab.json", "index.bin", "weak_triples.jsonl",
                     "encoder.ckpt", "dense_index.bin", "ranker.ckpt",
                     "policy.json", "run.trec"]
        contents = []
        for name in ("w1", "w2"):
            config = dataclasses.replace(fixture_config, workdir=str(tmp_path / name))
            run_pipeline(config, stages)
            contents.append({a: (tmp_path / name / a).read_bytes() for a in artifacts})
        assert contents[0] == contents[1]

    def test_ranker_stages_read_the_dense_index(self, fixture_config, tmp_path):
        stages = ["ingest", "index", "synth-weak", "train-dense",
                  "select-train", "rerank", "depth-sweep"]
        run_pipeline(fixture_config, stages)
        work = tmp_path / "work"
        manifest = [json.loads(l) for l in (work / "manifest.jsonl").read_text().splitlines()]
        inputs = {m["stage"]: m["inputs"] for m in manifest}
        for stage in ("select-train", "rerank", "depth-sweep"):
            assert str(work / "dense_index.bin") in inputs[stage], stage
        (work / "dense_index.bin").unlink()
        with pytest.raises(DependencyError, match="dense_index.bin"):
            run_pipeline(fixture_config, ["rerank"])

    def test_ranker_stages_do_not_read_the_corpus(self, fixture_config, tmp_path):
        import dataclasses

        run_pipeline(fixture_config, ["ingest", "index", "synth-weak", "train-dense"])
        # a stage that loaded the corpus, or listed it among its manifest
        # inputs, would fail on the missing file
        no_corpus = dataclasses.replace(fixture_config, corpus_path=str(tmp_path / "gone.jsonl"))
        run_pipeline(no_corpus, ["select-train", "rerank", "depth-sweep"])

    def test_stages_list_the_stopword_list(self, fixture_config, tmp_path):
        import dataclasses

        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("the\nof\nand\n")
        config = dataclasses.replace(fixture_config, stopwords_path=str(stopwords))
        # evaluate before rerank scores base BM25 retrieval, which loads the queries
        stages = ["ingest", "index", "evaluate", "synth-weak", "dapt", "train-dense",
                  "select-train", "rerank", "depth-sweep", "analyze"]
        run_pipeline(config, stages)
        manifest = [json.loads(l) for l in
                    (tmp_path / "work" / "manifest.jsonl").read_text().splitlines()]
        listing = {m["stage"] for m in manifest if str(stopwords) in m["inputs"]}
        assert listing == set(stages) - {"index", "dapt"}

    def test_fixture_weak_triples_bytes_are_pinned(self, tmp_path):
        import hashlib

        from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS

        # sha256 of weak_triples.jsonl on the 200-doc fixture at default
        # config, as written when BM25 lists came from a full-corpus sort;
        # any change to the BM25 lists or their tie order changes it
        corpus, queries, qrels = write_fixture_inputs(
            tmp_path, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
        config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                                qrels_path=str(qrels), workdir=str(tmp_path / "work"))
        run_pipeline(config, ["index", "synth-weak"])
        data = (tmp_path / "work" / "weak_triples.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "64566198ef2787bab6560bc3de763b12a1b73ed644fac0c667016d2b3d149a27")

    def test_warm_start_requires_mlm_artifact(self, fixture_config):
        import dataclasses

        config = dataclasses.replace(fixture_config, warm_start=True)
        run_pipeline(config, ["ingest", "index", "synth-weak"])
        with pytest.raises(DependencyError):
            run_pipeline(config, ["train-dense"])
        run_pipeline(config, ["dapt", "train-dense"])


class TestAnalyze:
    def test_report_fields_and_delegation(self, fixture_config, tmp_path):
        run_pipeline(fixture_config, ["ingest", "index", "analyze"])
        work = tmp_path / "work"
        report = json.loads((work / "analysis.json").read_text())
        for field in ("n_documents", "n_queries", "n_judged_queries", "n_judgments",
                      "subword_ratio_queries", "subword_ratio_corpus", "coverage_at_k"):
            assert report[field] is not None

        # counts match line counts of the inputs
        assert report["n_documents"] == len(
            open(fixture_config.corpus_path).read().splitlines())
        assert report["n_queries"] == len(
            open(fixture_config.queries_path).read().splitlines())
        assert report["n_judgments"] == len(
            open(fixture_config.qrels_path).read().splitlines())

        # coverage field equals the sparse module's own measurement
        index = InvertedIndex.load(work / "index.bin")
        qrels = read_qrels(fixture_config.qrels_path)
        from ranklab.corpus import load_queries
        queries = load_queries(fixture_config.queries_path)
        run = {q.query_id: search_topk(index, q, fixture_config.coverage_k,
                                       fixture_config.k1, fixture_config.b)
               for q in queries}
        assert report["coverage_at_k"] == pytest.approx(
            coverage_at_k(run, qrels, fixture_config.coverage_k), abs=1e-12)


class TestMainExitCodes:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        code = main(["index", "--corpus", "missing.jsonl",
                     "--workdir", str(tmp_path / "w")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_dependency_error_is_exit_3(self, tmp_path, capsys):
        corpus, queries, qrels = write_fixture_inputs(tmp_path)
        code = main(["rerank", "--corpus", str(corpus), "--queries", str(queries),
                     "--qrels", str(qrels), "--workdir", str(tmp_path / "w")])
        assert code == EXIT_DEPENDENCY

    def test_stale_dense_index_is_exit_3(self, tmp_path, capsys):
        corpus, queries, qrels = write_fixture_inputs(tmp_path)
        common = ["--queries", str(queries), "--qrels", str(qrels),
                  "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600",
                  "--set", "dense_epochs=1", "--set", "select_steps=1",
                  "--set", "triples_count=8"]
        stages = "ingest,index,synth-weak,train-dense,select-train"
        assert main(["pipeline", "--stages", stages, "--corpus", str(corpus), *common]) == 0
        other = tmp_path / "other"
        other.mkdir()
        other_corpus, _, _ = write_fixture_inputs(other, docs_per_topic=5)
        assert main(["index", "--corpus", str(other_corpus), *common]) == 0
        capsys.readouterr()
        code = main(["rerank", "--corpus", str(other_corpus), *common])
        assert code == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert err.startswith("dependency error: stale artifact")
        assert err.count("\n") == 1

    def test_non_finite_dense_score_is_exit_4(self, tmp_path, capsys):
        corpus, queries, qrels = write_fixture_inputs(tmp_path)
        common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
                  "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600",
                  "--set", "dense_epochs=1", "--set", "select_steps=1",
                  "--set", "triples_count=8", "--set", "fusion=union"]
        stages = "ingest,index,synth-weak,train-dense,select-train"
        assert main(["pipeline", "--stages", stages, *common]) == 0
        path = tmp_path / "w" / "dense_index.bin"
        index = DenseIndex.load(path)
        index.vectors[1] = np.nan
        index.save(path)
        capsys.readouterr()
        assert main(["rerank", *common]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: non-finite score")
        assert err.count("\n") == 1

    def test_success_is_exit_0(self, tmp_path, capsys):
        corpus, queries, qrels = write_fixture_inputs(tmp_path)
        code = main(["pipeline", "--stages", "ingest,index,analyze",
                     "--corpus", str(corpus), "--queries", str(queries),
                     "--qrels", str(qrels), "--workdir", str(tmp_path / "w"),
                     "--set", "vocab_size=600", "--set", "coverage_k=20"])
        assert code == 0

    def test_flag_overrides_config_file(self, tmp_path):
        corpus, queries, qrels = write_fixture_inputs(tmp_path)
        config_file = tmp_path / "config.txt"
        config_file.write_text(
            f"corpus_path = {corpus}\nqueries_path = {queries}\n"
            f"qrels_path = {qrels}\nworkdir = {tmp_path / 'w'}\n"
            "vocab_size = 600\ncoverage_k = 999999\n")
        # flag must override the config file's absurd coverage depth
        code = main(["analyze", "--config", str(config_file), "--coverage-k", "20",
                     "--set", "vocab_size=600"])
        assert code == EXIT_DEPENDENCY  # analyze still needs vocab + index artifacts
        code = main(["pipeline", "--stages", "ingest,index", "--config", str(config_file)])
        assert code == 0
        code = main(["analyze", "--config", str(config_file), "--coverage-k", "20"])
        assert code == 0
        report = json.loads((tmp_path / "w" / "analysis.json").read_text())
        assert report["coverage_k"] == 20
