import argparse
import ast
import dataclasses
import gc
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranklab
from ranklab.cli import (
    EXIT_CONFIG,
    EXIT_DEPENDENCY,
    EXIT_NUMERIC,
    STAGES,
    PipelineConfig,
    StageRunner,
    _build_parser,
    analyze_domain_gap,
    main,
    run_pipeline,
)
from ranklab.dense import DenseIndex
from ranklab.errors import ConfigError, DependencyError
from ranklab.evaluation import read_qrels
from ranklab.sparse import InvertedIndex, coverage_at_k, search_topk
from ranklab.subword import SubwordVocab
from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS, make_separable_corpus
from ranklab.weaksup import read_triples, write_triples


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

    @pytest.mark.parametrize("line, key, value", [
        ("run_tag = team#1", "run_tag", "team#1"),
        ("stopwords_path = /data/a#b.txt", "stopwords_path", "/data/a#b.txt"),
        ("topk = 30  # note", "topk", 30),
    ])
    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path, line, key, value):
        path = tmp_path / "config.txt"
        path.write_text(f"# comment\n  # indented comment\n{line}\n")
        assert getattr(PipelineConfig.from_file(path), key) == value

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
            Path(fixture_config.corpus_path).read_text().splitlines())
        assert report["n_queries"] == len(
            Path(fixture_config.queries_path).read_text().splitlines())
        assert report["n_judgments"] == len(
            Path(fixture_config.qrels_path).read_text().splitlines())

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

    @pytest.mark.parametrize("argv", [
        ["ingest", "--stopwords", "missing.txt"],
        ["analyze", "--reference-texts", "missing.txt"],
        ["analyze", "--set", "external_triples_path=missing.jsonl"],
        ["depth-sweep", "--depths", "0"],
        ["depth-sweep", "--depths", ","],
    ])
    def test_bad_input_is_one_line_exit_2(self, tmp_path, capsys, argv):
        corpus, queries, qrels = write_fixture_inputs(tmp_path)
        common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
                  "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600"]
        assert main(["pipeline", "--stages", "ingest,index", *common]) == 0
        capsys.readouterr()
        assert main([*argv, *common]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.count("\n") == 1


S, C = "_StoreAction", "_StoreConstAction"
# argparse passes a string on unchanged when a flag has no type, as type=str does
COMMON_FLAGS = {
    "--config": ("config", "str", None, S, None),
    "--workdir": ("workdir", "str", None, S, None),
    "--seed": ("seed", "int", None, S, None),
    "--corpus": ("corpus_path", "str", None, S, None),
    "--queries": ("queries_path", "str", None, S, None),
    "--qrels": ("qrels_path", "str", None, S, None),
    "--stopwords": ("stopwords_path", "str", None, S, None),
    "--set": ("set", "str", None, "_AppendAction", None),
}
STAGE_FLAGS = {
    "ingest": {"--vocab-size": ("vocab_size", "int", None, S, None)},
    "index": {},
    "dapt": {"--mask-rate": ("mask_rate", "float", None, S, None),
             "--epochs": ("mlm_epochs", "int", None, S, None),
             "--lr": ("mlm_lr", "float", None, S, None),
             "--dim": ("dim", "int", None, S, None)},
    "synth-weak": {"--triples": ("triples_count", "int", None, S, None),
                   "--retrieval-depth": ("retrieval_depth", "int", None, S, None),
                   "--max-query-terms": ("max_query_terms", "int", None, S, None),
                   "--include-stage1": ("include_stage1", "str", None, C, True)},
    "train-dense": {"--dim": ("dim", "int", None, S, None),
                    "--negatives": ("negatives", "int", None, S, None),
                    "--epochs": ("dense_epochs", "int", None, S, None),
                    "--lr": ("dense_lr", "float", None, S, None),
                    "--triples-file": ("external_triples_path", "str", None, S, None),
                    "--warm-start": ("warm_start", "str", None, C, True)},
    "select-train": {"--policy-lr": ("policy_lr", "float", None, S, None),
                     "--ranker-lr": ("ranker_lr", "float", None, S, None),
                     "--steps": ("select_steps", "int", None, S, None),
                     "--triples-file": ("external_triples_path", "str", None, S, None),
                     "--keep-all-updates": ("keep_all_updates", "str", None, C, True)},
    "rerank": {"--depth": ("depth", "int", None, S, None),
               "--fusion": ("fusion", "str", ("none", "interp", "union", "rrf"), S, None),
               "--alpha": ("alpha", "float", None, S, None),
               "--rrf-k": ("rrf_k", "int", None, S, None),
               "--topk": ("topk", "int", None, S, None),
               "--k1": ("k1", "float", None, S, None), "--b": ("b", "float", None, S, None)},
    "evaluate": {"--k": ("eval_k", "int", None, S, None),
                 "--gain": ("gain", "str", ("linear", "exp"), S, None),
                 "--split-file": ("split_path", "str", None, S, None),
                 "--prior-qrels": ("prior_qrels_path", "str", None, S, None),
                 "--residual": ("residual", "str", None, C, True),
                 "--skip-unjudgeable": ("skip_unjudgeable", "str", None, C, True)},
    "depth-sweep": {"--depths": ("depths", "str", None, S, None),
                    "--topk": ("topk", "int", None, S, None)},
    "analyze": {"--coverage-k": ("coverage_k", "int", None, S, None),
                "--reference-texts": ("reference_texts_path", "str", None, S, None)},
    "pipeline": {"--stages": ("stages", "str", None, S, None)},
}


def test_flag_surface():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(STAGE_FLAGS)
    for command, p in sub.choices.items():
        surface = {
            flag: (a.dest, (a.type or str).__name__,
                   tuple(a.choices) if a.choices else None, type(a).__name__, a.const)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings}
        assert surface == {**COMMON_FLAGS, **STAGE_FLAGS[command]}, command


FULL_STAGES = ["ingest", "index", "synth-weak", "dapt", "train-dense", "select-train",
               "rerank", "evaluate", "depth-sweep", "analyze"]
RANKER = "dense_index.bin encoder.ckpt index.bin ranker.ckpt vocab.json"
# stage -> (file names of its manifest inputs, of its outputs)
FULL_MANIFEST = {
    "ingest": ("corpus.jsonl qrels.txt queries.tsv", "vocab.json"),
    "index": ("corpus.jsonl", "index.bin"),
    "synth-weak": ("corpus.jsonl index.bin", "weak_triples.jsonl"),
    "dapt": ("corpus.jsonl vocab.json", "mlm_embeddings.ckpt"),
    "train-dense": ("corpus.jsonl qrels.txt queries.tsv vocab.json weak_triples.jsonl",
                    "dense_index.bin encoder.ckpt"),
    "select-train": ("dense_index.bin encoder.ckpt index.bin qrels.txt queries.tsv "
                     "vocab.json weak_triples.jsonl", "policy.json ranker.ckpt"),
    "rerank": (f"queries.tsv {RANKER}", "run.trec"),
    "evaluate": ("qrels.txt run.trec", "report.jsonl report.txt"),
    "depth-sweep": (f"qrels.txt queries.tsv {RANKER}", "depth_sweep.tsv"),
    "analyze": ("corpus.jsonl index.bin qrels.txt queries.tsv vocab.json",
                "analysis.json analysis.txt"),
}
STOPWORD_READERS = ("ingest", "synth-weak", "train-dense", "select-train", "rerank",
                    "depth-sweep", "analyze")
MANIFEST_CASES = {
    "full": ({}, FULL_STAGES, FULL_MANIFEST),
    "stopwords": ({"stopwords_path": "stopwords.txt"}, FULL_STAGES, {
        **FULL_MANIFEST,
        **{s: (FULL_MANIFEST[s][0] + " stopwords.txt", FULL_MANIFEST[s][1])
           for s in STOPWORD_READERS}}),
    "warm_start": ({"warm_start": True}, FULL_STAGES, {
        **FULL_MANIFEST,
        "train-dense": (FULL_MANIFEST["train-dense"][0] + " mlm_embeddings.ckpt",
                        FULL_MANIFEST["train-dense"][1])}),
    # evaluate before rerank scores base BM25 retrieval and writes run.trec
    "residual": ({"residual": True, "prior_qrels_path": "prior_qrels.txt",
                  "split_path": "split.txt"}, ["ingest", "index", "evaluate"], {
        "ingest": FULL_MANIFEST["ingest"], "index": FULL_MANIFEST["index"],
        "evaluate": ("index.bin prior_qrels.txt qrels.txt queries.tsv split.txt",
                     "report.jsonl report.txt run.trec")}),
    "analyze": ({"reference_texts_path": "reference.txt",
                 "external_triples_path": "external.jsonl"}, ["ingest", "index", "analyze"], {
        "ingest": FULL_MANIFEST["ingest"], "index": FULL_MANIFEST["index"],
        "analyze": ("corpus.jsonl external.jsonl index.bin qrels.txt queries.tsv "
                    "reference.txt vocab.json", "analysis.json analysis.txt")}),
}


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_manifest_lists_what_each_stage_reads_and_writes(fixture_config, tmp_path, case):
    (tmp_path / "stopwords.txt").write_text("the\nof\nand\n")
    (tmp_path / "prior_qrels.txt").write_text("1 0 t00d00 1\n")
    (tmp_path / "split.txt").write_text("1 old\n2 new\n3 new\n4 new\n")
    (tmp_path / "reference.txt").write_text("alpha beta\ngamma\n")
    (tmp_path / "external.jsonl").write_text(
        json.dumps({"query": "x", "pos_doc_id": "t00d00", "neg_doc_id": "t01d00"}) + "\n")
    overrides, stages, expected = MANIFEST_CASES[case]
    overrides = {k: str(tmp_path / v) if k.endswith("_path") else v
                 for k, v in overrides.items()}
    run_pipeline(dataclasses.replace(fixture_config, depths="5,10", **overrides), stages)
    manifest = [json.loads(l) for l in
                (tmp_path / "work" / "manifest.jsonl").read_text().splitlines()]
    table = {m["stage"]: tuple(sorted(Path(p).name for p in m[side])
                               for side in ("inputs", "outputs"))
             for m in manifest}
    assert table == {stage: tuple(sorted(names.split()) for names in row)
                     for stage, row in expected.items()}


def test_only_input_passes_config_paths_on():
    """A StageRunner method opens a config path only through input(), which
    checks the file and lists it in the manifest."""
    runner = ast.parse(inspect.getsource(StageRunner)).body[0]
    offenders = []
    for method in runner.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "input":
            continue
        for call in (n for n in ast.walk(method) if isinstance(n, ast.Call)):
            for arg in [*call.args, *(k.value for k in call.keywords)]:
                if (isinstance(arg, ast.Attribute) and arg.attr.endswith("_path")
                        and ast.unparse(arg.value) == "self.config"):
                    offenders.append(f"{method.name}: {ast.unparse(call)}")
    assert offenders == []


def _one_line_exit_2(argv, capsys, message):
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err, err
    assert err.count("\n") == 1


def test_repeated_doc_id_is_one_line_exit_2(tmp_path, capsys):
    corpus, _, _ = write_fixture_inputs(tmp_path)
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join([*lines, lines[0]]) + "\n")
    _one_line_exit_2(["index", "--corpus", str(corpus), "--workdir", str(tmp_path / "w")],
                     capsys, "duplicate doc_id 't00d00'")


def test_empty_corpus_is_one_line_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n")
    _one_line_exit_2(["index", "--corpus", str(corpus), "--workdir", str(tmp_path / "w")],
                     capsys, "empty corpus")


def test_analyze_without_relevant_documents_is_one_line_exit_2(tmp_path, capsys):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    qrels.write_text("".join(line.rsplit(" ", 1)[0] + " 0\n"
                             for line in qrels.read_text().splitlines()))
    _one_line_exit_2(["pipeline", "--stages", "ingest,index,analyze", "--corpus", str(corpus),
                      "--queries", str(queries), "--qrels", str(qrels),
                      "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600"],
                     capsys, "no judged queries with relevant documents")


def test_every_stage_in_listed_order_runs(tmp_path, monkeypatch):
    corpus, queries, qrels = write_fixture_inputs(tmp_path, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    frozen = []
    run = StageRunner.run

    def run_and_record(self, stage):
        frozen.append(gc.get_freeze_count())
        return run(self, stage)

    monkeypatch.setattr(StageRunner, "run", run_and_record)
    assert main(["pipeline", "--stages", ",".join(STAGES), "--corpus", str(corpus),
                 "--queries", str(queries), "--qrels", str(qrels),
                 "--workdir", str(tmp_path / "w")]) == 0
    # every stage runs with the startup heap frozen, and main gives the heap back
    assert len(frozen) == len(STAGES) and min(frozen) > 0
    assert gc.get_freeze_count() == 0


def test_input_error_unfreezes_the_heap(tmp_path, capsys):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    qrels.write_text("1 0 t00d00 x\n")
    assert main(["ingest", "--corpus", str(corpus), "--queries", str(queries),
                 "--qrels", str(qrels), "--workdir", str(tmp_path / "w")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("input error:")
    assert gc.get_freeze_count() == 0


def test_select_train_reads_weak_queries_as_processed_terms(tmp_path):
    """A triples file whose queries are capitalised and punctuated copies of
    synth-weak's trains the same ranker and policy, byte for byte."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600",
              "--set", "dense_epochs=4", "--set", "triples_count=8"]
    stages = "ingest,index,synth-weak,train-dense,select-train"
    assert main(["pipeline", "--stages", stages, *common]) == 0
    work = tmp_path / "w"
    outputs = ("ranker.ckpt", "policy.json")
    expected = [(work / name).read_bytes() for name in outputs]
    weak = read_triples(work / "weak_triples.jsonl")
    shouted = [dataclasses.replace(t, query=", ".join(w.capitalize() for w in t.query.split()) + "?")
               for t in weak]
    assert all(s.query != t.query for s, t in zip(shouted, weak))
    triples = tmp_path / "shouted.jsonl"
    write_triples(shouted, triples)
    assert main(["select-train", "--triples-file", str(triples), *common]) == 0
    assert [(work / name).read_bytes() for name in outputs] == expected


def test_train_dense_reads_weak_queries_as_processed_terms(tmp_path):
    """A triples file whose queries are synth-weak's with "the ... of" added
    trains the same encoder, byte for byte: train-dense drops stopwords from a
    weak query as select-train and rerank do."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600",
              "--set", "dense_epochs=4", "--set", "triples_count=8"]
    assert main(["pipeline", "--stages", "ingest,index,synth-weak,train-dense", *common]) == 0
    work = tmp_path / "w"
    expected = (work / "encoder.ckpt").read_bytes()
    weak = read_triples(work / "weak_triples.jsonl")
    wordy = [dataclasses.replace(t, query="the " + t.query.replace(" ", " of ", 1)) for t in weak]
    assert all(w.query != t.query for w, t in zip(wordy, weak))
    triples = tmp_path / "wordy.jsonl"
    write_triples(wordy, triples)
    assert main(["train-dense", "--triples-file", str(triples), *common]) == 0
    assert (work / "encoder.ckpt").read_bytes() == expected


def test_manifest_records_the_config_its_hash_and_the_version(tmp_path):
    """Each manifest line holds the validated config, the sha256 of its
    sorted-key JSON without workdir, and the package version: a --set change
    moves the hash, another work directory does not."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    inputs = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels)]
    lines = {}
    for name, extra in (("a", []), ("b", []), ("c", ["--set", "topk=7"])):
        assert main(["pipeline", "--stages", "ingest,index", "--workdir", str(tmp_path / name),
                     *inputs, *extra]) == 0
        lines[name] = [json.loads(l) for l in (tmp_path / name / "manifest.jsonl").read_text().splitlines()]
    for line in lines["a"]:
        config = dataclasses.asdict(dataclasses.replace(
            PipelineConfig(), corpus_path=str(corpus), queries_path=str(queries),
            qrels_path=str(qrels), workdir=str(tmp_path / "a")))
        assert line["config"] == config
        snapshot = json.dumps({k: v for k, v in config.items() if k != "workdir"}, sort_keys=True)
        assert line["config_sha256"] == hashlib.sha256(snapshot.encode()).hexdigest()
        assert line["version"] == ranklab.__version__
    hashes = {name: {line["config_sha256"] for line in got} for name, got in lines.items()}
    assert len(hashes["a"]) == 1
    assert hashes["a"] == hashes["b"] != hashes["c"]
    assert [line["config"]["topk"] for line in lines["c"]] == [7, 7]
