"""StageRunner.load: within one runner a file is parsed again only when it changes.

The memo must be invisible: every stage writes the same bytes and prints the
same warnings as when each stage parses its inputs afresh, and no stage
mutates an object that a later stage receives from the memo.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ranklab import cli, dense
from ranklab.cli import STAGES, PipelineConfig, StageRunner
from ranklab.subword import SubwordVocab
from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS
from test_cli import write_fixture_inputs

SRC = Path(__file__).resolve().parent.parent / "src"
SMALL = {"mlm_epochs": 2, "dense_epochs": 3, "select_steps": 3, "triples_count": 20}


def _config(root, workdir="work", **overrides):
    corpus, queries, qrels = (root / n for n in ("corpus.jsonl", "queries.tsv", "qrels.txt"))
    if not corpus.is_file():
        write_fixture_inputs(root, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    (root / workdir).mkdir()
    return PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                          qrels_path=str(qrels), workdir=str(root / workdir),
                          **{**SMALL, **overrides})


def _counting(monkeypatch, name, calls):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: calls.append(name) or real(*args))


def test_pipeline_parses_each_text_input_and_the_vocab_once(tmp_path, monkeypatch):
    """Each text input is parsed once, the corpus's text is split into terms once,
    and the vocab is made once: ingest trains it and hands it on unparsed."""
    config = _config(tmp_path)
    calls = []
    for name in ("load_corpus", "load_queries", "read_qrels", "corpus_terms",
                 "train_subword_vocab"):
        _counting(monkeypatch, name, calls)

    class CountedVocab(SubwordVocab):
        @classmethod
        def load(cls, path):
            calls.append("vocab")
            return SubwordVocab.load(path)

    monkeypatch.setattr(cli, "SubwordVocab", CountedVocab)
    cli.run_pipeline(config, STAGES)
    assert sorted(calls) == ["corpus_terms", "load_corpus", "load_queries", "read_qrels",
                             "train_subword_vocab"]


def test_a_rewritten_qrels_file_is_parsed_again(tmp_path, monkeypatch):
    config = _config(tmp_path)
    calls = []
    _counting(monkeypatch, "read_qrels", calls)
    runner = StageRunner(config)
    runner.run("ingest")
    runner.run("index")
    qrels = Path(config.qrels_path)
    # judge only the first query: the report must count one judged query
    first = qrels.read_text().splitlines()[0].split()[0]
    qrels.write_text("".join(line + "\n" for line in qrels.read_text().splitlines()
                             if line.split()[0] == first))
    runner.run("evaluate")
    assert calls == ["read_qrels", "read_qrels"]
    overall = json.loads((tmp_path / "work" / "report.jsonl").read_text().splitlines()[0])
    assert overall["n_queries"] == 1, overall


@pytest.mark.parametrize("change, rebuilt", [
    ("rewrite", ["load_corpus", "corpus_terms", "tokenize_corpus"]),
    ("max_seq_len", ["tokenize_corpus"])])
def test_train_dense_rebuilds_the_corpus_entries_whose_key_changed(tmp_path, monkeypatch,
                                                                   change, rebuilt):
    """The corpus's parse, term view and encoding are memo entries under the corpus file:
    rewriting it rebuilds all three once each, and another max_seq_len only the encoding,
    from the term view the memo already holds."""
    config = _config(tmp_path)
    calls = []
    for name in ("load_corpus", "corpus_terms", "tokenize_corpus"):
        _counting(monkeypatch, name, calls)
    runner = StageRunner(config)
    for stage in ("ingest", "index", "synth-weak", "dapt"):
        runner.run(stage)
    corpus = Path(config.corpus_path)
    if change == "rewrite":
        corpus.write_bytes(corpus.read_bytes())
        st = corpus.stat()  # a later mtime, even where the clock is coarser than the stages
        os.utime(corpus, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    else:
        config.max_seq_len = 8
    calls.clear()
    runner.run("train-dense")
    assert calls == rebuilt
    assert sum(key[0] == corpus for key in runner.parsed) == 3
    # what a runner that has parsed nothing yet writes from the same files
    written = {n: (tmp_path / "work" / n).read_bytes() for n in ("encoder.ckpt", "dense_index.bin")}
    StageRunner(config).run("train-dense")
    assert all((tmp_path / "work" / n).read_bytes() == b for n, b in written.items())


def _counting_dense_loads(monkeypatch, calls):
    """Record the file name of every DenseIndex.load and DenseEncoder.load call."""
    for cls in (dense.DenseIndex, dense.DenseEncoder):
        real = cls.load.__func__
        monkeypatch.setattr(cls, "load", classmethod(
            lambda kind, path, real=real: calls.append(Path(path).name) or real(kind, path)))


def _run_until_select_train(runner):
    for stage in STAGES[: STAGES.index("select-train")]:
        runner.run(stage)


def test_select_train_parses_neither_file_train_dense_saved(tmp_path, monkeypatch):
    """train-dense hands its encoder and dense index on under the files it saved."""
    calls = []
    _counting_dense_loads(monkeypatch, calls)
    runner = StageRunner(_config(tmp_path, warm_start=True))
    _run_until_select_train(runner)
    assert calls == ["mlm_embeddings.ckpt"]  # the warm start, read in train-dense
    handed = {key[0].name: obj for key, (_, obj) in runner.parsed.items()}
    calls.clear()
    runner.run("select-train")
    assert calls == []
    for name in ("encoder.ckpt", "dense_index.bin"):
        assert any(key[0].name == name and obj is handed[name]
                   for key, (_, obj) in runner.parsed.items()), name


def test_a_dense_index_rewritten_after_train_dense_is_parsed_again(tmp_path, monkeypatch):
    calls = []
    _counting_dense_loads(monkeypatch, calls)
    runner = StageRunner(_config(tmp_path))
    _run_until_select_train(runner)
    path = runner.artifact("dense_index")
    saved = dense.DenseIndex.load(path)
    dense.DenseIndex(np.zeros_like(saved.vectors), saved.doc_ids).save(path)
    calls.clear()
    runner.run("select-train")
    assert calls == ["dense_index.bin"]
    [parsed] = [obj for key, (_, obj) in runner.parsed.items() if key[0] == path]
    assert parsed is not saved and not parsed.vectors.any()


def _state(obj):
    """Pickled bytes of what a stage may read from obj; the vocab's per-word
    cache of word_pieces results is filled by every tokenization, by design."""
    if isinstance(obj, SubwordVocab):
        obj = {k: v for k, v in vars(obj).items() if k != "_word_cache"}
    return pickle.dumps(obj)


def _stopwords(root):
    path = root / "stopwords.txt"
    path.write_text("the\nof\nand\nin\n")
    return str(path)


def test_no_stage_mutates_a_memoized_object(tmp_path):
    runner = StageRunner(_config(tmp_path, stopwords_path=_stopwords(tmp_path), warm_start=True))
    first_seen = {}
    for stage in STAGES:
        runner.run(stage)
        for key, (_, obj) in runner.parsed.items():
            first_seen.setdefault((key, id(obj)), _state(obj))
            assert _state(obj) == first_seen[key, id(obj)], (stage, key[0].name)
    assert {key[0].name for key, _ in first_seen} == {
        "corpus.jsonl", "queries.tsv", "qrels.txt", "stopwords.txt", "vocab.json",
        "weak_triples.jsonl", "mlm_embeddings.ckpt", "encoder.ckpt", "dense_index.bin",
        "ranker.ckpt", "run.trec"}


def _relative(manifest, workdir):
    lines = [json.loads(line) for line in manifest.read_text().splitlines()]
    return [{side: {os.path.relpath(p, workdir): h for p, h in line[side].items()}
             for side in ("inputs", "outputs")} | {"stage": line["stage"]} for line in lines]


@pytest.mark.parametrize("fusion", ["none", "interp", "union", "rrf"])
def test_memo_writes_what_a_fresh_parse_per_stage_writes(tmp_path, fusion):
    cached = StageRunner(_config(tmp_path, "cached", fusion=fusion, warm_start=True))
    fresh = StageRunner(_config(tmp_path, "fresh", fusion=fusion, warm_start=True))
    for stage in STAGES:
        cached.run(stage)
        fresh.parsed.clear()
        fresh.run(stage)
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert sorted(p.name for p in (tmp_path / "cached").iterdir()) == names
    for name in names:
        if name != "manifest.jsonl":
            assert (tmp_path / "cached" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes(), name
    # the same files, with the same hashes, are listed for every stage
    assert _relative(tmp_path / "cached" / "manifest.jsonl", tmp_path / "cached") == \
        _relative(tmp_path / "fresh" / "manifest.jsonl", tmp_path / "fresh")


# runs main() with the memo emptied before every stage when argv[1] is "fresh"
CHILD = """
import sys
from ranklab import cli
if sys.argv[1] == "fresh":
    run = cli.StageRunner.run
    cli.StageRunner.run = lambda self, stage: self.parsed.clear() or run(self, stage)
sys.exit(cli.main(sys.argv[2:]))
"""


def test_warnings_are_the_same_as_with_a_fresh_parse_per_stage(tmp_path):
    config = _config(tmp_path)
    qrels, queries = Path(config.qrels_path), Path(config.queries_path)
    qrels.write_text(qrels.read_text() + qrels.read_text().splitlines()[0] + "\n")
    queries.write_text(queries.read_text() + "99\tthe of and\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(SRC)
    errs = {}
    for mode in ("cached", "fresh"):
        argv = ["pipeline", "--stages", ",".join(STAGES), "--corpus", config.corpus_path,
                "--queries", config.queries_path, "--qrels", config.qrels_path,
                "--workdir", str(tmp_path / mode),
                *(f"--set={k}={v}" for k, v in SMALL.items())]
        done = subprocess.run([sys.executable, "-c", CHILD, mode, *argv], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        errs[mode] = done.stderr
    assert errs["cached"] == errs["fresh"]
    text = errs["cached"].decode()
    assert text.count("ToolkitWarning: ") == 3, text
    assert text.count("contains only stopwords") == 1
    assert text.count("duplicate judgment for (1, t00d00); last wins") == 1
