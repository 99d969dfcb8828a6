"""A weak_triples.jsonl that names none of the documents a training stage holds
was built from another corpus: train-dense (the tokenized corpus) and
select-train (index.bin) exit 3 with one stderr line that says to rerun
synth-weak. The same triples given by --triples-file stay a config error."""

import json

import pytest

from ranklab.cli import EXIT_CONFIG, EXIT_DEPENDENCY, main
from test_cli import write_fixture_inputs

STALE = "dependency error: stale artifact weak_triples.jsonl: built from other documents; rerun synth-weak\n"


def renamed_copy(corpus, qrels, root):
    """The corpus and qrels with every doc id renamed, written under `root`."""
    new_corpus, new_qrels = root / "renamed.jsonl", root / "renamed_qrels.txt"
    new_corpus.write_text("".join(
        json.dumps({**(doc := json.loads(line)), "doc_id": "renamed-" + doc["doc_id"]}) + "\n"
        for line in corpus.read_text().splitlines()))
    new_qrels.write_text("".join(
        f"{q} {it} renamed-{d} {g}\n" for q, it, d, g in map(str.split, qrels.read_text().splitlines())))
    return new_corpus, new_qrels


@pytest.fixture
def stale(tmp_path):
    """A work directory whose index, vocab, encoder and dense index come from the renamed
    corpus and whose weak_triples.jsonl from the original one; the renamed run's flags."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    work = tmp_path / "w"
    settings = ["--workdir", str(work), "--queries", str(queries), "--set", "vocab_size=600",
                "--set", "dense_epochs=1", "--set", "select_steps=1", "--set", "triples_count=8"]
    assert main(["pipeline", "--stages", "ingest,index,synth-weak", "--corpus", str(corpus),
                 "--qrels", str(qrels), *settings]) == 0
    original = (work / "weak_triples.jsonl").read_bytes()
    new_corpus, new_qrels = renamed_copy(corpus, qrels, tmp_path)
    common = ["--corpus", str(new_corpus), "--qrels", str(new_qrels), *settings]
    assert main(["pipeline", "--stages", "ingest,index,synth-weak,train-dense", *common]) == 0
    (work / "weak_triples.jsonl").write_bytes(original)
    return work, common


@pytest.mark.parametrize("stage, output", [("train-dense", "encoder.ckpt"), ("select-train", "ranker.ckpt")])
def test_weak_triples_of_another_corpus_are_exit_3(stale, capsys, stage, output):
    work, common = stale
    path = work / output
    before = path.read_bytes() if path.exists() else None
    capsys.readouterr()
    assert main([stage, *common]) == EXIT_DEPENDENCY
    captured = capsys.readouterr()
    assert captured.err == STALE and captured.out == ""
    assert (path.read_bytes() if path.exists() else None) == before
    # rebuilt from the corpus the stage holds, the triples are usable again
    assert main(["synth-weak", *common]) == 0
    assert main([stage, *common]) == 0


@pytest.mark.parametrize("stage", ["train-dense", "select-train"])
def test_the_same_triples_by_triples_file_are_exit_2(stale, tmp_path, capsys, stage):
    work, common = stale
    triples = tmp_path / "given.jsonl"
    triples.write_bytes((work / "weak_triples.jsonl").read_bytes())
    capsys.readouterr()
    assert main([stage, "--triples-file", str(triples), *common]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no usable triples in {triples}\n"
