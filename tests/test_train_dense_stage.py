"""The train-dense and dapt stages: one tokenization per document, every
dense index built by build_dense_index, and exit 2 with one stderr line for
unusable triples or a corrupt vocab.json."""

import dataclasses
import json

import pytest

import ranklab.cli
import ranklab.dense
import ranklab.subword
from ranklab.cli import EXIT_CONFIG, PipelineConfig, main, run_pipeline
from ranklab.corpus import load_corpus, load_queries
from ranklab.dense import DenseEncoder, build_dense_index
from ranklab.stopwords import ENGLISH_STOPWORDS
from ranklab.subword import SubwordVocab, tokenize_corpus
from ranklab.weaksup import read_triples
from test_cli import write_fixture_inputs


@pytest.fixture
def ingested(tmp_path):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600"]
    assert main(["pipeline", "--stages", "ingest", *common]) == 0
    return tmp_path / "w", common


def test_train_dense_without_usable_triples_is_exit_2(ingested, tmp_path, capsys):
    work, common = ingested
    triples = tmp_path / "triples.jsonl"
    triples.write_text(json.dumps({"query": "alpha", "pos_doc_id": "nope", "neg_doc_id": "nix"})
                       + "\n")
    capsys.readouterr()
    assert main(["train-dense", "--triples-file", str(triples), *common]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: no usable triples in {triples}\n"
    assert captured.out == ""
    assert not (work / "encoder.ckpt").exists() and not (work / "dense_index.bin").exists()


def test_train_dense_on_an_empty_triples_file_is_exit_2(ingested, tmp_path, capsys):
    """An empty file fails the one check a file of unusable triples fails."""
    work, common = ingested
    triples = tmp_path / "triples.jsonl"
    triples.write_text("")
    capsys.readouterr()
    assert main(["train-dense", "--triples-file", str(triples), *common]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no usable triples in {triples}\n"
    assert not (work / "encoder.ckpt").exists()


def test_select_train_without_usable_triples_is_exit_2(ingested, tmp_path, capsys):
    """select-train keeps only triples whose documents are both in index.bin."""
    work, common = ingested
    assert main(["pipeline", "--stages", "index,synth-weak,train-dense", "--set", "triples_count=8",
                 "--set", "dense_epochs=2", *common]) == 0
    triples = tmp_path / "triples.jsonl"
    triples.write_text("".join(json.dumps({"query": "alpha", "pos_doc_id": p, "neg_doc_id": n}) + "\n"
                               for p, n in [("nope", "nix"), ("nix", "gone")]))
    capsys.readouterr()
    assert main(["select-train", "--triples-file", str(triples), *common]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: no usable triples in {triples}\n"
    assert captured.out == ""
    assert not (work / "ranker.ckpt").exists() and not (work / "policy.json").exists()


def test_corrupt_vocab_is_exit_2(ingested, capsys):
    work, common = ingested
    vocab = work / "vocab.json"
    data = vocab.read_bytes()
    cuts = [data[:n] for n in (0, 1, 9, len(data) // 2, len(data) - 2)]
    for corrupt in [*cuts, b'{"version": 1}\n', b"[1]\n", b'{"version": 1, "chars": 5}\n',
                    b'{"version": 1, "chars": ["a"], "merges": [["a"]]}\n']:
        vocab.write_bytes(corrupt)
        capsys.readouterr()
        assert main(["dapt", "--set", "mlm_epochs=1", *common]) == EXIT_CONFIG, corrupt
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {vocab}: corrupt vocab file"), err
        assert err.count("\n") == 1


def test_train_dense_tokenizes_each_document_once(tmp_path, monkeypatch):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                            qrels_path=str(qrels), workdir=str(tmp_path / "w"),
                            vocab_size=600, triples_count=8, dense_epochs=4)
    run_pipeline(config, ["ingest", "index", "synth-weak"])
    texts, corpora = [], []

    def counting(tokenize, calls):
        return lambda text, *args: calls.append(text) or tokenize(text, *args)

    # queries are tokenized through subword.tokenize_query, the documents all at
    # once by subword.tokenize_corpus
    monkeypatch.setattr(ranklab.subword, "tokenize", counting(ranklab.subword.tokenize, texts))
    monkeypatch.setattr(ranklab.cli, "tokenize_corpus", counting(ranklab.cli.tokenize_corpus, corpora))
    run_pipeline(config, ["train-dense"])
    docs = load_corpus(corpus)
    triple_queries = [t.query for t in read_triples(tmp_path / "w" / "weak_triples.jsonl")]
    dev = [" ".join(q.processed_terms) for q in load_queries(queries, ENGLISH_STOPWORDS)]
    # two evaluations (epochs 3 and 4 at eval_every_steps = 3) share one tokenization
    assert sorted(texts) == sorted(triple_queries + dev)
    assert corpora == [docs]


def test_duplicate_documents_are_not_contrasted(tmp_path, capsys):
    """A negative that tokenizes like its positive, given or drawn at random,
    is never trained against it: such a given negative drops the triple, and
    random negatives are drawn from the documents that differ."""
    docs = [("d1", "remdesivir trial", "patients cohort"),
            ("d2", "remdesivir trial", "patients cohort"),
            ("d3", "vaccine antibody", "response titers"),
            ("d4", "mask filtration", "aerosol spread")]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"doc_id": d, "title": t, "abstract": a}) + "\n"
                              for d, t, a in docs))
    queries = tmp_path / "queries.tsv"
    queries.write_text("1\tremdesivir trial\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 d1 1\n1 0 d3 0\n")
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(tmp_path / "w")]
    assert main(["ingest", *common]) == 0
    triples = tmp_path / "triples.jsonl"
    duplicate = {"query": "remdesivir", "pos_doc_id": "d1", "neg_doc_id": "d2"}
    triples.write_text(json.dumps(duplicate) + "\n")
    train = ["train-dense", "--triples-file", str(triples), "--epochs", "1",
             "--negatives", "3", *common]
    capsys.readouterr()
    assert main(train) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no usable triples in {triples}\n"
    good = {"query": "remdesivir", "pos_doc_id": "d1", "neg_doc_id": "d3"}
    triples.write_text(json.dumps(duplicate) + "\n" + json.dumps(good) + "\n")
    assert main(train) == 0
    assert (tmp_path / "w" / "dense_index.bin").is_file()


@pytest.mark.parametrize("dev", [True, False], ids=["dev", "no-dev"])
def test_every_dense_index_is_built_by_build_dense_index(tmp_path, monkeypatch, dev):
    """One build per dev evaluation (epochs 3 and 4), or one with no dev
    queries; dense_index.bin is build_dense_index of the saved encoder over
    tokenize_corpus of the corpus, bit for bit."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                            qrels_path=str(qrels), workdir=str(tmp_path / "w"),
                            vocab_size=600, triples_count=8, dense_epochs=4)
    run_pipeline(config, ["ingest", "index", "synth-weak"])
    if not dev:
        config = dataclasses.replace(config, queries_path="", qrels_path="")
    built = []
    monkeypatch.setattr(ranklab.dense, "build_dense_index",
                        lambda *args: built.append(build_dense_index(*args)) or built[-1])
    run_pipeline(config, ["train-dense"])
    work = tmp_path / "w"
    assert len(built) == (2 if dev else 1)
    expected = build_dense_index(
        DenseEncoder.load(work / "encoder.ckpt"),
        tokenize_corpus(load_corpus(corpus), SubwordVocab.load(work / "vocab.json"),
                        config.max_seq_len))
    expected.save(tmp_path / "expected.bin")
    assert (work / "dense_index.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()
