"""One term view of the corpus: corpus_terms splits each document's text once,
and vocab training, the BM25 index, document tokenization and synth-weak's
query generator all read it.

The former per-document code is kept here as the oracle: a Counter per
document for the index, tokenize per document for the encoding, and
word_pieces of a freshly loaded vocab for the trained vocab's word cache."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ranklab
from ranklab.cli import STAGES, run_pipeline
from ranklab.corpus import Document, corpus_terms, text_terms
from ranklab.sparse import InvertedIndex, build_index
from ranklab.subword import SubwordVocab, tokenize, tokenize_corpus, train_subword_vocab
from ranklab.weaksup import synthesize_with_provenance
from test_stage_memo import _config

SRC = Path(__file__).resolve().parent.parent / "src"

# repeated words, digits, case and punctuation, and empty texts
words = st.sampled_from(["covid", "Covid", "cov", "19", "covid19", "ace2", "rna", "a", "1"])
texts = st.lists(words, max_size=7).map(" ".join) | st.sampled_from(["", " ", "--", "RNA-seq 2020."])
corpora = st.lists(st.tuples(texts, texts), min_size=1, max_size=10).map(
    lambda pairs: [Document(f"d{i}", t, a) for i, (t, a) in enumerate(pairs)])


def former_build_index(docs):
    """build_index before it read the term view: one Counter per document."""
    postings: dict[str, list[tuple[int, int]]] = {}
    lengths = []
    for ordinal, doc in enumerate(docs):
        terms = text_terms(doc.text())
        lengths.append(len(terms))
        for t, count in Counter(terms).items():
            postings.setdefault(t, []).append((ordinal, count))
    terms = sorted(postings)
    offsets = np.cumsum([0] + [len(postings[t]) for t in terms], dtype=np.int64)
    flat = np.array([p for t in terms for p in postings[t]], dtype=np.int32).reshape(-1, 2)
    return InvertedIndex(terms, offsets, flat[:, 0].copy(), flat[:, 1].copy(),
                         np.array(lengths, dtype=np.int32), [d.doc_id for d in docs])


@given(corpora)
def test_the_view_holds_each_documents_terms(docs):
    view = corpus_terms(docs)
    assert view.terms == sorted({t for d in docs for t in text_terms(d.text())})
    assert view.ids.dtype == view.lengths.dtype == np.int32
    ends = np.cumsum(view.lengths).tolist()
    for doc, n, end in zip(docs, view.lengths.tolist(), ends):
        assert [view.terms[i] for i in view.ids[end - n : end]] == text_terms(doc.text())
    texts_view = corpus_terms([d.text() for d in docs])  # texts split as documents do
    assert texts_view.terms == view.terms
    assert texts_view.ids.tobytes() == view.ids.tobytes()


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_the_view_built_index_equals_the_per_document_counts(tmp_path_factory, docs):
    got, expected = build_index(docs), former_build_index(docs)
    assert got.terms == expected.terms and got.doc_ids == expected.doc_ids
    for name in ("offsets", "ordinals", "tfs", "lengths"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert build_index(docs, corpus_terms(docs)).postings == expected.postings
    root = tmp_path_factory.mktemp("index")
    got.save(root / "got.bin")
    expected.save(root / "expected.bin")
    assert (root / "got.bin").read_bytes() == (root / "expected.bin").read_bytes()


# a small vocab splits most words into several pieces
VOCAB = train_subword_vocab(["covid covid19 ace2 rna cov 19", "sars coronavirus"], 24)


@settings(max_examples=60, deadline=None)
@given(corpora, st.integers(1, 12))
def test_tokenize_corpus_equals_tokenize_per_document(docs, max_length):
    vocab = SubwordVocab(VOCAB.chars, VOCAB.merges)
    assert any(len(vocab.word_pieces(w)) > 2 for w in ("covid19", "coronavirus"))
    got = tokenize_corpus(docs, vocab, max_length)
    fresh = SubwordVocab(VOCAB.chars, VOCAB.merges)
    assert got == {d.doc_id: tuple(tokenize(d.text(), fresh, max_length)) for d in docs}
    assert tokenize_corpus(docs, vocab, max_length, corpus_terms(docs)) == got


@settings(max_examples=60, deadline=None)
@given(corpora.map(lambda docs: [*docs, Document("empty", "", "--")]), st.integers(1, 12))
def test_the_flat_encoding_is_tokenize_per_document(docs, max_length):
    vocab = SubwordVocab(VOCAB.chars, VOCAB.merges)
    got = tokenize_corpus(docs, vocab, max_length)
    expected = [tokenize(d.text(), vocab, max_length) for d in docs]
    assert got.lengths.tolist() == list(map(len, expected)) and got.lengths[-1] == 0
    assert got.ids.tolist() == [i for ids in expected for i in ids]
    assert got.ids.dtype == got.lengths.dtype == np.intp
    assert not got.ids.flags.writeable and not got.lengths.flags.writeable
    assert [got.row(i) for i in range(len(docs))] == list(map(tuple, expected))


def test_max_length_cuts_through_a_words_pieces():
    vocab = SubwordVocab(VOCAB.chars, VOCAB.merges)
    doc = Document("d", "rna coronavirus", "")
    pieces = len(vocab.word_pieces("coronavirus"))
    assert pieces >= 3
    for max_length in range(1, pieces + 3):
        assert tokenize_corpus([doc], vocab, max_length)["d"] == tuple(
            tokenize(doc.text(), vocab, max_length))
        flat = tokenize_corpus([doc, Document("e", "", "")], vocab, max_length)
        assert flat.ids.tolist() == tokenize(doc.text(), vocab, max_length)
        assert flat.lengths.tolist() == [min(max_length, len(vocab.word_pieces("rna")) + pieces), 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(texts, max_size=8), st.integers(0, 40))
def test_the_trained_vocabs_cache_is_what_a_loaded_vocab_splits(tmp_path_factory, sample, extra):
    chars = {c for t in sample for w in text_terms(t) for c in w}
    vocab = train_subword_vocab(sample, len(chars) + 2 + extra)
    path = tmp_path_factory.mktemp("vocab") / "vocab.json"
    vocab.save(path)
    loaded = SubwordVocab.load(path)
    trained = {w for t in sample for w in text_terms(t)}
    assert set(vocab._word_cache) == trained
    for word in trained:
        assert vocab._word_cache[word] == (loaded.word_pieces(word), loaded.word_ids(word))
    # the view trains the same vocab as the texts
    assert train_subword_vocab(corpus_terms(sample), len(vocab)).merges == vocab.merges


def _count_text_terms(monkeypatch, texts):
    """Calls of text_terms on a document's text, through every ranklab module
    that holds the function."""
    calls = Counter()
    real = ranklab.corpus.text_terms

    def counting(text):
        if text in texts:
            calls[text] += 1
        return real(text)
    for name, module in list(sys.modules.items()):
        if name.startswith("ranklab") and getattr(module, "text_terms", None) is real:
            monkeypatch.setattr(module, "text_terms", counting)
    return calls


def test_a_pipeline_run_splits_each_document_once(tmp_path, monkeypatch):
    """synth-weak's generator too reads its documents' terms from the view."""
    config = _config(tmp_path)
    texts = Counter(d.text() for d in ranklab.corpus.load_corpus(config.corpus_path))
    calls = _count_text_terms(monkeypatch, texts)
    with contextlib.redirect_stdout(io.StringIO()):
        run_pipeline(config, STAGES)
    assert calls == texts


def test_synthesis_reads_the_terms_the_view_holds(separable):
    docs, index = separable["docs"], separable["index"]
    assert (synthesize_with_provenance(docs, index, 40, seed=3, view=corpus_terms(docs))
            == synthesize_with_provenance(docs, index, 40, seed=3))


def test_train_dense_does_not_import_numpy_ma():
    """np.unique imports numpy.ma, about 14 ms once per process."""
    code = ("import sys\n"
            "from ranklab.dense import DenseEncoder, TrainingTriple, train_step\n"
            "train_step(DenseEncoder.init(9, 4), [TrainingTriple((2, 3), (4,), ((5,), (6, 7)))], 0.1)\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout == "False\n"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Fixture inputs, graded qrels, a split and prior qrels, and a config whose
    work directory holds every artifact up to ranker.ckpt."""
    root = tmp_path_factory.mktemp("trained")
    config = _config(root)
    with contextlib.redirect_stdout(io.StringIO()):
        run_pipeline(config, STAGES[:STAGES.index("rerank")])
    judged = [line.split() for line in (root / "qrels.txt").read_text().splitlines()]
    # grades 0 to 3, and queries 9 and 10 without a relevant document
    (root / "graded.txt").write_text("".join(
        f"{q} 0 {d} {0 if int(q) > 8 else int(d[-2:]) % 4}\n" for q, _, d, _ in judged))
    (root / "split.txt").write_text("".join(f"{q} {'old' if q <= 5 else 'new'}\n" for q in range(1, 11)))
    (root / "prior.txt").write_text("".join(
        f"{q} 0 t{q - 1:02d}d{j:02d} 1\n" for q in range(1, 6) for j in range(15)))
    return config


def _rerank_evaluate_sweep(trained, tmp_path, **overrides):
    """rerank, evaluate and depth-sweep on a copy of the trained work directory;
    returns the config, report.jsonl's overall record and depth_sweep.tsv's rows."""
    work = tmp_path / "work"
    shutil.copytree(trained.workdir, work)
    root = Path(trained.corpus_path).parent
    overrides = {k: str(root / v) if k.endswith("_path") else v for k, v in overrides.items()}
    config = dataclasses.replace(trained, workdir=str(work), **overrides)
    with contextlib.redirect_stdout(io.StringIO()):
        run_pipeline(config, ["rerank", "evaluate", "depth-sweep"])
    overall = json.loads((work / "report.jsonl").read_text().splitlines()[0])
    rows = dict(line.split("\t", 1) for line in (work / "depth_sweep.tsv").read_text().splitlines())
    return config, overall, rows


def test_depth_sweep_sweeps_the_interp_fused_run(trained, tmp_path):
    """At the depth rerank ran at, the sweep's row is the run evaluate scores."""
    config, overall, rows = _rerank_evaluate_sweep(trained, tmp_path, fusion="interp", alpha=0.9)
    assert config.depth == 100
    assert rows["100"].split("\t")[0] == f"{overall['ndcg@10']:.6f}" == "0.978909"


SCORINGS = {
    "default": {},
    "exp-skip": {"qrels_path": "graded.txt", "gain": "exp", "skip_unjudgeable": True},
    "residual": {"residual": True, "split_path": "split.txt", "prior_qrels_path": "prior.txt"},
}


@pytest.mark.parametrize("scoring", list(SCORINGS))
@pytest.mark.parametrize("fusion", ["none", "interp", "union", "rrf"])
def test_the_sweep_row_at_depth_is_evaluates_overall_line(trained, tmp_path, fusion, scoring):
    """Under every fusion and scoring setting, the sweep fuses and scores as
    rerank and evaluate do."""
    config, overall, rows = _rerank_evaluate_sweep(
        trained, tmp_path, fusion=fusion, alpha=0.9, **SCORINGS[scoring])
    assert overall["group"] == "overall"
    assert rows[str(config.depth)] == f"{overall['ndcg@10']:.6f}\t{overall['p@5']:.6f}"
