"""train-dense's inputs without per-triple scans: negatives drawn by index
into the documents still allowed, the contrastive loss as one stacked pass
per negative count, and one tokenization of the corpus per pipeline run.

The former per-triple corpus scan is kept here as the oracle of the draws;
tests/test_pool.py's per-triple loops are the oracle of the loss."""

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import ranklab.cli
import ranklab.subword
from ranklab.cli import PipelineConfig, StageRunner, training_triples
from ranklab.corpus import load_corpus
from ranklab.dense import DenseEncoder, TrainingTriple, contrastive_loss, train_step
from ranklab.errors import ToolkitWarning
from ranklab.stopwords import ENGLISH_STOPWORDS
from ranklab.subword import SubwordVocab, TokenizedCorpus, tokenize, train_subword_vocab
from ranklab.weaksup import WeakTriple
from test_pool import VOCAB, reference_contrastive_loss, reference_train_step
from test_stage_memo import _config

QUERY_VOCAB = train_subword_vocab(["fever cough trial vaccine"], 30)


def former_training_triples(weak, pieces, vocab, max_len, negatives, rng):
    """stage_train_dense's triples before the draws stopped scanning the corpus."""
    triples = []
    for t in weak:
        if t.pos_doc_id not in pieces or t.neg_doc_id not in pieces:
            continue
        positive = pieces[t.pos_doc_id]
        if pieces[t.neg_doc_id] == positive:
            continue
        chosen = [t.neg_doc_id]
        candidates = [d for d, p in pieces.items() if d != t.neg_doc_id and p != positive]
        while len(chosen) < negatives and candidates:
            chosen.append(candidates.pop(int(rng.integers(len(candidates)))))
        triples.append(TrainingTriple(
            tuple(tokenize(t.query, vocab, max_len)), positive,
            tuple(pieces[n] for n in chosen)))
    return triples


def flat(pieces):
    """Doc id -> piece ids held as tokenize_corpus holds an encoded corpus."""
    return TokenizedCorpus(list(pieces), np.array([i for p in pieces.values() for i in p], np.intp),
                           np.array([len(p) for p in pieces.values()], np.intp))


def _config_of(negatives):
    return PipelineConfig(max_seq_len=8, negatives=negatives)


# two piece ids and at most two of them: many documents tokenize alike
doc_pieces = st.lists(st.integers(2, 3), max_size=2).map(tuple)


@st.composite
def draw_inputs(draw):
    corpus = draw(st.lists(doc_pieces, min_size=1, max_size=9))
    pieces = flat({f"d{i}": p for i, p in enumerate(corpus)})
    ids = [*pieces, "missing"]
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    weak = [WeakTriple(q, pos, neg) for q, (pos, neg) in draw(st.lists(
        st.tuples(st.sampled_from(["fever", "cough trial", "vaccine"]), pairs), max_size=6))]
    return pieces, weak, draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


@given(draw_inputs())
def test_negative_draws_match_the_corpus_scan(inputs):
    pieces, weak, negatives, seed = inputs
    rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = training_triples(weak, pieces, QUERY_VOCAB, _config_of(negatives), rng,
                           ENGLISH_STOPWORDS)
    assert got == former_training_triples(weak, pieces, QUERY_VOCAB, 8, negatives, expected_rng)
    # the same calls to rng: the shuffles after the draws see the same stream
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def test_draws_skip_documents_alike_and_stop_when_the_corpus_runs_out():
    pieces = flat({"p": (2,), "twin": (2,), "n": (3,), "other": (3,), "empty": ()})
    weak = [WeakTriple("fever", "p", "n"), WeakTriple("fever", "p", "twin"),
            WeakTriple("fever", "n", "other")]
    for negatives in (1, 2, 3, 9):
        rng, expected_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = training_triples(weak, pieces, QUERY_VOCAB, _config_of(negatives), rng,
                               ENGLISH_STOPWORDS)
        assert got == former_training_triples(weak, pieces, QUERY_VOCAB, 8, negatives,
                                              expected_rng)
        # the twin of the positive is never a negative, and "p -> twin" is dropped
        assert len(got) == 1
        assert got[0].negative_ids[0] == (3,) and (2,) not in got[0].negative_ids
        assert len(got[0].negative_ids) == min(negatives, 3)


def test_a_mixed_width_batch_matches_the_per_triple_loops():
    rng = np.random.default_rng(11)

    def seq(first, n):
        return (first, *rng.integers(0, VOCAB, size=n).tolist())

    widths = [2, 5, 3, 5, 2, 3]  # negatives per triple, two stacks interleaved with a third
    batch = [TrainingTriple(seq(0, 4), seq(1, 6), tuple(seq(2, int(rng.integers(0, 9)))
                                                        for _ in range(m))) for m in widths]
    batch.append(TrainingTriple((), (5, 6), ((7,), (8, 9))))  # an empty query pools to zeros
    table = rng.normal(0, 0.3, size=(VOCAB, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ToolkitWarning)
        got, loss = train_step(DenseEncoder(table.copy()), batch, 0.5)
        expected, expected_loss = reference_train_step(DenseEncoder(table.copy()), batch, 0.5)
        for triple in batch:
            assert (contrastive_loss(DenseEncoder(table), triple)
                    == reference_contrastive_loss(DenseEncoder(table), triple))
    assert loss == expected_loss
    assert got.table.tobytes() == expected.table.tobytes()


def _count_document_tokenizations(monkeypatch, corpus_path):
    texts = {d.text() for d in load_corpus(corpus_path)}
    calls = []
    real = ranklab.subword.tokenize
    monkeypatch.setattr(ranklab.subword, "tokenize", lambda text, *args: (
        calls.append(text) if text in texts else None) or real(text, *args))
    return texts, calls


def _count_corpus_encodings(monkeypatch):
    """The stages' calls of corpus_terms (each document's text split into terms)
    and of tokenize_corpus (each document encoded), in order."""
    calls = []
    for name in ("corpus_terms", "tokenize_corpus"):
        real = getattr(ranklab.cli, name)
        monkeypatch.setattr(ranklab.cli, name, lambda *args, name=name, real=real: (
            calls.append(name) or real(*args)))
    return calls


def test_one_pipeline_run_tokenizes_the_corpus_once(tmp_path, monkeypatch):
    config = _config(tmp_path)
    texts, calls = _count_document_tokenizations(monkeypatch, config.corpus_path)
    encodings = _count_corpus_encodings(monkeypatch)
    ranklab.cli.run_pipeline(config, ["ingest", "index", "synth-weak", "dapt", "train-dense"])
    # no document is tokenized one by one: the corpus is split and encoded once
    assert calls == []
    assert encodings == ["corpus_terms", "tokenize_corpus"]


def test_a_rewritten_vocab_is_tokenized_again(tmp_path, monkeypatch):
    config = _config(tmp_path)
    runner = StageRunner(config)
    for stage in ("ingest", "index", "synth-weak", "dapt"):
        runner.run(stage)
    texts = sorted({d.text() for d in load_corpus(config.corpus_path)})
    encodings = _count_corpus_encodings(monkeypatch)
    vocab_path = tmp_path / "work" / "vocab.json"
    smaller = train_subword_vocab(texts, len(SubwordVocab.load(vocab_path)) - 5)
    smaller.save(vocab_path)
    runner.run("train-dense")
    # the corpus is encoded again with the new vocab, from the term view already split
    assert encodings == ["tokenize_corpus"]
    encoder = DenseEncoder.load(tmp_path / "work" / "encoder.ckpt")
    assert encoder.vocab_size == len(smaller)
    # the memo keeps the corpus's parse, its term view and one tokenization: the new vocab's
    assert sum(key[0].name == "corpus.jsonl" for key in runner.parsed) == 3
    # what a runner that has parsed nothing yet writes from the same files
    written = {n: (tmp_path / "work" / n).read_bytes() for n in ("encoder.ckpt", "dense_index.bin")}
    StageRunner(config).run("train-dense")
    assert all((tmp_path / "work" / n).read_bytes() == b for n, b in written.items())
