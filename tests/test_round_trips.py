"""Property tests: what each writer writes, its reader reads back."""

import dataclasses
import json
import re
import warnings

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ranklab.checkpoint import load_arrays, save_arrays
from ranklab.cli import PipelineConfig
from ranklab.corpus import Qrels, is_token, load_corpus, text_terms
from ranklab.errors import ConfigError, ParseError, ToolkitWarning
from ranklab.evaluation import QuerySplit, Run, read_qrels, read_run, residual_filter, write_run
from ranklab.sparse import RankedList
from ranklab.subword import SubwordVocab, train_subword_vocab
from ranklab.weaksup import WEAK_SOURCES, WeakTriple, read_triples, write_triples

# identifiers hold no whitespace, as the whitespace-separated formats require
ids = st.text(alphabet="abxyz019-_.éß日", min_size=1, max_size=6)
query_ids = st.integers(1, 6)
runs = st.dictionaries(
    query_ids, st.dictionaries(ids, st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                               max_size=8), max_size=4,
).map(lambda by_query: {qid: RankedList.from_scores(qid, list(scored.items()))
                        for qid, scored in by_query.items()})
judgments = st.lists(st.tuples(query_ids, ids, st.integers(0, 3)), max_size=20)

triples = st.lists(
    st.tuples(st.text(min_size=1, max_size=12), ids, ids, st.sampled_from(WEAK_SOURCES))
    .filter(lambda t: t[1] != t[2]).map(lambda t: WeakTriple(*t)), max_size=6)


def config_values(field):
    """Values a config file line holds for the field: a string has no line
    break, no whitespace at either end and none before a '#', which starts a
    comment there."""
    kind = type(field.default)
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers()
    if kind is float:
        return st.floats(allow_nan=False)
    return (st.text() | st.text(alphabet="a #=\t")).filter(
        lambda s: s == s.strip() and not re.search(r"[\r\n]|(?:^|\s)#", s))


def config_line(key, value) -> str:
    """`key = value`, a bool written true or false and a float by repr."""
    if isinstance(value, bool):
        value = str(value).lower()
    elif isinstance(value, float):
        value = repr(value)
    return f"{key} = {value}\n"


configs = st.builds(PipelineConfig, **{f.name: config_values(f)
                                       for f in dataclasses.fields(PipelineConfig)})


@given(configs)
@example(PipelineConfig(run_tag="run#1", corpus_path="a b=c#d"))
def test_config_file_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("config") / "pipeline.cfg"
    path.write_text("".join(config_line(key, value)
                            for key, value in dataclasses.asdict(config).items()), encoding="utf-8")
    assert PipelineConfig.from_file(path) == config


@given(triples)
def test_triples_round_trip(tmp_path_factory, triples):
    path = tmp_path_factory.mktemp("triples") / "triples.jsonl"
    write_triples(triples, path)
    assert read_triples(path) == triples


@given(st.lists(st.text(alphabet="abcé9 -", max_size=16), max_size=8), st.integers(0, 12))
def test_trained_vocab_round_trip(tmp_path_factory, texts, extra):
    chars = {c for text in texts for word in text_terms(text) for c in word}
    vocab = train_subword_vocab(texts, len(chars) + 2 + extra)
    path = tmp_path_factory.mktemp("vocab") / "vocab.json"
    vocab.save(path)
    loaded = SubwordVocab.load(path)
    assert (loaded.chars, loaded.merges, loaded.pieces) == (vocab.chars, vocab.merges,
                                                            vocab.pieces)


# any finite float, -0.0, subnormals and +-1e308 among them; each query draws its
# scores from a pool of at most three, so exact ties are common
finite_scores = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1])
exact_runs = st.dictionaries(query_ids, st.lists(finite_scores, min_size=1, max_size=3).flatmap(
    lambda pool: st.dictionaries(ids, st.tuples(st.sampled_from(pool), st.booleans()),
                                 min_size=1, max_size=8)), max_size=4).map(
    # the flag stores a score as np.float64, as rankings built from arrays do
    lambda by_query: {qid: RankedList(qid, tuple(
        (doc, np.float64(score) if wrap else score)
        for doc, (score, wrap) in sorted(scored.items(), key=lambda e: (-e[1][0], e[0]))))
        for qid, scored in by_query.items()})


def score_bits(rankings):
    return {qid: [(doc, type(score), float(score).hex()) for doc, score in ranking.entries]
            for qid, ranking in rankings.items()}


@example({1: RankedList(1, (("a", np.float64(1e308)), ("b", 0.1), ("c", np.float64(0.1)),
                            ("d", 5e-324), ("e", 0.0), ("f", -0.0), ("g", -1e308)))}, "t")
@given(exact_runs, st.text(alphabet="abc-_1", min_size=1, max_size=5))
def test_run_round_trip_is_exact(tmp_path_factory, rankings, tag):
    path = tmp_path_factory.mktemp("run") / "run.trec"
    write_run(Run(rankings, tag), path)
    written = [line.split()[4] for line in path.read_text(encoding="utf-8").splitlines()]
    assert written == [repr(float(score)) for qid in sorted(rankings)
                       for _, score in rankings[qid].entries]
    loaded = read_run(path)
    assert loaded.tag == (tag if rankings else "external")
    assert score_bits(loaded.rankings) == {
        qid: [(doc, float, bits) for doc, _, bits in entries]
        for qid, entries in score_bits(rankings).items()}


@example({1: RankedList(1, ()), 2: RankedList(2, ())}, set(), "t")
@given(exact_runs, st.sets(query_ids), st.text(min_size=1, max_size=6).filter(is_token))
def test_write_run_returns_the_run_read_run_parses(tmp_path_factory, rankings, emptied, tag):
    """The run write_run returns holds the lists read_run parses back, the same
    objects, with the same scores bit for bit; it drops a list without entries,
    and its tag is "external" when no line was written."""
    rankings = {**rankings, **{qid: RankedList(qid, ()) for qid in emptied}}
    path = tmp_path_factory.mktemp("run") / "run.trec"
    returned, parsed = write_run(Run(rankings, tag), path), read_run(path)

    def bits(run):
        return [(qid, [(doc, float.hex(score)) for doc, score in ranking.entries])
                for qid, ranking in run.rankings.items()]
    assert (returned.tag, bits(returned)) == (parsed.tag, bits(parsed))
    assert all(ranking is rankings[qid] for qid, ranking in returned.rankings.items())
    if not any(ranking.entries for ranking in rankings.values()):
        assert returned.tag == "external"


# any text, with Unicode whitespace, line boundaries and a lone surrogate drawn often
any_text = st.text(st.characters() | st.sampled_from(
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u3000\ud800"), max_size=5)


def corpus_accepts(doc_id, path) -> bool:
    path.write_text(json.dumps({"doc_id": doc_id, "title": "t", "abstract": "a"}) + "\n",
                    encoding="utf-8")
    try:
        return [d.doc_id for d in load_corpus(path)] == [doc_id]
    except ParseError:
        return False


def validate_accepts(tag) -> bool:
    try:
        PipelineConfig(run_tag=tag).validate()
    except ConfigError:
        return False
    return True


def run_survives(doc_ids, tag, path) -> bool:
    """Whether write_run then read_run give back these doc ids, in order, and the tag."""
    entries = tuple((d, float(len(doc_ids) - i)) for i, d in enumerate(doc_ids))
    run = Run({1: RankedList(1, entries)}, tag)
    try:
        write_run(run, path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ToolkitWarning)
            loaded = read_run(path)
    except (ParseError, UnicodeEncodeError):
        return False
    return (loaded.rankings, loaded.tag) == (run.rankings, run.tag)


@example(["t00", "t00 d00", "t00\x1cd00", "t00\x85d00", "t00\xa0d00", " t00", ""], "my tag")
@example(["d\ud800"], "ranklab\x85")
@given(st.lists(any_text, max_size=6, unique=True), any_text)
def test_accepted_doc_ids_and_run_tag_survive_a_run_file(tmp_path_factory, doc_ids, tag):
    """load_corpus and validate accept exactly the doc ids and run tags that come
    back from write_run and read_run, and accepted ones come back together."""
    root = tmp_path_factory.mktemp("tokens")
    accepted = [d for d in doc_ids if corpus_accepts(d, root / "corpus.jsonl")]
    for doc_id in doc_ids:
        assert (doc_id in accepted) == run_survives([doc_id], "ranklab", root / "run.trec")
    assert validate_accepts(tag) == run_survives(["d"], tag, root / "run.trec")
    if accepted and validate_accepts(tag):
        assert run_survives(accepted, tag, root / "run.trec")


@given(judgments, st.sampled_from(["", "\n", " \t\n", "\r\n"]))
def test_qrels_last_duplicate_wins(tmp_path_factory, judged, blank):
    path = tmp_path_factory.mktemp("qrels") / "qrels.txt"
    path.write_text(blank.join(f"{qid} 0\t{doc}  {grade}\n" for qid, doc, grade in judged),
                    encoding="utf-8")
    expected: dict[int, dict[str, int]] = {}
    for qid, doc, grade in judged:
        expected.setdefault(qid, {})[doc] = grade
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        qrels = read_qrels(path)
    assert qrels.judgments == expected
    duplicates = len(judged) - sum(len(docs) for docs in expected.values())
    assert [w.category for w in caught] == [ToolkitWarning] * duplicates


array_names = st.text(min_size=1, max_size=8)
stored_arrays = st.dictionaries(array_names, st.sampled_from(
    ["<f8", "<f4", "<i8", "<i4", "<u2", "|u1", "|b1"]).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))),
    max_size=4)
metadata = st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6) | st.lists(
    st.floats(allow_nan=False, allow_infinity=False), max_size=3), max_size=4)


@given(stored_arrays, metadata)
def test_arrays_round_trip(tmp_path_factory, stored, meta):
    path = tmp_path_factory.mktemp("arrays") / "arrays.bin"
    save_arrays(path, "TEST", stored, meta)
    loaded, loaded_meta = load_arrays(path, "TEST", required=list(stored))
    assert loaded_meta == meta
    assert sorted(loaded) == sorted(stored)
    for name, array in stored.items():
        assert loaded[name].dtype == array.dtype and loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()


@given(runs, judgments, st.sets(query_ids))
def test_residual_filter_is_idempotent(rankings, judged, old):
    prior = Qrels()
    for qid, doc, grade in judged:
        prior.add(qid, doc, grade)
    split = QuerySplit.from_ids(old, set(rankings) - old)
    once = residual_filter(Run(rankings, "t"), prior, split)
    twice = residual_filter(once, prior, split)
    assert twice.rankings == once.rankings
    for qid in old & set(rankings):
        assert not set(once.rankings[qid].doc_ids()) & prior.judged_docs(qid)
