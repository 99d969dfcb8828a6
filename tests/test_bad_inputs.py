"""Bad text inputs, vocab files and corpora end in exit 2 with one stderr line."""

import dataclasses
import json
import shutil

import pytest

from ranklab.cli import EXIT_CONFIG, EXIT_DEPENDENCY, PipelineConfig, main
from ranklab.errors import ConfigError
from ranklab.subword import SubwordVocab, train_subword_vocab

from test_cli import write_fixture_inputs


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Fixture inputs and a work directory holding vocab, index and run.trec."""
    root = tmp_path_factory.mktemp("base")
    corpus, queries, qrels = write_fixture_inputs(root)
    common = ["--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
              "--workdir", str(root / "w"), "--set", "vocab_size=600"]
    assert main(["pipeline", "--stages", "ingest,index,evaluate", *common]) == 0
    return root


def _inject_bad_byte(path, line_no):
    """Put a 0xff byte after the first byte of line `line_no`."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = lines[line_no - 1][:1] + b"\xff" + lines[line_no - 1][1:]
    path.write_bytes(b"".join(lines))


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# each case writes (or picks) the one file to corrupt and names the command
# that reads it, after the fixture's own inputs
def _corpus(root):
    return root / "corpus.jsonl", ["index"]


def _queries(root):
    return root / "queries.tsv", ["ingest"]


def _qrels(root):
    return root / "qrels.txt", ["evaluate"]


def _prior_qrels(root):
    path = _write(root / "prior.txt", (root / "qrels.txt").read_text())
    return path, ["evaluate", "--residual", "--prior-qrels", str(path)]


def _split(root):
    path = _write(root / "split.txt", "1 old\n2 new\n3 old\n4 new\n")
    return path, ["evaluate", "--split-file", str(path)]


def _stopwords(root):
    path = _write(root / "stop.txt", "the\nof\nand\n")
    return path, ["ingest", "--stopwords", str(path)]


def _triples(root):
    lines = [json.dumps({"query": "q", "pos_doc_id": "t00d00", "neg_doc_id": f"t01d0{i}",
                         "source": "external"}) for i in range(3)]
    path = _write(root / "triples.jsonl", "\n".join(lines) + "\n")
    return path, ["train-dense", "--triples-file", str(path)]


def _reference_texts(root):
    path = _write(root / "reference.txt", "viral spike protein\n\nantibody response\n")
    return path, ["analyze", "--reference-texts", str(path)]


def _config(root):
    path = _write(root / "config.txt", f"# fixture\nvocab_size = 600\nworkdir = {root / 'w'}\n")
    return path, ["index", "--config", str(path)]


def _run(root):
    return root / "w" / "run.trec", ["evaluate"]


@pytest.mark.parametrize("case, line_no", [
    (_corpus, 3), (_queries, 2), (_qrels, 4), (_prior_qrels, 2), (_split, 3),
    (_stopwords, 2), (_triples, 2), (_reference_texts, 3), (_config, 2), (_run, 5),
])
def test_non_utf8_byte_is_one_line_exit_2(base, tmp_path, capsys, case, line_no):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    path, command = case(root)
    _inject_bad_byte(path, line_no)
    capsys.readouterr()
    code = main([*command, "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", "vocab_size=600"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"input error: {path}:{line_no}: not UTF-8 (invalid start byte)\n")


def test_corpus_without_pieces_fails_dapt_with_one_line(tmp_path, capsys):
    corpus = _write(tmp_path / "corpus.jsonl", "".join(
        json.dumps({"doc_id": f"d{i}", "title": "?!", "abstract": "..."}) + "\n"
        for i in range(2)))
    queries = _write(tmp_path / "queries.tsv", "1\tspike protein\n")
    qrels = _write(tmp_path / "qrels.txt", "1 0 d0 1\n")
    code = main(["pipeline", "--stages", "ingest,index,dapt", "--corpus", str(corpus),
                 "--queries", str(queries), "--qrels", str(qrels),
                 "--workdir", str(tmp_path / "w")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: no document in {corpus} has a piece to mask\n"
    assert not (tmp_path / "w" / "mlm_embeddings.ckpt").exists()


@pytest.fixture
def vocab_file(tmp_path):
    """A trained vocab.json, rewritten by each case."""
    path = tmp_path / "vocab.json"
    train_subword_vocab(["abc abd cab"], 12).save(path)
    return path


@pytest.mark.parametrize("edit, message", [
    (lambda p: p["chars"].append(p["chars"][0]), "distinct single characters"),
    (lambda p: p["chars"].append("zz"), "distinct single characters"),
    (lambda p: p["chars"].append(""), "distinct single characters"),
    (lambda p: p["merges"].append(["", "a"]), "non-empty strings"),
    (lambda p: p["merges"].append(["a", 1]), "non-empty strings"),
], ids=["repeated-char", "two-chars", "empty-char", "empty-merge-part", "int-merge-part"])
def test_vocab_no_training_run_writes_is_config_error(vocab_file, edit, message):
    payload = json.loads(vocab_file.read_text())
    edit(payload)
    vocab_file.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=message) as info:
        SubwordVocab.load(vocab_file)
    assert str(vocab_file) in str(info.value)


def test_train_dense_on_malformed_vocab_is_one_line_exit_2(base, tmp_path, capsys):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    vocab = root / "w" / "vocab.json"
    payload = json.loads(vocab.read_text())
    payload["chars"].append(payload["chars"][0])
    vocab.write_text(json.dumps(payload))
    triples, _ = _triples(root)
    capsys.readouterr()
    code = main(["train-dense", "--triples-file", str(triples),
                 "--corpus", str(root / "corpus.jsonl"), "--workdir", str(root / "w")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {vocab}: vocab chars must be distinct single characters\n")


# each case makes one bad path under the copied root and returns the argv
# that names it, and the one stderr line it must end in
def _config_missing(root):
    path = root / "missing.txt"
    return ["index", "--config", str(path)], f"config error: config file not found: {path}"


def _config_directory(root):
    path = root / "w"
    return ["index", "--config", str(path)], f"config error: config file not found: {path}"


def _workdir_is_a_file(root):
    path = _write(root / "workfile", "")
    return (["index", "--workdir", str(path)],
            f"config error: cannot make work directory {path}: File exists")


def _workdir_under_a_file(root):
    path = _write(root / "workfile", "") / "w"
    return (["index", "--workdir", str(path)],
            f"config error: cannot make work directory {path}: Not a directory")


def _split_misses_judged_queries(root):
    path = _write(root / "split.txt", "1 old\n2 new\n")
    return (["evaluate", "--split-file", str(path)],
            f"config error: split file {path} does not cover judged queries [3, 4]")


def _split_repeats_a_query(root):
    path = _write(root / "split.txt", "1 old\n2 new\n3 old\n4 new\n2 old\n")
    return (["evaluate", "--split-file", str(path)],
            f"input error: {path}:5: query_id 2 is already split")


def _grade_too_large_for_exp(root):
    qrels = _write(root / "qrels.txt", (root / "qrels.txt").read_text() + "99 0 t00d00 1024\n")
    return (["evaluate", "--gain", "exp"],
            f"config error: {qrels}: grade 1024 is too large for --gain exp")


def _exit_2_of(case, root, capsys):
    argv, message = case(root)
    capsys.readouterr()
    # a --workdir the case gives comes after the fixture's and wins
    code = main([*argv[:1], "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", "vocab_size=600", *argv[1:]])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("case", [
    _config_missing, _config_directory, _workdir_is_a_file, _workdir_under_a_file,
    _split_misses_judged_queries, _split_repeats_a_query,
])
def test_bad_path_or_split_is_one_line_exit_2(base, tmp_path, capsys, case):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    _exit_2_of(case, root, capsys)


@pytest.mark.parametrize("case", [_split_misses_judged_queries, _grade_too_large_for_exp])
def test_a_base_retrieval_evaluate_that_exits_2_writes_no_run(base, tmp_path, capsys, case):
    """Without a reranked run, evaluate writes the BM25 run only once it has scored it."""
    root = tmp_path / "root"
    shutil.copytree(base, root)
    (root / "w" / "run.trec").unlink()
    _exit_2_of(case, root, capsys)
    assert not (root / "w" / "run.trec").exists()


FLOAT_KEYS = [f.name for f in dataclasses.fields(PipelineConfig) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_key_is_one_line_exit_2(base, tmp_path, capsys, key, value):
    """No stage runs on a float key that is not a number or is infinite."""
    root = tmp_path / "root"
    shutil.copytree(base, root)
    (root / "w" / "run.trec").unlink()  # evaluate would write BM25 scores at this k1 and b
    capsys.readouterr()
    code = main(["evaluate", "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} must be finite\n"
    assert not (root / "w" / "run.trec").exists()


@pytest.mark.parametrize("argv", [["dapt", "--seed", "-1"], ["synth-weak", "--set", "seed=-3"]],
                         ids=["flag", "set"])
def test_negative_seed_is_one_line_exit_2(base, tmp_path, capsys, argv):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    capsys.readouterr()
    code = main([*argv, "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", "vocab_size=600"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"
    assert not (root / "w" / "mlm_embeddings.ckpt").exists()
    assert not (root / "w" / "weak_triples.jsonl").exists()


@pytest.mark.parametrize("key", ["mlm_lr", "dense_lr", "policy_lr", "ranker_lr"])
def test_negative_learning_rate_is_one_line_exit_2(base, tmp_path, capsys, key):
    """A negative rate would climb the loss; zero, which freezes a model, stays legal."""
    PipelineConfig().with_overrides({key: "0"}).validate()
    root = tmp_path / "root"
    shutil.copytree(base, root)
    capsys.readouterr()
    code = main(["pipeline", "--stages", "dapt", "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", "mlm_epochs=1", "--set", f"{key}=-1"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} must be >= 0\n"
    assert not (root / "w" / "mlm_embeddings.ckpt").exists()


@pytest.mark.parametrize("doc_id", [
    "t00 d00", "t00\td00", " t00d00", "t00d00\xa0", "t00\x1cd00", "t00\x85d00", "t00\u2028d00",
    "t00\u3000d00", "t00\ud800"])
def test_doc_id_not_one_token_is_one_line_exit_2(tmp_path, capsys, doc_id):
    """A doc id that read_run or read_qrels would not read back as one field."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    lines[2] = json.dumps({**record, "doc_id": doc_id}) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    code = main(["pipeline", "--stages", "ingest,index,evaluate", "--corpus", str(corpus),
                 "--queries", str(queries), "--qrels", str(qrels),
                 "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"input error: {corpus}:3: doc_id {doc_id!r} must be one token\n")
    assert not (tmp_path / "w" / "run.trec").exists()


# an argv byte that is not UTF-8 reaches the tag as a lone surrogate
@pytest.mark.parametrize("tag", ["my tag", "", "rank\tlab", "rank\x85lab", "rank\udcfflab"])
def test_run_tag_not_one_token_is_one_line_exit_2(base, tmp_path, capsys, tag):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    (root / "w" / "run.trec").unlink()  # evaluate would write a BM25 run under the tag
    capsys.readouterr()
    code = main(["evaluate", "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", f"run_tag={tag}"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: run_tag must be one token\n"
    assert not (root / "w" / "run.trec").exists()


TRIPLE = {"query": "spike protein", "pos_doc_id": "t00d00", "neg_doc_id": "t00d01"}


@pytest.mark.parametrize("record, message", [
    ([1, 2], "record is not an object"),
    ({**TRIPLE, "query": 5}, "query must be a string"),
    ({**TRIPLE, "pos_doc_id": ["t00d00"]}, "pos_doc_id must be a string"),
], ids=["list", "int-query", "list-doc-id"])
def test_weak_triple_of_wrong_type_is_one_line_exit_2(base, tmp_path, capsys, record, message):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    path = _write(root / "triples.jsonl", json.dumps(TRIPLE) + "\n" + json.dumps(record) + "\n")
    capsys.readouterr()
    code = main(["train-dense", "--triples-file", str(path), "--corpus", str(root / "corpus.jsonl"),
                 "--workdir", str(root / "w")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"input error: {path}:2: {message}\n"
    assert not (root / "w" / "encoder.ckpt").exists()


@pytest.fixture(scope="module")
def swept(base, tmp_path_factory):
    """base with the ranker stages run on it, through depth-sweep."""
    root = tmp_path_factory.mktemp("swept")
    shutil.copytree(base, root, dirs_exist_ok=True)
    common = ["--corpus", str(root / "corpus.jsonl"), "--queries", str(root / "queries.tsv"),
              "--qrels", str(root / "qrels.txt"), "--workdir", str(root / "w"),
              *(f"--set={s}" for s in ("vocab_size=600", "triples_count=8", "dense_epochs=2",
                                       "select_steps=2"))]
    stages = "synth-weak,train-dense,select-train,rerank,depth-sweep"
    assert main(["pipeline", "--stages", stages, *common]) == 0
    return root


def _evaluate_with_grade(root, capsys, grade, *flags, stage="evaluate"):
    """`stage` after a judgment of `grade` is added to the qrels as line 25."""
    qrels = root / "qrels.txt"
    _write(qrels, qrels.read_text() + f"99 0 t00d00 {grade}\n")
    capsys.readouterr()
    code = main([stage, *flags, "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(qrels),
                 "--workdir", str(root / "w")])
    return code, capsys.readouterr().err, qrels


EXP_1024 = "config error: {qrels}: grade 1024 is too large for --gain exp"


@pytest.mark.parametrize("stage, grade, flags, message", [
    ("evaluate", "1" + "0" * 400, [], "input error: {qrels}:25: grade is too large for a float"),
    ("evaluate", "1024", ["--gain", "exp"], EXP_1024),
    ("depth-sweep", "1024", ["--set", "gain=exp"], EXP_1024),
], ids=["huge", "exp-1024", "depth-sweep-exp-1024"])
def test_grade_a_gain_cannot_hold_is_one_line_exit_2(request, tmp_path, capsys, stage, grade,
                                                     flags, message):
    root = tmp_path / "root"
    shutil.copytree(request.getfixturevalue("base" if stage == "evaluate" else "swept"), root)
    report = root / "w" / ("report.txt" if stage == "evaluate" else "depth_sweep.tsv")
    before = report.read_bytes()
    code, err, qrels = _evaluate_with_grade(root, capsys, grade, *flags, stage=stage)
    assert code == EXIT_CONFIG
    assert err == message.format(qrels=qrels) + "\n"
    assert report.read_bytes() == before


@pytest.mark.parametrize("grade, flags", [("1023", ["--gain", "exp"]), ("1024", [])])
def test_grade_a_gain_holds_still_scores(base, tmp_path, capsys, grade, flags):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    code, err, _ = _evaluate_with_grade(root, capsys, grade, *flags)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("field, value", [("title", None), ("title", 7), ("abstract", ["a"])])
def test_corpus_field_of_wrong_type_is_one_line_exit_2(tmp_path, capsys, field, value):
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), field: value}) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    code = main(["pipeline", "--stages", "ingest,index", "--corpus", str(corpus),
                 "--queries", str(queries), "--qrels", str(qrels),
                 "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"input error: {corpus}:3: {field} {value!r} must be a string\n"
    assert not (tmp_path / "w" / "vocab.json").exists()


@pytest.mark.parametrize("date", [20200101, ["2020-01-01"], False, "not a date"])
def test_a_corpus_date_is_ignored_as_any_extra_key(base, tmp_path, capsys, date):
    """No stage reads a record's date, so none checks it: index.bin is the one built without it."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), "date": date}) + "\n"
    corpus.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    code = main(["pipeline", "--stages", "ingest,index", "--corpus", str(corpus),
                 "--queries", str(queries), "--qrels", str(qrels),
                 "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert (tmp_path / "w" / "index.bin").read_bytes() == (base / "w" / "index.bin").read_bytes()


@pytest.mark.parametrize("stage, output", [("synth-weak", "weak_triples.jsonl"),
                                           ("analyze", "analysis.json")])
def test_an_index_of_another_corpus_is_one_line_exit_3(base, tmp_path, capsys, stage, output):
    """index.bin built from the fixture corpus, read with a copy whose every doc id is renamed."""
    root = tmp_path / "root"
    shutil.copytree(base, root)
    corpus = root / "renamed.jsonl"
    records = [json.loads(line) for line in (root / "corpus.jsonl").read_text().splitlines()]
    corpus.write_text("".join(json.dumps({**r, "doc_id": "x" + r["doc_id"]}) + "\n"
                              for r in records))
    capsys.readouterr()
    code = main([stage, "--corpus", str(corpus), "--queries", str(root / "queries.tsv"),
                 "--qrels", str(root / "qrels.txt"), "--workdir", str(root / "w"),
                 "--set", "vocab_size=600"])
    assert code == EXIT_DEPENDENCY
    assert capsys.readouterr().err == (f"dependency error: stale artifact: index.bin holds other "
                                       f"documents than {corpus}; rerun index\n")
    assert not (root / "w" / output).exists()


INT64_BOUND = "in [1, 2**63 - 1]"


@pytest.mark.parametrize("key, value", [
    ("max_seq_len", str(2**63)), ("max_seq_len", "1" + "0" * 400),
    ("dim", str(2**63)), ("dim", "1" + "0" * 400),
], ids=["max_seq_len-2**63", "max_seq_len-10**400", "dim-2**63", "dim-10**400"])
def test_an_int_key_numpy_cannot_hold_is_one_line_exit_2(base, tmp_path, capsys, key, value):
    """A length or width past int64 would overflow in numpy, at the stage that reads it."""
    root = tmp_path / "root"
    shutil.copytree(base, root)
    capsys.readouterr()
    code = main(["pipeline", "--stages", "dapt", "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", "mlm_epochs=1", "--set", f"{key}={value}"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} must be {INT64_BOUND}\n"
    assert not (root / "w" / "mlm_embeddings.ckpt").exists()


def test_the_largest_int64_max_seq_len_still_runs(base, tmp_path, capsys):
    root = tmp_path / "root"
    shutil.copytree(base, root)
    capsys.readouterr()
    code = main(["pipeline", "--stages", "dapt", "--corpus", str(root / "corpus.jsonl"),
                 "--queries", str(root / "queries.tsv"), "--qrels", str(root / "qrels.txt"),
                 "--workdir", str(root / "w"), "--set", "mlm_epochs=1", "--set", f"max_seq_len={2**63 - 1}"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert (root / "w" / "mlm_embeddings.ckpt").is_file()
    for key in ("max_seq_len", "dim"):
        with pytest.raises(ConfigError, match=rf"^{key} must be in \[1, 2\*\*63 - 1\]$"):
            PipelineConfig().with_overrides({key: "0"}).validate()
