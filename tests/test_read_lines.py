"""checkpoint.read_lines against the text-mode loop every reader had before it."""

import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranklab.checkpoint import read_lines
from ranklab.cli import PipelineConfig
from ranklab.corpus import load_corpus, load_queries
from ranklab.errors import ParseError
from ranklab.evaluation import load_split, read_qrels, read_run
from ranklab.stopwords import load_stopwords
from ranklab.weaksup import read_triples


def _former_loop(path):
    """The open / enumerate / skip-blank loop each reader carried."""
    with open(path, encoding="utf-8") as fh:
        return [(line_no, line) for line_no, line in enumerate(fh, start=1) if line.strip()]


# line ends of every kind, blank and whitespace-only lines, non-ASCII text
pieces = st.sampled_from(["\n", "\r\n", "\r", " ", "\t", "  \n", "a", "Zoë", "été",
                          "日本", "\U0001f600", "\u2028", "\x85", "\x1c", "\x0c", "{\"k\": 1}"])
texts = st.lists(pieces, max_size=30).map("".join)


@given(texts)
@example("a\r\n\r\n b\r\rc")
@example("")
@example("\n \n\t\n")
def test_read_lines_matches_former_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    assert list(read_lines(path)) == _former_loop(path)


@given(texts, texts, st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
@example("a\r", "\nb", b"\xff")
def test_non_utf8_byte_is_parse_error_at_its_line(tmp_path_factory, head, tail, bad):
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(head.encode("utf-8") + bad + tail.encode("utf-8"))
    # the bad byte is on the line after every universal line end before it
    expected = len(io.StringIO(head + "x", newline=None).readlines())
    # raised before the first line is given, so no reader acts on part of the file
    with pytest.raises(ParseError) as info:
        next(read_lines(path))
    assert info.value.line_no == expected
    assert str(info.value).startswith(f"{path}:{expected}: not UTF-8 (")


def _former_reader(path):
    """read_lines as it was: the UTF-8 check, then a second decode through a TextIOWrapper."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise ParseError(path, head.count("\n") + 1, f"not UTF-8 ({exc.reason})") from exc
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, line


def _lines_or_error(reader, path):
    try:
        return list(reader(path))
    except ParseError as exc:
        return str(exc)


# line ends, byte-order marks, separators that are not line ends, text, and
# random bytes, which are mostly not UTF-8
byte_pieces = st.one_of(
    st.sampled_from([b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b" ", b"a"]
                    + [c.encode("utf-8") for c in "\x0b\x0c\x1c\x85\u2028\u2029"]),
    st.text(max_size=3).map(lambda t: t.encode("utf-8")), st.binary(max_size=3))


@settings(max_examples=500)
@given(st.lists(byte_pieces, max_size=20).map(b"".join))
@example(b"\xef\xbb\xbf\xef\xbb\xbfa\r\n")
@example(b"a\r\n\xff\rb")
def test_read_lines_matches_the_former_reader_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "input.txt"
    path.write_bytes(data)
    assert _lines_or_error(read_lines, path) == _lines_or_error(_former_reader, path)


def test_lines_keep_their_newline_and_number(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"one\r\n\r\n  \ntwo\rthree")
    assert list(read_lines(path)) == [(1, "one\n"), (4, "two\n"), (5, "three")]


# every reader built on read_lines, with one line it accepts
READERS = {
    "lines": (lambda path: list(read_lines(path)), "a\n"),
    "corpus": (load_corpus, '{"doc_id": "d1", "title": "t", "abstract": "a"}\n'),
    "queries": (load_queries, "1\tcovid vaccine\n"),
    "qrels": (read_qrels, "1 0 d1 1\n"),
    "run": (read_run, "1 Q0 d1 1 2.5 sysA\n"),
    "split": (load_split, "1 old\n"),
    "stopwords": (load_stopwords, "the\n"),
    "triples": (read_triples, '{"query": "q", "pos_doc_id": "d1", "neg_doc_id": "d2"}\n'),
    "config": (PipelineConfig.from_file, "seed = 3\n"),
}


@pytest.mark.parametrize("name", list(READERS))
def test_leading_byte_order_mark_is_dropped(tmp_path, name):
    reader, text = READERS[name]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert reader(marked) == reader(plain)
