"""checkpoint.read_lines against the text-mode loop every reader had before it."""

import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ranklab.checkpoint import read_lines
from ranklab.errors import ParseError


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


def test_lines_keep_their_newline_and_number(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"one\r\n\r\n  \ntwo\rthree")
    assert list(read_lines(path)) == [(1, "one\n"), (4, "two\n"), (5, "three")]
