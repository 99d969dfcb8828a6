"""Corpus ingestion and text preprocessing.

Interchange formats, all UTF-8 text read line by line through
checkpoint.read_lines, which ignores blank lines:
  corpus   - one JSON record per line: {"doc_id", "title", "abstract"}
  queries  - tab-separated "query_id<TAB>raw_text"
  qrels    - whitespace-separated "query_id 0 doc_id grade"
"""

from __future__ import annotations

import json
import re
import warnings
from array import array
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .checkpoint import read_lines
from .errors import DuplicateDocumentError, ParseError, ToolkitWarning
from .stopwords import ENGLISH_STOPWORDS

_TERM_RE = re.compile(r"[a-z0-9]+")


def is_token(value) -> bool:
    """True for UTF-8 text with no whitespace, as a field of a run or qrels line."""
    return (isinstance(value, str) and value.split() == [value]
            and value.encode("utf-8", "replace").decode("utf-8") == value)


def text_terms(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TERM_RE.findall(text.lower())


CorpusTerms = namedtuple("CorpusTerms", "terms ids lengths")


def corpus_terms(docs) -> CorpusTerms:
    """The term view vocab training, the BM25 index and tokenize_corpus read, split one document
    (or text) at a time: sorted distinct terms, all text_terms as int32 ordinals, int32 counts."""
    first = defaultdict(count().__next__)  # term -> ordinal in order of first occurrence
    ids, lengths = array("i"), array("i")
    for doc in docs:
        words = text_terms(doc if isinstance(doc, str) else doc.text())
        ids.extend(map(first.__getitem__, words))
        lengths.append(len(words))
    terms = sorted(first)
    rank = np.argsort([first[t] for t in terms]).astype(np.int32)  # first-occurrence -> sorted
    return CorpusTerms(terms, rank[ids], np.array(lengths, dtype=np.int32))


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    abstract: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")

    def text(self) -> str:
        """Title and abstract joined by a single space."""
        return self.title + " " + self.abstract


@dataclass(frozen=True)
class Query:
    query_id: int
    raw_text: str
    processed_terms: tuple[str, ...]

    def __post_init__(self):
        if self.query_id <= 0:
            raise ValueError(f"query_id must be positive, got {self.query_id}")

    @classmethod
    def from_raw(cls, query_id: int, raw_text: str, stopwords=ENGLISH_STOPWORDS) -> "Query":
        return cls(query_id, raw_text, tuple(preprocess_query(raw_text, stopwords)))


class Judgments(dict):
    """One query's doc id -> grade, whose `ideal` keeps ndcg_at_k's ideal DCG
    per (k, gain) until Qrels.add changes it; pickling leaves it out."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ideal: dict[tuple[int, str], float] = {}

    def __reduce__(self):
        return Judgments, (dict(self),)


@dataclass
class Qrels:
    """Graded relevance judgments: query_id -> doc_id -> grade (0 = not relevant)."""

    judgments: dict[int, dict[str, int]] = field(default_factory=dict)

    def add(self, query_id: int, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"grade must be >= 0, got {grade}")
        entry = self.judgments.get(query_id) or self.judgments.setdefault(query_id, Judgments())
        entry[doc_id] = grade
        getattr(entry, "ideal", {}).clear()  # an entry given as a plain dict keeps no memo

    def query_ids(self) -> list[int]:
        return sorted(self.judgments)

    def judged_docs(self, query_id: int) -> set[str]:
        return set(self.judgments.get(query_id, {}))

    def relevant_docs(self, query_id: int) -> set[str]:
        return {d for d, g in self.judgments.get(query_id, {}).items() if g > 0}


def preprocess_query(raw: str, stopwords=ENGLISH_STOPWORDS) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords; order preserved.

    A query that consists entirely of stopwords yields an empty list and a
    ToolkitWarning rather than an error.
    """
    tokens = text_terms(raw)
    terms = [t for t in tokens if t not in stopwords]
    if tokens and not terms:
        warnings.warn(f"query {raw!r} contains only stopwords", ToolkitWarning, stacklevel=2)
    return terms


def load_corpus(path) -> list[Document]:
    """Read a line-delimited corpus file, rejecting duplicate doc_ids."""
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for line_no, line in read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise ParseError(path, line_no, "record is not an object")
        try:
            doc_id, title, abstract = record["doc_id"], record["title"], record["abstract"]
        except KeyError as exc:
            raise ParseError(path, line_no, f"missing field {exc.args[0]!r}") from exc
        if not is_token(doc_id):
            raise ParseError(path, line_no, f"doc_id {doc_id!r} must be one token")
        if doc_id in seen:
            raise DuplicateDocumentError(
                f"{path}:{line_no}: duplicate doc_id {doc_id!r} "
                f"(first seen on line {seen[doc_id]})"
            )
        seen[doc_id] = line_no
        if not (isinstance(title, str) and isinstance(abstract, str)):
            name, value = ("abstract", abstract) if isinstance(title, str) else ("title", title)
            raise ParseError(path, line_no, f"{name} {value!r} must be a string")
        docs.append(Document(doc_id, title, abstract))
    return docs


def load_queries(path, stopwords=ENGLISH_STOPWORDS) -> list[Query]:
    """Read tab-separated "query_id<TAB>raw_text" lines."""
    queries: list[Query] = []
    seen: set[int] = set()
    for line_no, line in read_lines(path):
        parts = line.rstrip("\n").split("\t", 1)
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected 'query_id<TAB>raw_text'")
        try:
            query_id = int(parts[0])
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad query_id {parts[0]!r}") from exc
        if query_id <= 0:
            raise ParseError(path, line_no, f"query_id must be positive, got {query_id}")
        if query_id in seen:
            raise ParseError(path, line_no, f"duplicate query_id {query_id}")
        seen.add(query_id)
        queries.append(Query.from_raw(query_id, parts[1], stopwords))
    return queries

