import json

import pytest

from ranklab.corpus import (
    Document,
    Query,
    load_corpus,
    load_queries,
    preprocess_query,
)
from ranklab.errors import DuplicateDocumentError, ParseError, ToolkitWarning
from ranklab.stopwords import ENGLISH_STOPWORDS, load_stopwords


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestLoadCorpus:
    def test_reads_records_in_file_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"doc_id": "a", "title": "t1", "abstract": "x"},
            {"doc_id": "b", "title": "t2", "abstract": "y"},
            {"doc_id": "c", "title": "t3", "abstract": "z", "date": "2020-03-01"},
        ])
        docs = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b", "c"]

    def test_duplicate_doc_id_cites_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"doc_id": "a1", "title": "t", "abstract": "x"},
            {"doc_id": "b", "title": "t", "abstract": "x"},
            {"doc_id": "c", "title": "t", "abstract": "x"},
            {"doc_id": "d", "title": "t", "abstract": "x"},
            {"doc_id": "a1", "title": "t", "abstract": "x"},
        ])
        with pytest.raises(DuplicateDocumentError, match="line 5|:5"):
            load_corpus(path)

    def test_text_concatenates_title_and_abstract(self):
        assert Document("d", "A", "B").text() == "A B"

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "a", "title": "t", "abstract": "x"}\nnot json\n')
        with pytest.raises(ParseError, match=":2"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"doc_id": "a", "title": "t"}])
        with pytest.raises(ParseError, match="abstract"):
            load_corpus(path)


class TestPreprocessQuery:
    def test_stated_rule(self):
        stops = {"what", "is", "the", "of"}
        assert preprocess_query("what is the origin of COVID-19", stops) == [
            "origin", "covid", "19"]

    def test_empty_input(self):
        assert preprocess_query("", ENGLISH_STOPWORDS) == []

    def test_all_stopwords_warns(self):
        with pytest.warns(ToolkitWarning):
            terms = preprocess_query("the of is", {"the", "of", "is"})
        assert terms == []

    def test_idempotent(self):
        raws = [
            "what is the origin of COVID-19",
            "Coronavirus response to weather CHANGES",
            "serological tests; antibody-mediated immunity!",
        ]
        for raw in raws:
            once = preprocess_query(raw, ENGLISH_STOPWORDS)
            twice = preprocess_query(" ".join(once), ENGLISH_STOPWORDS)
            assert twice == once


class TestQueries:
    def test_from_raw(self):
        q = Query.from_raw(3, "what is the origin of COVID-19")
        assert q.processed_terms == ("origin", "covid", "19")

    def test_positive_id_required(self):
        with pytest.raises(ValueError):
            Query(0, "x", ("x",))

    def test_load_queries(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("1\tcoronavirus origin\n2\tserological tests\n")
        queries = load_queries(path)
        assert [q.query_id for q in queries] == [1, 2]
        assert queries[0].processed_terms == ("coronavirus", "origin")

    def test_bad_query_id(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("zero\tcoronavirus\n")
        with pytest.raises(ParseError, match=":1"):
            load_queries(path)


def test_stopword_file_override(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("foo\nBar\n\n")
    stops = load_stopwords(path)
    assert stops == {"foo", "bar"}
    assert preprocess_query("foo bar baz", stops) == ["baz"]
