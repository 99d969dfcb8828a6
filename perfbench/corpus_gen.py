"""Seeded benchmark corpora whose ranking quality stays off the ceiling.

Every topic owns some words and shares a block of words with its neighbour
on a ring, and a background vocabulary common to all topics dilutes every
document. Queries are short draws from one topic's vocabulary, several per
topic, and every document of that topic is relevant (grade 1). Shared and
background words make neighbouring topics compete for the same query terms,
so neither BM25 nor the dense retriever can rank perfectly.

Words are random three-syllable consonant-vowel strings, so the subword
vocabulary learns real merges instead of one piece per word, and every seed
gives words of the same length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ranklab.corpus import Document, Qrels, Query
from ranklab.stopwords import ENGLISH_STOPWORDS

LAYOUT_SEED = 2011_01580
QUERY_LEN = 2
# share of document positions drawn from the background vocabulary
BACKGROUND_RATE = 0.2
# extra queries per topic, never written for the program, that only the dense
# quality figure uses, to average over more query words
PROBE_QUERIES_PER_TOPIC = 10
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CorpusShape:
    n_topics: int
    docs_per_topic: int
    doc_len: int
    own_words: int = 15
    shared_words: int = 10
    background_words: int = 100
    queries_per_topic: int = 3


class Corpus(NamedTuple):
    docs: list
    queries: list
    qrels: Qrels
    probe_queries: list
    probe_qrels: Qrels


def _lexicon(rng: np.random.Generator, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                       + _VOWELS[int(rng.integers(len(_VOWELS)))]
                       for _ in range(3))
        if word not in seen and word not in ENGLISH_STOPWORDS:
            seen.add(word)
            words.append(word)
    return words


def make_corpus(shape: CorpusShape, seed: int) -> Corpus:
    """Build the documents, queries and judgments for one seed; same seed, same output.

    The seed spells the lexicon and assigns the document ids. Which lexicon
    slot fills each document position and query comes from LAYOUT_SEED, so
    every seed poses the same retrieval problem in a different alphabet and
    asks the same amount of work.
    """
    n = shape.n_topics
    rng = np.random.default_rng(seed)
    lexicon = _lexicon(rng, n * (shape.own_words + shape.shared_words) + shape.background_words)
    id_order = rng.permutation(n * shape.docs_per_topic)
    rng = np.random.default_rng(LAYOUT_SEED)
    per_topic = shape.own_words + shape.shared_words
    background = lexicon[n * per_topic:]

    def topic_words(t: int) -> list[str]:
        block = lexicon[t * per_topic:(t + 1) * per_topic]
        prev = lexicon[((t - 1) % n) * per_topic:((t - 1) % n + 1) * per_topic]
        return block + prev[shape.own_words:]

    docs: list[Document] = []
    queries: list[Query] = []
    qrels = Qrels()
    probe_queries: list[Query] = []
    probe_qrels = Qrels()
    for t in range(n):
        vocab = topic_words(t)
        # Zipf-like weights give repeated terms, so BM25 tf saturation matters
        weights = 1.0 / np.arange(1, len(vocab) + 1)
        weights = rng.permutation(weights / weights.sum())
        topic_doc_ids = []
        for j in range(shape.docs_per_topic):
            from_background = rng.random(shape.doc_len) < BACKGROUND_RATE
            topical = rng.choice(len(vocab), size=shape.doc_len, p=weights)
            noise = rng.integers(len(background), size=shape.doc_len)
            words = [background[int(b)] if bg else vocab[int(v)]
                     for bg, v, b in zip(from_background, topical, noise)]
            doc_id = f"d{int(id_order[t * shape.docs_per_topic + j]):06d}"
            docs.append(Document(doc_id, " ".join(words[:3]), " ".join(words[3:])))
            topic_doc_ids.append(doc_id)
        per_topic_queries = shape.queries_per_topic + PROBE_QUERIES_PER_TOPIC
        for q in range(per_topic_queries):
            query_id = t * per_topic_queries + q + 1
            picked = rng.choice(len(vocab), size=QUERY_LEN, replace=False)
            raw = " ".join(vocab[int(i)] for i in picked)
            probe = q >= shape.queries_per_topic
            (probe_queries if probe else queries).append(Query(query_id, raw, tuple(raw.split())))
            for doc_id in topic_doc_ids:
                (probe_qrels if probe else qrels).add(query_id, doc_id, 1)
    docs.sort(key=lambda d: d.doc_id)
    return Corpus(docs, queries, qrels, probe_queries, probe_qrels)


def write_inputs(docs, queries, qrels: Qrels, directory: Path) -> dict[str, Path]:
    """Write the corpus, queries and qrels files the pipeline reads."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"corpus": directory / "corpus.jsonl", "queries": directory / "queries.tsv",
             "qrels": directory / "qrels.txt"}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"doc_id": d.doc_id, "title": d.title,
                                 "abstract": d.abstract}) + "\n")
    with open(paths["queries"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{q.query_id}\t{q.raw_text}\n" for q in queries)
    with open(paths["qrels"], "w", encoding="utf-8") as fh:
        for query_id in qrels.query_ids():
            for doc_id, grade in sorted(qrels.judgments[query_id].items()):
                fh.write(f"{query_id} 0 {doc_id} {grade}\n")
    return paths
