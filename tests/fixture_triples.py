"""Seeded triples over the separable fixture (ranklab.synthetic): dense
training triples, and a clean/label-flipped weak triple pool for selection
experiments."""

import numpy as np

from ranklab.corpus import Qrels
from ranklab.dense import TrainingTriple
from ranklab.subword import DEFAULT_MAX_SEQUENCE_LENGTH, tokenize
from ranklab.weaksup import WeakTriple


def triple_from_texts(query: str, positive: str, negatives, vocab,
                      max_length: int = DEFAULT_MAX_SEQUENCE_LENGTH) -> TrainingTriple:
    """A TrainingTriple of the texts' piece ids."""
    return TrainingTriple(
        tuple(tokenize(query, vocab, max_length)),
        tuple(tokenize(positive, vocab, max_length)),
        tuple(tuple(tokenize(n, vocab, max_length)) for n in negatives),
    )


def make_training_triples(docs, queries, qrels: Qrels, m: int = 4,
                          per_query: int = 10, seed: int = 29):
    """Sample (query text, positive text, m negative texts) from the fixture."""
    rng = np.random.default_rng(seed)
    docs_by_id = {d.doc_id: d for d in docs}
    all_ids = [d.doc_id for d in docs]
    triples = []
    for query in queries:
        relevant = sorted(qrels.relevant_docs(query.query_id))
        others = [d for d in all_ids if d not in set(relevant)]
        if not relevant or len(others) < m:
            continue
        for _ in range(per_query):
            pos = relevant[int(rng.integers(len(relevant)))]
            negs = [others[int(i)] for i in rng.choice(len(others), size=m, replace=False)]
            triples.append((
                query.raw_text,
                docs_by_id[pos].text(),
                [docs_by_id[n].text() for n in negs],
            ))
    return triples


def make_selection_pool(docs, queries, qrels: Qrels, n_clean: int = 200,
                        n_noisy: int = 200, seed: int = 47):
    """Weak triples where the noisy half has its positive/negative swapped.

    Returns (clean, noisy) lists of WeakTriples; queries are fresh draws from
    topic vocabularies so the pools do not simply repeat the dev queries.
    """
    rng = np.random.default_rng(seed)
    by_query = {q.query_id: q for q in queries}
    query_ids = sorted(by_query)
    all_ids = [d.doc_id for d in docs]

    def sample_triple() -> WeakTriple:
        query_id = query_ids[int(rng.integers(len(query_ids)))]
        relevant = sorted(qrels.relevant_docs(query_id))
        others = [d for d in all_ids if d not in set(relevant)]
        pos = relevant[int(rng.integers(len(relevant)))]
        neg = others[int(rng.integers(len(others)))]
        terms = list(by_query[query_id].processed_terms)
        n_terms = min(len(terms), 1 + int(rng.integers(len(terms))))
        picked = [terms[int(i)] for i in rng.choice(len(terms), size=n_terms, replace=False)]
        return WeakTriple(" ".join(sorted(picked)), pos, neg, "external")

    clean = [sample_triple() for _ in range(n_clean)]
    noisy = []
    for _ in range(n_noisy):
        t = sample_triple()
        noisy.append(WeakTriple(t.query, t.neg_doc_id, t.pos_doc_id, "external"))
    return clean, noisy
