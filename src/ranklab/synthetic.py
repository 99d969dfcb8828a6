"""A seeded synthetic fixture: a topic-separable corpus with queries and
judgments.

Topic vocabularies are disjoint alphanumeric tokens, so a subword vocabulary
trained with enough headroom resolves every word to a single piece and the
topics are linearly separable for the mean-pooled encoder.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, Qrels, Query

DEFAULT_TOPICS = 10
DEFAULT_DOCS_PER_TOPIC = 20


def _topic_vocabulary(topic: int, words_per_topic: int) -> list[str]:
    return [f"t{topic}w{i}" for i in range(words_per_topic)]


def make_separable_corpus(n_topics: int = DEFAULT_TOPICS,
                          docs_per_topic: int = DEFAULT_DOCS_PER_TOPIC,
                          words_per_topic: int = 15, doc_len: int = 12,
                          query_len: int = 3, seed: int = 13):
    """Build (documents, queries, qrels) with one query per topic.

    Every document draws all its words from its topic's vocabulary; the
    query for topic t is relevant (grade 1) to exactly the topic-t documents.
    """
    rng = np.random.default_rng(seed)
    docs: list[Document] = []
    queries: list[Query] = []
    qrels = Qrels()
    for topic in range(n_topics):
        vocab = _topic_vocabulary(topic, words_per_topic)
        query_id = topic + 1
        for j in range(docs_per_topic):
            words = [vocab[int(rng.integers(words_per_topic))] for _ in range(doc_len)]
            doc_id = f"t{topic:02d}d{j:02d}"
            docs.append(Document(doc_id, " ".join(words[:3]), " ".join(words[3:])))
            qrels.add(query_id, doc_id, 1)
        chosen = rng.choice(words_per_topic, size=query_len, replace=False)
        raw = " ".join(vocab[int(i)] for i in sorted(chosen))
        queries.append(Query(query_id, raw, tuple(raw.split())))
    return docs, queries, qrels
