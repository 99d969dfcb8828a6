import pytest
from hypothesis import settings

from ranklab.corpus import Document
from ranklab.sparse import build_index
from ranklab.subword import train_subword_vocab
from ranklab.synthetic import make_separable_corpus

# property tests draw the same examples on every run and have no per-example
# time limit, so a slow or busy host neither changes nor fails them
settings.register_profile("ranklab", derandomize=True, deadline=None, database=None)
settings.load_profile("ranklab")


@pytest.fixture(scope="session")
def separable():
    """The shipped 10-topic x 20-doc separable fixture plus vocab and index."""
    docs, queries, qrels = make_separable_corpus()
    vocab = train_subword_vocab([d.text() for d in docs], 2000)
    index = build_index(docs)
    return {"docs": docs, "queries": queries, "qrels": qrels,
            "vocab": vocab, "index": index}


@pytest.fixture
def tiny_docs():
    return [
        Document("d1", "remdesivir trial patients", "remdesivir trial remdesivir"),
        Document("d2", "patients trial", "clinical trial patients cohort"),
        Document("d3", "vaccine antibody", "antibody response vaccine patients"),
        Document("d4", "vaccine distribution", "vaccine supply distribution logistics"),
    ]
