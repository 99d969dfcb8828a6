"""Every ranking figure comes from evaluation: a depth sweep through
old_new_report (test_feature_matrix.depth_sweep, the loop the depth-sweep
stage runs at fusion none), and the dev NDCG of select-train and train-dense
through mean_ndcg, each against the loop it replaced.

The former loops are kept here as oracles and every comparison is bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ranklab.cli
from ranklab.cli import PipelineConfig, run_pipeline
from ranklab.corpus import Qrels, Query, load_queries
from ranklab.dense import DenseEncoder, DenseIndex, build_dense_index, dense_search_topk
from ranklab.errors import ConfigError, NumericError
from ranklab.evaluation import mean_ndcg, ndcg_at_k, precision_at_k, read_qrels
from ranklab.rerank import FeatureExtractor, Ranker, Ranking
from ranklab.sparse import RankedList, search_topk
from ranklab.stopwords import ENGLISH_STOPWORDS
from ranklab.subword import SubwordVocab, tokenize, tokenize_corpus
from ranklab.weaksup import SelectionContext
from test_candidate_arrays import former_rerank
from test_cli import write_fixture_inputs
from test_feature_matrix import WORDS, depth_sweep, extractor_of, stacked

DOCS = [f"d{i}" for i in range(8)]
QUERY_IDS = [1, 2, 3, 4, 5]


# -- the former loops -------------------------------------------------------

def reference_depth_sweep(ranker, base_runs, depths, qrels, features_by_query, k=10):
    table = {}
    query_ids = qrels.query_ids()
    for depth in depths:
        ndcgs, precs = [], []
        for query_id in query_ids:
            base = base_runs.get(query_id)
            entry = qrels.judgments[query_id]
            if base is None:
                ndcgs.append(0.0)
                precs.append(0.0)
                continue
            reranked = former_rerank(ranker, base, depth, features_by_query[query_id])
            ndcgs.append(ndcg_at_k(reranked, entry, k))
            precs.append(precision_at_k(reranked, entry, 5))
        table[depth] = {
            f"ndcg@{k}": sum(ndcgs) / len(ndcgs) if ndcgs else 0.0,
            "p@5": sum(precs) / len(precs) if precs else 0.0,
        }
    return table


def reference_dev_ndcg(extractor, queries, qrels, depth, ranker, k=10):
    """SelectionContext.dev_ndcg before it called mean_ndcg or stacked its
    lists: each dev query's candidates reranked one list at a time."""
    values = []
    for query in queries:
        base = search_topk(extractor.index, query, depth, extractor.k1, extractor.b)
        rows = extractor.candidates([query], depth).features[0]
        reranked = former_rerank(ranker, base, depth, rows)
        values.append(ndcg_at_k(reranked, qrels.judgments.get(query.query_id, {}), k))
    return sum(values) / len(values) if values else 0.0


def reference_dense_dev_ndcg(index, encoder, vocab, queries, qrels, max_length):
    """train-dense's dev NDCG before it called mean_ndcg."""
    values = []
    for query in queries:
        ids = tokenize(" ".join(query.processed_terms), vocab, max_length)
        ranking = dense_search_topk(index, encoder, ids, 10, query.query_id)
        values.append(ndcg_at_k(ranking, qrels.judgments.get(query.query_id, {}), 10))
    return sum(values) / len(values) if values else 0.0


# -- depth_sweep ------------------------------------------------------------

@st.composite
def sweep_inputs(draw):
    """Judged queries with and without base lists, unjudged queries with base
    lists, grades of 0 only, and empty qrels all occur; the base lists share
    one length, as stacked candidates do."""
    judged = draw(st.lists(st.sampled_from(QUERY_IDS), unique=True))
    qrels = Qrels()
    for qid in judged:
        for doc in draw(st.lists(st.sampled_from(DOCS), min_size=1, unique=True)):
            qrels.add(qid, doc, draw(st.integers(0, 3)))
    listed = draw(st.lists(st.sampled_from(QUERY_IDS), unique=True))
    score = st.floats(-5, 5, allow_nan=False)
    base_runs, features = {}, {}
    n = draw(st.integers(0, len(DOCS)))
    for qid in listed:
        docs = draw(st.lists(st.sampled_from(DOCS), min_size=n, max_size=n, unique=True))
        base_runs[qid] = RankedList.from_scores(qid, [(d, draw(score)) for d in docs])
        rows = {d: np.array([draw(score) for _ in range(6)]) for d in docs}
        features[qid] = np.array([rows[d] for d in base_runs[qid].doc_ids()]).reshape(-1, 6)
    weights = draw(st.lists(score, min_size=6, max_size=6))
    depths = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True))
    return qrels, base_runs, features, Ranker(weights), depths, draw(st.integers(1, 10))


def _bundle(judged, listed, k=10):
    qrels = Qrels()
    for qid, grades in judged.items():
        for doc, grade in grades.items():
            qrels.add(qid, doc, grade)
    base_runs = {qid: RankedList.from_scores(qid, [(d, -float(i)) for i, d in enumerate(DOCS)])
                 for qid in listed}
    features = {qid: np.array([[float(i % 3), 0, 0, 0, 0, 1.0] for i in range(len(DOCS))])
                for qid in listed}  # in base order: DOCS score 0, -1, -2, ...
    return qrels, base_runs, features, Ranker([1.0, 0, 0, 0, 0, 0]), [1, 3, 8], k


@given(sweep_inputs())
@example(_bundle({}, [1, 2]))  # empty qrels
@example(_bundle({1: {"d2": 1}, 2: {"d5": 2, "d0": 0}}, [1, 4]))  # 2 has no list, 4 unjudged
@example(_bundle({3: {"d1": 0}}, [3], k=1))  # judged, nothing relevant
def test_depth_sweep_matches_the_former_loop(inputs):
    qrels, base_runs, features, ranker, depths, k = inputs
    assert (depth_sweep(ranker, stacked(base_runs.values(), features.values()), depths, qrels, k)
            == reference_depth_sweep(ranker, base_runs, depths, qrels, features, k))


# -- mean_ndcg --------------------------------------------------------------

def _partial_qrels(qrels, drop):
    """`qrels` without the judgments of the queries in `drop`."""
    return Qrels({qid: dict(j) for qid, j in qrels.judgments.items() if qid not in drop})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dev_ndcg_matches_the_former_loop(separable, seed):
    docs, vocab, index = separable["docs"], separable["vocab"], separable["index"]
    queries = separable["queries"][:6]
    qrels = _partial_qrels(separable["qrels"], {queries[1].query_id, queries[4].query_id})
    encoder = DenseEncoder.init(len(vocab), 16, seed=seed)
    extractor = FeatureExtractor(
        index, encoder, vocab, build_dense_index(encoder, tokenize_corpus(docs, vocab)))
    context = SelectionContext(extractor, queries, qrels, depth=20)
    rng = np.random.default_rng(seed)
    for ranker in (Ranker(), Ranker(rng.normal(size=6)), Ranker(rng.normal(size=6))):
        assert context.dev_ndcg(ranker) == reference_dev_ndcg(extractor, queries, qrels, 20, ranker)
    empty = SelectionContext(extractor, [], qrels, depth=20)
    assert empty.dev_ndcg(Ranker()) == reference_dev_ndcg(extractor, [], qrels, 20, Ranker()) == 0.0


@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join), min_size=1,
                max_size=13),
       st.lists(st.lists(st.sampled_from(WORDS + ["unindexed"]), min_size=1, max_size=4),
                max_size=4),
       st.integers(1, 16), st.integers(0, 2**32 - 1))
@example(["trial", "cohort trial"], [], 20, 0)  # no dev query
@example(["trial", "cohort trial", "vaccine"], [["trial"], ["unindexed"]], 9, 1)  # depth > N
def test_stacked_dev_ndcg_matches_the_former_loop(texts, query_terms, depth, seed):
    """Dev sets of 0 to 4 queries over corpora of 1 to 13 documents (d10 on
    sorts before d2), at depths below and above the corpus size; rankers with
    tied, zero and random weights."""
    extractor = extractor_of(texts)
    rng = np.random.default_rng(seed)
    queries = [Query(i + 1, " ".join(t), tuple(t)) for i, t in enumerate(query_terms)]
    qrels = Qrels()
    for query in queries:
        for doc in rng.choice(len(texts), size=min(3, len(texts)), replace=False).tolist():
            qrels.add(query.query_id, f"d{doc}", int(rng.integers(0, 3)))
    context = SelectionContext(extractor, queries, qrels, depth)
    assert context.candidates.features.shape == (len(queries), min(depth, len(texts)), 6)
    for ranker in (Ranker(), Ranker([0, 0, 1.0, 0, 0, 0]), Ranker(rng.normal(size=6))):
        assert (context.dev_ndcg(ranker)
                == reference_dev_ndcg(extractor, queries, qrels, depth, ranker))
    if queries:
        with pytest.raises(NumericError, match="non-finite"):
            context.dev_ndcg(Ranker([np.nan, 0, 0, 0, 0, 0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_dev_ndcg_matches_the_former_loop(tmp_path, monkeypatch, seed):
    """train-dense's last dev NDCG@10 is the former loop's over the encoder and
    dense index it saves; two queries are unjudged."""
    corpus, queries_path, qrels_path = write_fixture_inputs(tmp_path)
    queries = load_queries(queries_path, ENGLISH_STOPWORDS)
    qrels = _partial_qrels(read_qrels(qrels_path), {queries[0].query_id, queries[-1].query_id})
    qrels_path.write_text("".join(f"{q} 0 {d} {g}\n" for q, judged in qrels.judgments.items()
                                  for d, g in judged.items()))
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries_path),
                            qrels_path=str(qrels_path), workdir=str(tmp_path / "w"),
                            vocab_size=600, max_seq_len=12, triples_count=8, dense_epochs=4,
                            dim=16, seed=seed)
    run_pipeline(config, ["ingest", "index", "synth-weak"])
    figures = []
    monkeypatch.setattr(ranklab.cli, "mean_ndcg",
                        lambda *args: figures.append(mean_ndcg(*args)) or figures[-1])
    run_pipeline(config, ["train-dense"])
    work = tmp_path / "w"
    assert len(figures) == 2  # epochs 3 and 4
    assert figures[-1] == reference_dense_dev_ndcg(
        DenseIndex.load(work / "dense_index.bin"), DenseEncoder.load(work / "encoder.ckpt"),
        SubwordVocab.load(work / "vocab.json"), queries, qrels, config.max_seq_len)


def test_mean_ndcg_scores_an_unjudged_query_zero():
    qrels = Qrels({1: {"a": 1}})
    rankings = Ranking([1, 2], np.array([["a"], ["a"]], dtype=object), np.zeros((2, 1), dtype=np.intp),
                       np.ones((2, 1)))
    empty = Ranking([], np.empty((0, 0), dtype=object), np.empty((0, 0), dtype=np.intp), np.empty((0, 0)))
    assert mean_ndcg(rankings, qrels, 10) == 0.5
    assert mean_ndcg(empty, qrels, 10) == 0.0


# -- the fusion bounds PipelineConfig declares -----------------------------

def test_rrf_k_zero_is_config_error():
    with pytest.raises(ConfigError, match="rrf_k must be >= 1"):
        PipelineConfig(rrf_k=0).validate()


@pytest.mark.parametrize("fusion", ["union", "rrf"])
def test_an_rrf_k_past_the_float_range_ranks(tmp_path, capsys, fusion):
    """1 / (rrf_k + rank) divides ints, so an rrf_k no float holds gives shares of 0.0."""
    corpus, queries, qrels = write_fixture_inputs(tmp_path)
    capsys.readouterr()
    assert ranklab.cli.main([
        "pipeline", "--stages", "ingest,index,synth-weak,train-dense,select-train,rerank",
        "--corpus", str(corpus), "--queries", str(queries), "--qrels", str(qrels),
        "--workdir", str(tmp_path / "w"), "--set", "vocab_size=600", "--set", "dense_epochs=1",
        "--set", "triples_count=8", "--set", "select_steps=3", "--set", f"fusion={fusion}",
        "--set", f"rrf_k={10**400}"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "w" / "run.trec").is_file()
