"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Each test prints one ``[PASS] criterion N`` line (visible with ``pytest -s``)
and fails loudly otherwise. Expected values come from independent oracles
coded here, not from the implementation under test.
"""

import dataclasses
import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from ranklab.cli import PipelineConfig, run_pipeline
from ranklab.corpus import Document, Qrels
from ranklab.dense import (
    DenseEncoder,
    TrainingTriple,
    build_dense_index,
    contrastive_loss,
    dense_search_topk,
    train_step,
)
from ranklab.errors import DegeneratePairError
from ranklab.evaluation import (
    QuerySplit,
    Run,
    ndcg_at_k,
    old_new_report,
    precision_at_k,
    residual_filter,
)
from ranklab.mlm import MlmModel, make_masked_batch, mask_tokens, masked_prediction_loss, mlm_train_step
from ranklab.rerank import FeatureExtractor, Ranker, fuse_base_union, fuse_interpolate, pairwise_train_step
from ranklab.sparse import RankedList, bm25_score, build_index, search_topk
from ranklab.stopwords import ENGLISH_STOPWORDS
from ranklab.subword import train_subword_vocab, tokenize, tokenize_corpus
from ranklab.synthetic import make_separable_corpus
from ranklab.weaksup import (
    SalienceQueryGenerator,
    SelectionContext,
    SelectorPolicy,
    instance_features,
    pair_features,
    reinfoselect_step,
    synthesize_with_provenance,
)
from fixture_triples import make_selection_pool, make_training_triples, triple_from_texts


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s")
    print(f"[PASS] criterion {number:2d}: {description} ({elapsed:.2f}s)")


def ranking_of(query_id, docs):
    return RankedList.from_scores(query_id, [(d, float(-i)) for i, d in enumerate(docs)])


@pytest.fixture(scope="module")
def fixture_world():
    docs, queries, qrels = make_separable_corpus()
    vocab = train_subword_vocab([d.text() for d in docs], 2000)
    index = build_index(docs)
    return docs, queries, qrels, vocab, index


def test_criterion_01_metric_oracles():
    def oracle_ndcg(ranked, grades, k):
        dcg = sum(grades.get(d, 0) / math.log2(r + 1)
                  for r, d in enumerate(ranked[:k], start=1))
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
        return dcg / idcg if idcg > 0 else 0.0

    def oracle_precision(ranked, grades, k):
        return sum(1 for d in ranked[:k] if grades.get(d, 0) > 0) / k

    with criterion(1, "NDCG@k and P@k match brute-force oracles", 5):
        hand = ndcg_at_k(ranking_of(1, ["d2", "d1", "d3"]), {"d1": 2, "d2": 1}, 10)
        assert abs(hand - 0.859719) <= 1e-6
        rng = random.Random(99)
        docs = [f"d{i}" for i in range(40)]
        for _ in range(100):
            ranked = rng.sample(docs, rng.randint(1, 40))
            grades = {d: rng.randint(0, 3)
                      for d in rng.sample(docs, rng.randint(1, 25))}
            k = rng.randint(1, 20)
            rl = ranking_of(1, ranked)
            assert abs(ndcg_at_k(rl, grades, k) - oracle_ndcg(ranked, grades, k)) <= 1e-9
            assert abs(precision_at_k(rl, grades, k)
                       - oracle_precision(ranked, grades, k)) <= 1e-9


def test_criterion_02_bm25_correctness():
    def oracle_scores(term_lists, query, k1=0.9, b=0.4):
        n = len(term_lists)
        lengths = [len(t) for t in term_lists]
        avgdl = sum(lengths) / n
        dfs = Counter()
        for terms in term_lists:
            dfs.update(set(terms))
        out = []
        for terms, length in zip(term_lists, lengths):
            counts = Counter(terms)
            score = 0.0
            for t in query:
                tf = counts[t]
                if tf == 0:
                    continue
                idf = math.log(1 + (n - dfs[t] + 0.5) / (dfs[t] + 0.5))
                score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * length / avgdl))
            out.append(score)
        return out

    with criterion(2, "BM25 hand value and exhaustive-scoring equivalence", 10):
        single = build_index([Document("d", "term", "")])
        assert abs(bm25_score(single, ["term"], 0) - math.log(4 / 3)) <= 1e-6

        rng = random.Random(31)
        words = [f"w{i}" for i in range(12)]
        for _ in range(100):
            n = rng.randint(2, 50)
            docs = []
            for i in range(n):
                body = [rng.choice(words) for _ in range(rng.randint(1, 10))]
                docs.append(Document(f"doc{i:03d}", " ".join(body[:2]), " ".join(body[2:])))
            query = [rng.choice(words) for _ in range(rng.randint(1, 4))]
            got = search_topk(build_index(docs), query, n)
            expected = oracle_scores([d.text().split() for d in docs], query)
            order = sorted(range(n), key=lambda i: (-expected[i], docs[i].doc_id))
            assert got.doc_ids() == [docs[i].doc_id for i in order]
            for (_, score), i in zip(got.entries, order):
                assert abs(score - expected[i]) <= 1e-9


def test_criterion_03_gradient_checks():
    with criterion(3, "analytic gradients match central finite differences", 30):
        rng = np.random.default_rng(41)

        # dense contrastive loss, 20 probes at 1e-4 relative
        enc = DenseEncoder(rng.normal(0, 0.3, size=(25, 6)))
        batch = []
        for _ in range(4):
            q = tuple(int(i) for i in rng.integers(0, 25, size=3))
            p = tuple(int(i) for i in rng.integers(0, 25, size=4))
            negs = tuple(tuple(int(i) for i in rng.integers(0, 25, size=3))
                         for _ in range(3))
            batch.append(TrainingTriple(q, p, negs))

        def dense_loss(e):
            return float(np.mean([contrastive_loss(e, t) for t in batch]))

        stepped = enc.copy()
        train_step(stepped, batch, 1.0)
        grad = enc.table - stepped.table
        eps = 1e-5
        for _ in range(20):
            i, j = int(rng.integers(25)), int(rng.integers(6))
            plus, minus = enc.copy(), enc.copy()
            plus.table[i, j] += eps
            minus.table[i, j] -= eps
            fd = (dense_loss(plus) - dense_loss(minus)) / (2 * eps)
            assert abs(fd - grad[i, j]) <= 1e-4 * max(abs(fd), abs(grad[i, j]), 1e-7)

        # masked-prediction loss, 20 probes at 1e-4 relative
        model = MlmModel.init(30, 8, seed=1)
        model.output_weights += rng.normal(0, 0.2, size=model.output_weights.shape)
        masked = make_masked_batch([[2, 3, 4, 5, 6, 7], [8, 9, 10, 11]], 0, 0.15, rng=3)
        stepped_m = model.copy()
        mlm_train_step(stepped_m, masked, 1.0)
        grads = (model.embeddings - stepped_m.embeddings,
                 model.output_weights - stepped_m.output_weights)
        for _ in range(20):
            table = int(rng.integers(2))
            i, j = int(rng.integers(30)), int(rng.integers(8))
            plus, minus = model.copy(), model.copy()
            (plus.embeddings if table == 0 else plus.output_weights)[i, j] += eps
            (minus.embeddings if table == 0 else minus.output_weights)[i, j] -= eps
            fd = (masked_prediction_loss(plus, masked)
                  - masked_prediction_loss(minus, masked)) / (2 * eps)
            analytic = grads[table][i, j]
            assert abs(fd - analytic) <= 1e-4 * max(abs(fd), abs(analytic), 1e-7)

        # pairwise reranker loss over the 6 weights at 1e-6
        ranker = Ranker(rng.normal(0, 0.5, size=6))
        pairs = [(rng.normal(size=6), rng.normal(size=6)) for _ in range(5)]

        def pair_loss(weights):
            total = 0.0
            for pos, neg in pairs:
                margin = float(np.dot(weights, pos - neg))
                total += math.log(1 + math.exp(-margin))
            return total / len(pairs)

        stepped_r = ranker.copy()
        pairwise_train_step(stepped_r, pairs, 1.0)
        rgrad = ranker.weights - stepped_r.weights
        eps_r = 1e-6
        probes = 0
        while probes < 20:
            j = probes % 6
            probes += 1
            plus, minus = ranker.weights.copy(), ranker.weights.copy()
            plus[j] += eps_r
            minus[j] -= eps_r
            fd = (pair_loss(plus) - pair_loss(minus)) / (2 * eps_r)
            assert abs(fd - rgrad[j]) <= 1e-6 * max(abs(fd), abs(rgrad[j]), 1.0)


def test_criterion_04_dense_retrieval_learning(fixture_world):
    docs, queries, qrels, vocab, _ = fixture_world
    with criterion(4, "dense fixture reaches recall@10 >= 0.9, loss halved", 60):
        triples = [triple_from_texts(q, p, negs, vocab)
                   for q, p, negs in make_training_triples(docs, queries, qrels)]
        encoder = DenseEncoder.init(len(vocab), 64, seed=3)
        initial = float(np.mean([contrastive_loss(encoder, t) for t in triples]))
        rng = np.random.default_rng(5)
        order = np.arange(len(triples))
        for _ in range(200):
            rng.shuffle(order)
            for start in range(0, len(order), 16):
                train_step(encoder, [triples[i] for i in order[start:start + 16]], 0.5)
        final = float(np.mean([contrastive_loss(encoder, t) for t in triples]))
        assert final <= 0.5 * initial, (initial, final)

        index = build_dense_index(encoder, tokenize_corpus(docs, vocab))
        recalls = []
        for query in queries:
            ids = tokenize(" ".join(query.processed_terms), vocab)
            out = dense_search_topk(index, encoder, ids, 10, query.query_id)
            relevant = qrels.relevant_docs(query.query_id)
            recalls.append(len(relevant & set(out.doc_ids())) / min(len(relevant), 10))
        assert float(np.mean(recalls)) >= 0.9, recalls


def test_criterion_05_masking_contract():
    with criterion(5, "masking counts exact, per-position frequency 15% +/- 1%", 10):
        for n in range(1, 257):
            out = mask_tokens(list(range(2, 2 + n)), 0, 0.15, rng=1)
            assert len(out.targets) == max(1, round(0.15 * n)), n
        rng = np.random.default_rng(9)
        counts = np.zeros(20)
        for _ in range(10_000):
            out = mask_tokens(list(range(2, 22)), 0, 0.15, rng=rng)
            for pos, _ in out.targets:
                counts[pos] += 1
        freq = counts / 10_000
        assert np.abs(freq - 0.15).max() < 0.01, freq


def test_criterion_06_contrastqg_soundness(fixture_world):
    docs, _, _, _, index = fixture_world
    with criterion(6, "synthesized triples pass replay and salience checks", 10):
        records = synthesize_with_provenance(docs, index, 30, seed=3)
        assert len(records) == 30
        docs_by_id = {d.doc_id: d for d in docs}

        def content_tfidf(doc, term):
            from ranklab.corpus import text_terms
            from ranklab.sparse import idf
            counts = Counter(
                t for t in text_terms(doc.text()) if t not in ENGLISH_STOPWORDS)
            return counts[term] * idf(index, term)

        for record in records:
            replay = search_topk(index, record.stage1_query.split(), 20)
            ids = replay.doc_ids()
            pos, neg = record.triple.pos_doc_id, record.triple.neg_doc_id
            assert pos in ids and neg in ids
            assert ids.index(pos) < ids.index(neg)
            for term in record.triple.query.split():
                assert (content_tfidf(docs_by_id[pos], term)
                        > content_tfidf(docs_by_id[neg], term))

        generator = SalienceQueryGenerator(index)
        sample = docs[0]
        twin = Document("twin", sample.title, sample.abstract)
        with pytest.raises(DegeneratePairError):
            generator.contrast_generate(sample, sample)
        with pytest.raises(DegeneratePairError):
            generator.contrast_generate(sample, twin)


def test_criterion_07_reinfoselect_separation(fixture_world):
    docs, queries, qrels, vocab, index = fixture_world
    with criterion(7, "clean/noisy selection separation and ranker quality", 120):
        encoder = DenseEncoder.init(len(vocab), 64, seed=3)
        extractor = FeatureExtractor(
            index, encoder, vocab, build_dense_index(encoder, tokenize_corpus(docs, vocab)))
        context = SelectionContext(extractor, queries, qrels, depth=50)
        clean, noisy = make_selection_pool(docs, queries, qrels, 200, 200, seed=47)
        pool = clean + noisy

        def batches():
            rng = np.random.default_rng(7)
            for _ in range(300):
                picks = rng.choice(len(pool), size=16, replace=False)
                yield [pool[int(i)] for i in picks]

        policy = SelectorPolicy(seed=7)
        selected_ranker = Ranker()
        for batch in batches():
            policy, selected_ranker, _ = reinfoselect_step(
                policy, pair_features(extractor, batch), selected_ranker, context,
                ranker_lr=0.1, policy_lr=1.0)

        p_clean = float(np.mean([policy.selection_probability(x) for x in instance_features(
            *pair_features(extractor, clean).transpose(1, 0, 2))]))
        p_noisy = float(np.mean([policy.selection_probability(x) for x in instance_features(
            *pair_features(extractor, noisy).transpose(1, 0, 2))]))
        assert p_clean - p_noisy >= 0.15, (p_clean, p_noisy)

        all_data_ranker = Ranker()
        for batch in batches():
            pairwise_train_step(all_data_ranker, pair_features(extractor, batch), 0.1)
        assert context.dev_ndcg(selected_ranker) >= context.dev_ndcg(all_data_ranker)


def test_criterion_08_residual_evaluation():
    with criterion(8, "residual filtering exact and old/new bias reproduced", 5):
        split = QuerySplit.from_ids({1, 2}, {3})
        prior = Qrels({1: {"d1": 1, "d3": 0}, 2: {"a": 2}})
        run = Run({
            1: ranking_of(1, ["d1", "d2", "d3", "d4"]),
            2: ranking_of(2, ["a", "b"]),
            3: ranking_of(3, ["a", "d1"]),
        })
        filtered = residual_filter(run, prior, split)
        assert filtered.rankings[1].doc_ids() == ["d2", "d4"]
        assert filtered.rankings[2].doc_ids() == ["b"]
        assert filtered.rankings[3].doc_ids() == ["a", "d1"]
        again = residual_filter(filtered, prior, split)
        assert again.rankings == filtered.rankings
        removed = set(run.rankings[1].doc_ids()) - set(filtered.rankings[1].doc_ids())
        assert removed == set(prior.judged_docs(1)) & set(run.rankings[1].doc_ids())

        # group means against hand arithmetic
        qrels = Qrels({1: {"d2": 1, "d4": 1}, 2: {"b": 1}, 3: {"a": 1, "x": 1}})
        report = old_new_report(filtered, qrels, split, k=10)
        ndcg1 = 1.0  # residual [d2, d4] is the perfect ordering of {d2, d4}
        ndcg2 = 1.0  # residual [b] is the only relevant doc
        dcg3 = 1.0 / math.log2(2)
        idcg3 = 1.0 / math.log2(2) + 1.0 / math.log2(3)
        ndcg3 = dcg3 / idcg3
        assert abs(report.old.ndcg - (ndcg1 + ndcg2) / 2) <= 1e-9
        assert abs(report.new.ndcg - ndcg3) <= 1e-9
        assert abs(report.overall.ndcg - (ndcg1 + ndcg2 + ndcg3) / 3) <= 1e-9

        # a run strong on old queries can still lose on new queries
        qrels_bias = Qrels({
            1: {"r1": 1, "r2": 1},
            2: {"s1": 1},
            3: {"t1": 1, "t2": 1},
        })
        strong_on_old = Run({
            1: ranking_of(1, ["r1", "r2", "x1"]),
            2: ranking_of(2, ["s1", "x2"]),
            3: ranking_of(3, ["x3", "x4", "t1"]),
        })
        weaker_on_old = Run({
            1: ranking_of(1, ["x1", "r1", "r2"]),
            2: ranking_of(2, ["x2", "s1"]),
            3: ranking_of(3, ["t1", "t2", "x3"]),
        })
        report_a = old_new_report(strong_on_old, qrels_bias, split, k=10)
        report_b = old_new_report(weaker_on_old, qrels_bias, split, k=10)
        assert report_a.old.ndcg > report_b.old.ndcg
        assert report_a.new.ndcg < report_b.new.ndcg


def test_criterion_09_fusion():
    with criterion(9, "fusion endpoint identities and RRF hand value", 5):
        ranker_scores = {"a": 3.0, "b": 2.0, "c": 1.0}
        dense_scores = {"a": 0.1, "b": 0.9, "c": 0.5}
        assert fuse_interpolate(1, ranker_scores, dense_scores, 0.0).doc_ids() == [
            "a", "b", "c"]
        assert fuse_interpolate(1, ranker_scores, dense_scores, 1.0).doc_ids() == [
            "b", "c", "a"]

        both_first = fuse_base_union(
            ranking_of(1, ["top", "o1"]), ranking_of(1, ["top", "o2"]), 3, rrf_k=60)
        assert abs(dict(both_first.entries)["top"] - 2 / 61) <= 1e-12

        lists = (["a", "b", "c", "d"], ["c", "a", "d", "b"])
        plain = fuse_base_union(ranking_of(1, lists[0]), ranking_of(1, lists[1]), 4)
        warped = fuse_base_union(
            RankedList.from_scores(
                1, [(d, 7.0 + 2.0 * s) for d, s in ranking_of(1, lists[0]).entries]),
            RankedList.from_scores(
                1, [(d, math.exp(s)) for d, s in ranking_of(1, lists[1]).entries]),
            4)
        assert plain.entries == warped.entries


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "two identical pipeline runs are byte-identical", 180):
        docs, queries, qrels = make_separable_corpus()
        corpus_path = tmp_path / "corpus.jsonl"
        with open(corpus_path, "w") as fh:
            for d in docs:
                fh.write(json.dumps(
                    {"doc_id": d.doc_id, "title": d.title, "abstract": d.abstract}) + "\n")
        queries_path = tmp_path / "queries.tsv"
        queries_path.write_text(
            "".join(f"{q.query_id}\t{q.raw_text}\n" for q in queries))
        qrels_path = tmp_path / "qrels.txt"
        with open(qrels_path, "w") as fh:
            for qid in qrels.query_ids():
                for doc_id, grade in sorted(qrels.judgments[qid].items()):
                    fh.write(f"{qid} 0 {doc_id} {grade}\n")

        base = PipelineConfig(
            corpus_path=str(corpus_path),
            queries_path=str(queries_path),
            qrels_path=str(qrels_path),
            vocab_size=2000,
            topk=50,
            depth=50,
            mlm_epochs=4,
            dense_epochs=10,
            dense_lr=0.5,
            warm_start=True,
            triples_count=30,
            select_steps=20,
            fusion="interp",
            seed=0,
        )
        stages = ["ingest", "index", "synth-weak", "dapt", "train-dense",
                  "select-train", "rerank", "evaluate"]
        artifacts = ["vocab.json", "index.bin", "weak_triples.jsonl",
                     "mlm_embeddings.ckpt", "encoder.ckpt", "dense_index.bin",
                     "ranker.ckpt", "policy.json", "run.trec", "report.jsonl"]
        payloads = []
        for name in ("runA", "runB"):
            config = dataclasses.replace(base, workdir=str(tmp_path / name))
            run_pipeline(config, stages)
            payloads.append(
                {a: (tmp_path / name / a).read_bytes() for a in artifacts})
        for artifact in artifacts:
            assert payloads[0][artifact] == payloads[1][artifact], artifact
