import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranklab import weaksup
from ranklab.cli import PipelineConfig, run_pipeline
from ranklab.corpus import Document, load_corpus, text_terms
from ranklab.dense import DenseEncoder, build_dense_index
from ranklab.errors import ConfigError, DegeneratePairError, GenerationError, ToolkitWarning
from ranklab.rerank import FeatureExtractor, Ranker
from ranklab.sparse import DEFAULT_B, InvertedIndex, bm25_score, build_index, idf, search_topk
from ranklab.stopwords import ENGLISH_STOPWORDS
from ranklab.subword import tokenize_corpus, train_subword_vocab
from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS, make_separable_corpus
from ranklab.weaksup import (
    SalienceQueryGenerator,
    SelectionContext,
    SelectorPolicy,
    WeakTriple,
    instance_features,
    pair_features,
    read_triples,
    reinfoselect_step,
    synthesize_triples,
    synthesize_with_provenance,
    write_triples,
)
from fixture_triples import make_selection_pool
from test_cli import write_fixture_inputs


def hand_tfidf(doc: Document, index, term: str) -> float:
    """Independent tf-idf: raw count of content terms times index idf."""
    counts = Counter(t for t in text_terms(doc.text()) if t not in ENGLISH_STOPWORDS)
    return counts[term] * idf(index, term)


class TestGenerate:
    def test_single_content_term(self, tiny_docs):
        index = build_index(tiny_docs)
        doc = Document("solo", "the coronavirus", "of the coronavirus")
        gen = SalienceQueryGenerator(index)
        assert gen.generate(doc) == "coronavirus"

    def test_top_terms_in_document_order(self, tiny_docs):
        index = build_index(tiny_docs)
        doc = tiny_docs[0]  # remdesivir x3, trial x2, patients x1
        ranking = sorted(
            {t for t in text_terms(doc.text())},
            key=lambda t: -hand_tfidf(doc, index, t),
        )
        assert ranking == ["remdesivir", "trial", "patients"]
        gen = SalienceQueryGenerator(index, max_query_terms=2)
        assert gen.generate(doc) == "remdesivir trial"

    def test_stopword_only_doc(self, tiny_docs):
        index = build_index(tiny_docs)
        gen = SalienceQueryGenerator(index)
        with pytest.raises(GenerationError):
            gen.generate(Document("s", "the of", "and or"))

    def test_respects_max_terms_and_nonempty(self, separable):
        gen = SalienceQueryGenerator(separable["index"], max_query_terms=6)
        for doc in separable["docs"][:20]:
            query = gen.generate(doc)
            assert query
            assert 1 <= len(query.split()) <= 6


class TestContrastGenerate:
    def test_identical_documents_rejected(self, tiny_docs):
        index = build_index(tiny_docs)
        gen = SalienceQueryGenerator(index)
        doc = tiny_docs[0]
        with pytest.raises(DegeneratePairError):
            gen.contrast_generate(doc, doc)
        twin = Document("copy", doc.title, doc.abstract)
        with pytest.raises(DegeneratePairError):
            gen.contrast_generate(doc, twin)

    def test_shared_term_suppressed(self, tiny_docs):
        index = build_index(tiny_docs)
        gen = SalienceQueryGenerator(index)
        pos, neg = tiny_docs[2], tiny_docs[3]  # vaccine antibody vs vaccine distribution
        assert hand_tfidf(pos, index, "vaccine") <= hand_tfidf(neg, index, "vaccine")
        query = gen.contrast_generate(pos, neg)
        assert "antibody" in query.split()
        assert "vaccine" not in query.split()

    def test_swap_yields_other_side_terms(self, tiny_docs):
        index = build_index(tiny_docs)
        gen = SalienceQueryGenerator(index)
        pos, neg = tiny_docs[2], tiny_docs[3]
        forward = set(gen.contrast_generate(pos, neg).split())
        backward = set(gen.contrast_generate(neg, pos).split())
        for term in forward:
            assert hand_tfidf(pos, index, term) > hand_tfidf(neg, index, term)
        for term in backward:
            assert hand_tfidf(neg, index, term) > hand_tfidf(pos, index, term)
        assert not forward & backward

    def test_all_emitted_terms_have_positive_salience(self, separable):
        index = separable["index"]
        docs = separable["docs"]
        gen = SalienceQueryGenerator(index)
        query = gen.contrast_generate(docs[0], docs[30])
        for term in query.split():
            assert hand_tfidf(docs[0], index, term) > hand_tfidf(docs[30], index, term)


class TestSynthesize:
    def test_two_distinguishable_docs(self):
        docs = [
            Document("a", "remdesivir trial remdesivir", "dosing remdesivir"),
            Document("b", "vaccine antibody vaccine", "vaccine response"),
        ]
        index = build_index(docs)
        triples = synthesize_triples(docs, index, 1, seed=0, retrieval_depth=20)
        assert len(triples) == 1
        assert triples[0].pos_doc_id != triples[0].neg_doc_id

    def test_replay_check(self, separable):
        records = synthesize_with_provenance(
            separable["docs"], separable["index"], 25, seed=3)
        assert records
        for record in records:
            ranked = search_topk(separable["index"], record.stage1_query.split(), 20)
            ids = ranked.doc_ids()
            assert record.triple.pos_doc_id in ids
            assert record.triple.neg_doc_id in ids
            assert ids.index(record.triple.pos_doc_id) < ids.index(record.triple.neg_doc_id)

    def test_count_zero_rejected(self, separable):
        with pytest.raises(ConfigError):
            synthesize_triples(separable["docs"], separable["index"], 0, seed=0)

    def test_partial_result_warns(self):
        # two identical docs: every pair is degenerate, so nothing can be built
        docs = [Document("a", "same words here", ""), Document("b", "same words here", "")]
        index = build_index(docs)
        with pytest.warns(ToolkitWarning):
            triples = synthesize_triples(docs, index, 3, seed=0)
        assert triples == []

    def test_deterministic_given_seed(self, separable):
        a = synthesize_triples(separable["docs"], separable["index"], 10, seed=11)
        b = synthesize_triples(separable["docs"], separable["index"], 10, seed=11)
        assert a == b

    def test_include_stage1_adds_triples(self, separable):
        base = synthesize_triples(separable["docs"], separable["index"], 5, seed=2)
        both = synthesize_triples(separable["docs"], separable["index"], 5, seed=2,
                                  include_stage1=True)
        assert len(both) == 2 * len(base)
        assert both[0::2] == base  # contrast triples unchanged, stage-1 interleaved

    def test_io_round_trip(self, tmp_path, separable):
        triples = synthesize_triples(separable["docs"], separable["index"], 5, seed=4)
        path = tmp_path / "triples.jsonl"
        write_triples(triples, path)
        assert read_triples(path) == triples


class TestWeakTriple:
    def test_rejects_same_docs(self):
        with pytest.raises(ValueError):
            WeakTriple("q", "d", "d")

    def test_rejects_empty_query(self):
        with pytest.raises(ValueError):
            WeakTriple("", "a", "b")

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            WeakTriple("q", "a", "b", "mystery")


def instance_row(extractor, triple):
    """One triple's policy instance features, from its pair_features rows."""
    return instance_features(*pair_features(extractor, [triple])[0])


def instance_featurizer(index, docs, encoder, vocab):
    """What gives one triple's policy instance features over these documents."""
    extractor = FeatureExtractor(
        index, encoder, vocab, build_dense_index(encoder, tokenize_corpus(docs, vocab)))
    return lambda triple: instance_row(extractor, triple)


def reference_from_pair_features(pos, neg):
    """The former InstanceFeaturizer.from_pair_features, kept as the oracle."""
    return np.array([pos[0], neg[0], pos[0] - neg[0], pos[1] - neg[1], pos[4], 1.0])


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.lists(finite, min_size=6, max_size=6),
                          st.lists(finite, min_size=6, max_size=6)), min_size=1, max_size=8))
def test_instance_features_rows_match_the_former_vector(pairs):
    pos, neg = np.array([p for p, _ in pairs]), np.array([n for _, n in pairs])
    with np.errstate(over="ignore"):
        rows = instance_features(pos, neg)
        expected = [reference_from_pair_features(p, n) for p, n in zip(pos, neg)]
    assert rows.shape == (len(pairs), 6)
    assert [r.tobytes() for r in rows] == [e.tobytes() for e in expected]
    assert instance_features(pos[0], neg[0]).tobytes() == expected[0].tobytes()


class TestInstanceFeatures:
    def test_identical_text_docs_zero_differences(self):
        docs = [
            Document("a", "same words here", ""),
            Document("b", "same words here", ""),
            Document("c", "other content entirely", ""),
        ]
        index = build_index(docs)
        vocab = train_subword_vocab([d.text() for d in docs], 100)
        encoder = DenseEncoder.init(len(vocab), 8, seed=0)
        featurize = instance_featurizer(index, docs, encoder, vocab)
        feats = featurize(WeakTriple("same words", "a", "b"))
        assert feats[2] == pytest.approx(0.0, abs=1e-12)  # bm25 difference
        assert feats[3] == pytest.approx(0.0, abs=1e-12)  # dense sim difference

    def test_values_match_independent_recomputation(self, separable):
        from ranklab.sparse import bm25_score
        from ranklab.dense import encode, similarity
        from ranklab.subword import tokenize

        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 16, seed=5)
        featurize = instance_featurizer(index, docs, encoder, vocab)
        triple = WeakTriple("t0w1 t0w2", docs[0].doc_id, docs[25].doc_id, "external")
        feats = featurize(triple)
        terms = ["t0w1", "t0w2"]
        pos_ord = index.ordinal_of[triple.pos_doc_id]
        neg_ord = index.ordinal_of[triple.neg_doc_id]
        assert feats[0] == pytest.approx(bm25_score(index, terms, pos_ord), abs=1e-12)
        assert feats[1] == pytest.approx(bm25_score(index, terms, neg_ord), abs=1e-12)
        assert feats[2] == pytest.approx(feats[0] - feats[1], abs=1e-12)
        qv = encode(encoder, tokenize(triple.query, vocab))
        pv = encode(encoder, tokenize(docs[0].text(), vocab))
        nv = encode(encoder, tokenize(docs[25].text(), vocab))
        assert feats[3] == pytest.approx(similarity(qv, pv) - similarity(qv, nv), abs=1e-12)
        assert feats[4] == 2.0
        assert feats[5] == 1.0

    def test_feature_order_stable(self, separable):
        index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
        encoder = DenseEncoder.init(len(vocab), 16, seed=5)
        featurize = instance_featurizer(index, docs, encoder, vocab)
        triple = WeakTriple("t1w1", docs[20].doc_id, docs[0].doc_id, "external")
        np.testing.assert_array_equal(featurize(triple), featurize(triple))


@pytest.fixture(scope="module")
def selection_setup():
    docs, queries, qrels = make_separable_corpus()
    vocab = train_subword_vocab([d.text() for d in docs], 2000)
    index = build_index(docs)
    encoder = DenseEncoder.init(len(vocab), 64, seed=3)
    extractor = FeatureExtractor(
        index, encoder, vocab, build_dense_index(encoder, tokenize_corpus(docs, vocab)))
    context = SelectionContext(extractor, queries, qrels, depth=50)
    clean, noisy = make_selection_pool(docs, queries, qrels, 40, 40, seed=47)
    return {"context": context, "extractor": extractor, "clean": clean, "noisy": noisy,
            "args": (extractor, queries, qrels)}


def test_selection_context_uses_its_bm25_parameters(separable):
    index, docs, vocab = separable["index"], separable["docs"], separable["vocab"]
    queries = separable["queries"]
    encoder = DenseEncoder.init(len(vocab), 8, seed=3)
    dense_index = build_dense_index(encoder, tokenize_corpus(docs, vocab))
    context = SelectionContext(FeatureExtractor(index, encoder, vocab, dense_index, k1=1.5),
                               queries, separable["qrels"], depth=20)
    for i, query in enumerate(queries):
        base = search_topk(index, query, 20, 1.5, DEFAULT_B)
        assert context.candidates.doc_ids[i].tolist() == base.doc_ids()
        assert context.candidates.features[i, :, 0].tolist() == [score for _, score in base.entries]
        doc_id = context.candidates.doc_ids[i, 0]
        assert context.candidates.features[i, 0, 0] == bm25_score(
            index, query.processed_terms, index.ordinal_of[doc_id], 1.5, DEFAULT_B)
    default = SelectionContext(
        FeatureExtractor(index, encoder, vocab, dense_index), queries, separable["qrels"],
        depth=20)
    assert not (np.array_equal(context.candidates.doc_ids, default.candidates.doc_ids)
                and np.array_equal(context.candidates.features[..., 0],
                                   default.candidates.features[..., 0]))


def test_synth_weak_retrieves_with_the_configured_bm25_parameters(tmp_path):
    corpus, queries, qrels = write_fixture_inputs(tmp_path, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    config = PipelineConfig(corpus_path=str(corpus), workdir=str(tmp_path / "w"), k1=3.0, b=1.0)
    run_pipeline(config, ["index", "synth-weak"])
    written = read_triples(tmp_path / "w" / "weak_triples.jsonl")
    docs, index = load_corpus(corpus), InvertedIndex.load(tmp_path / "w" / "index.bin")
    count, seed = config.triples_count, config.seed
    assert written == synthesize_triples(docs, index, count, seed, k1=3.0, b=1.0)
    assert written != synthesize_triples(docs, index, count, seed)


class TestReinfoSelect:
    def test_zero_reward_zero_baseline_leaves_policy(self, selection_setup):
        ctx = selection_setup["context"]
        policy = SelectorPolicy(seed=0)
        ranker = Ranker()
        # learning rate 0 freezes the ranker, so before == after and reward == 0
        policy, ranker, reward = reinfoselect_step(
            policy, pair_features(selection_setup["extractor"], selection_setup["clean"][:8]),
            ranker, ctx, ranker_lr=0.0, policy_lr=1.0)
        assert reward == 0.0
        np.testing.assert_array_equal(policy.weights, np.zeros(6))

    def test_selected_logit_increases_with_positive_advantage(self, selection_setup):
        ctx = selection_setup["context"]
        triple = selection_setup["clean"][0]
        for seed in range(30):
            policy = SelectorPolicy(seed=seed)
            ranker = Ranker()
            features = instance_row(selection_setup["extractor"], triple)
            logit_before = float(np.dot(policy.weights, features))
            policy, _, reward = reinfoselect_step(
                policy, pair_features(selection_setup["extractor"], [triple]), ranker, ctx,
                ranker_lr=0.1, policy_lr=1.0)
            if reward > 0:  # selected and improved: advantage positive on step 1
                logit_after = float(np.dot(policy.weights, features))
                assert logit_after > logit_before
                break
        else:
            pytest.fail("no seed produced a positive-reward selected step")

    def test_a_policy_does_not_share_the_callers_array(self, selection_setup):
        """A policy update leaves the array the policy was built from as it was, and
        a second policy built from it."""
        weights = np.zeros(6)
        policy, second = SelectorPolicy(weights, seed=0), SelectorPolicy(weights, seed=0)
        policy.baseline = 1.0  # a dev NDCG change below 1 makes the advantage non-zero
        policy, _, _ = reinfoselect_step(
            policy, pair_features(selection_setup["extractor"], selection_setup["clean"][:8]),
            Ranker(), selection_setup["context"])
        assert weights.tobytes() == np.zeros(6).tobytes()
        assert second.weights.tobytes() == np.zeros(6).tobytes()
        assert policy.weights.tobytes() != np.zeros(6).tobytes()

    def test_empty_selection_skips_ranker(self, selection_setup):
        ctx = selection_setup["context"]
        # strongly negative weights force p ~ 0 so nothing is selected
        policy = SelectorPolicy(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -50.0]), seed=1)
        ranker = Ranker(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        before = ranker.weights.copy()
        policy, ranker_out, reward = reinfoselect_step(
            policy, pair_features(selection_setup["extractor"], selection_setup["clean"][:8]),
            ranker, ctx)
        assert reward == 0.0
        np.testing.assert_array_equal(ranker_out.weights, before)

    def test_probabilities_stay_in_unit_interval_weights_finite(self, selection_setup):
        ctx = selection_setup["context"]
        pool = selection_setup["clean"] + selection_setup["noisy"]
        policy = SelectorPolicy(seed=5)
        ranker = Ranker()
        rng = np.random.default_rng(5)
        for _ in range(200):
            picks = rng.choice(len(pool), size=10, replace=False)
            batch = [pool[int(i)] for i in picks]
            policy, ranker, _ = reinfoselect_step(
                policy, pair_features(selection_setup["extractor"], batch), ranker, ctx)
        assert np.all(np.isfinite(policy.weights))
        for triple in pool:
            p = policy.selection_probability(instance_row(selection_setup["extractor"], triple))
            assert 0.0 < p < 1.0

    def test_negative_reward_rolls_back_by_default(self, selection_setup):
        ctx = selection_setup["context"]
        pool = selection_setup["noisy"]
        policy = SelectorPolicy(seed=2)
        ranker = Ranker()
        for step in range(40):
            batch = pool[(step * 4) % len(pool):][:4] or pool[:4]
            before = ranker.weights.copy()
            policy, ranker, reward = reinfoselect_step(
                policy, pair_features(selection_setup["extractor"], batch), ranker, ctx,
                ranker_lr=0.5, policy_lr=0.5)
            if reward < 0:
                np.testing.assert_array_equal(ranker.weights, before)
                return
        pytest.skip("fixture produced no negative reward in 40 steps")

    def test_step_deterministic_given_seed(self, selection_setup):
        ctx = selection_setup["context"]
        outs = []
        for _ in range(2):
            policy = SelectorPolicy(seed=9)
            ranker = Ranker()
            for batch_start in range(0, 24, 8):
                batch = selection_setup["clean"][batch_start:batch_start + 8]
                policy, ranker, reward = reinfoselect_step(
                    policy, pair_features(selection_setup["extractor"], batch), ranker, ctx)
            outs.append((policy.weights.copy(), ranker.weights.copy(), policy.baseline))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])
        assert outs[0][2] == outs[1][2]

    def test_step_features_each_triple_once(self, selection_setup, monkeypatch, tmp_path):
        # a step reads pair rows and featurizes nothing; it matches the former
        # step, which featurized its triples itself
        ctx, extractor = selection_setup["context"], selection_setup["extractor"]
        pool = selection_setup["clean"] + selection_setup["noisy"]
        expected_policy, expected_ranker = SelectorPolicy(seed=4), Ranker()
        for start in range(0, 30, 10):
            expected_policy, expected_ranker, _ = reference_reinfoselect_step(
                expected_policy, pool[start:start + 10], expected_ranker, ctx, extractor, 0.5)

        calls = []
        features_matrix = FeatureExtractor.features_matrix

        def counted_features_matrix(self, query_terms, ordinals, bm25=None):
            if bm25 is None:  # not a dev candidate list, whose BM25 scores are given
                calls.append((tuple(query_terms), tuple(ordinals)))
            return features_matrix(self, query_terms, ordinals, bm25)

        monkeypatch.setattr(FeatureExtractor, "features_matrix", counted_features_matrix)
        rows = pair_features(extractor, pool[:30])
        calls.clear()
        policy, ranker = SelectorPolicy(seed=4), Ranker()
        for start in range(0, 30, 10):
            policy, ranker, _ = reinfoselect_step(
                policy, rows[start:start + 10], ranker, ctx, ranker_lr=0.5)
        assert calls == []
        np.testing.assert_array_equal(policy.weights, expected_policy.weights)
        np.testing.assert_array_equal(ranker.weights, expected_ranker.weights)
        assert policy.baseline == expected_policy.baseline
        assert np.any(ranker.weights != 0.0)  # some step selected and kept an update

        # a default-config select-train featurizes each distinct drawn triple once
        corpus, queries, qrels = write_fixture_inputs(tmp_path, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
        config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                                qrels_path=str(qrels), workdir=str(tmp_path / "w"))
        run_pipeline(config, ["ingest", "index", "synth-weak", "train-dense"])
        calls.clear()
        run_pipeline(config, ["select-train"])
        weak = read_triples(tmp_path / "w" / "weak_triples.jsonl")
        rng = np.random.default_rng(config.seed + 1)
        drawn = np.unique([rng.choice(len(weak), size=min(config.select_batch, len(weak)),
                                      replace=False) for _ in range(config.select_steps)])
        assert config.select_steps * config.select_batch == 960 > len(drawn)
        ordinal_of = InvertedIndex.load(tmp_path / "w" / "index.bin").ordinal_of
        assert calls == [(tuple(weak[i].query.split()),
                          (ordinal_of[weak[i].pos_doc_id], ordinal_of[weak[i].neg_doc_id]))
                         for i in drawn.tolist()]


def test_each_distinct_ranker_is_scored_on_dev_once(selection_setup, monkeypatch):
    # the select-train loop: a step, then a progress line scoring the kept ranker
    ctx = SelectionContext(*selection_setup["args"], depth=50)
    scored, computed = [], []
    dev_ndcg, mean_ndcg = SelectionContext.dev_ndcg, weaksup.mean_ndcg

    def recorded_dev_ndcg(self, ranker):
        scored.append(ranker.weights.tobytes())
        return dev_ndcg(self, ranker)

    def counted_mean_ndcg(*args):
        computed.append(args)
        return mean_ndcg(*args)

    monkeypatch.setattr(SelectionContext, "dev_ndcg", recorded_dev_ndcg)
    monkeypatch.setattr(weaksup, "mean_ndcg", counted_mean_ndcg)
    pool = selection_setup["noisy"] + selection_setup["clean"]
    policy, ranker, rewards = SelectorPolicy(seed=2), Ranker(), []
    for step in range(12):
        policy, ranker, reward = reinfoselect_step(
            policy, pair_features(selection_setup["extractor"], pool[(step * 6) % len(pool):][:6]),
            ranker, ctx, ranker_lr=0.5)
        rewards.append(reward)
        ctx.dev_ndcg(ranker)
    assert min(rewards) < 0.0 < max(rewards)  # steps kept and rolled back a trial
    assert len(computed) == len(set(scored)) < len(scored)


def reference_reinfoselect_step(policy, batch, ranker, context, extractor, ranker_lr):
    """The former selection step, kept as the oracle: it featurizes each
    triple of the batch, and the selected ones a second time for the trial
    update."""
    from ranklab.rerank import pairwise_train_step

    features = [instance_row(extractor, t) for t in batch]
    probs = np.array([policy.selection_probability(x) for x in features])
    actions = policy.rng.random(len(batch)) < probs
    selected = [t for t, a in zip(batch, actions) if a]
    before = context.dev_ndcg(ranker)
    trial, reward = ranker, 0.0
    if selected:
        trial = ranker.copy()
        pairwise_train_step(trial, [tuple(pair_features(extractor, [t])[0]) for t in selected],
                            ranker_lr)
        reward = context.dev_ndcg(trial) - before
    grad = sum((float(a) - p) * x for x, p, a in zip(features, probs, actions))
    policy.weights += (reward - policy.baseline) * grad
    policy.record_reward(reward)
    return policy, (trial if reward >= 0.0 else ranker), reward


class TestSelectorPolicy:
    def test_probability_is_logistic(self):
        policy = SelectorPolicy(np.array([1.0, 0, 0, 0, 0, 0]), seed=0)
        x = np.array([2.0, 0, 0, 0, 0, 0])
        assert policy.selection_probability(x) == pytest.approx(
            1 / (1 + math.exp(-2.0)), abs=1e-12)

    def test_running_mean_baseline(self):
        policy = SelectorPolicy(seed=0)
        for reward in (1.0, 2.0, 3.0):
            policy.record_reward(reward)
        assert policy.baseline == pytest.approx(2.0)
        assert policy.reward_count == 3

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        for state in ({}, {"baseline": -0.5, "reward_count": 7}):
            policy = SelectorPolicy(np.arange(6, dtype=float), seed=4, **state)
            policy.record_reward(0.25)
            policy.save(path)
            loaded = SelectorPolicy.load(path)
            np.testing.assert_array_equal(loaded.weights, policy.weights)
            assert loaded.seed == policy.seed
            assert loaded.baseline == policy.baseline
            assert loaded.reward_count == policy.reward_count == state.get("reward_count", 0) + 1

    @pytest.mark.parametrize("state", [
        {"seed": True}, {"seed": -1}, {"seed": 1.5}, {"baseline": float("nan")},
        {"baseline": True}, {"reward_count": -1}, {"reward_count": 1.0},
        {"weights": [0.0, 0.0, float("nan"), 0.0, 0.0, 0.0]}, {"weights": np.zeros(5)}])
    def test_a_bad_state_is_rejected_when_built(self, state):
        with pytest.raises(ValueError):
            SelectorPolicy(**state)
