"""Pipeline orchestration: composable stages over a shared flat config.

Stages communicate only through files in the work directory, so any stage can
be replaced by an external tool that produces the same format. select-train,
rerank and depth-sweep read their document vectors from the dense_index.bin
that train-dense writes, and their document terms from index.bin. Exit codes:
0 success, 2 config error, 3 dependency error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dense, mlm, rerank, weaksup
from .checkpoint import write_atomic
from .corpus import load_corpus, load_queries
from .errors import (
    ConfigError,
    DependencyError,
    NumericError,
    ParseError,
    ToolkitError,
)
from .evaluation import (
    QuerySplit,
    Run,
    load_split,
    old_new_report,
    read_qrels,
    read_run,
    residual_filter,
    write_run,
)
from .sparse import InvertedIndex, build_index, coverage_at_k, search_topk
from .stopwords import ENGLISH_STOPWORDS, load_stopwords
from .subword import SubwordVocab, subword_ratio, tokenize, train_subword_vocab

STAGES = (
    "ingest", "index", "dapt", "train-dense", "synth-weak",
    "select-train", "rerank", "evaluate", "depth-sweep", "analyze",
)

ARTIFACTS = {
    "vocab": "vocab.json",
    "index": "index.bin",
    "mlm_embeddings": "mlm_embeddings.ckpt",
    "encoder": "encoder.ckpt",
    "dense_index": "dense_index.bin",
    "weak_triples": "weak_triples.jsonl",
    "ranker": "ranker.ckpt",
    "policy": "policy.json",
    "run": "run.trec",
    "report_text": "report.txt",
    "report_jsonl": "report.jsonl",
    "depth_sweep": "depth_sweep.tsv",
    "analysis_json": "analysis.json",
    "analysis_text": "analysis.txt",
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERIC = 4

FUSION_CHOICES = ("none", "interp", "union", "rrf")


@dataclass
class PipelineConfig:
    # input paths
    corpus_path: str = ""
    queries_path: str = ""
    qrels_path: str = ""
    stopwords_path: str = ""
    split_path: str = ""
    prior_qrels_path: str = ""
    external_triples_path: str = ""
    reference_texts_path: str = ""
    workdir: str = "work"
    run_tag: str = "ranklab"
    # subword vocabulary
    vocab_size: int = 2000
    max_seq_len: int = 256
    # sparse retrieval
    k1: float = 0.9
    b: float = 0.4
    topk: int = 100
    # dense retrieval
    dim: int = 64
    negatives: int = 4
    dense_epochs: int = 60
    dense_lr: float = 0.05
    batch_size: int = 16
    warm_start: bool = False
    # masked-language pretraining
    mask_rate: float = 0.15
    mlm_epochs: int = 30
    mlm_lr: float = 0.5
    # weak supervision
    triples_count: int = 50
    retrieval_depth: int = 20
    max_query_terms: int = 6
    include_stage1: bool = False
    select_steps: int = 60
    select_batch: int = 16
    policy_lr: float = 1.0
    ranker_lr: float = 0.1
    keep_all_updates: bool = False
    select_depth: int = 50
    # rerank / fusion
    depth: int = 100
    fusion: str = "none"
    alpha: float = 0.5
    rrf_k: int = 60
    # evaluation
    eval_k: int = 10
    gain: str = "linear"
    residual: bool = False
    skip_unjudgeable: bool = False
    coverage_k: int = 100
    depths: str = "20,50,100"
    # shared
    seed: int = 0
    eval_every_steps: int = 3

    def validate(self) -> None:
        checks = [
            (self.k1 >= 0, "k1 must be >= 0"),
            (0.0 <= self.b <= 1.0, "b must be in [0, 1]"),
            (self.topk >= 1, "topk must be >= 1"),
            (self.dim >= 1, "dim must be >= 1"),
            (self.negatives >= 1, "negatives must be >= 1"),
            (self.dense_epochs >= 1, "dense_epochs must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (0.0 < self.mask_rate < 1.0, "mask_rate must be in (0, 1)"),
            (self.mlm_epochs >= 1, "mlm_epochs must be >= 1"),
            (self.triples_count >= 1, "triples_count must be >= 1"),
            (self.retrieval_depth >= 2, "retrieval_depth must be >= 2"),
            (self.max_query_terms >= 1, "max_query_terms must be >= 1"),
            (self.select_steps >= 1, "select_steps must be >= 1"),
            (self.select_batch >= 1, "select_batch must be >= 1"),
            (self.select_depth >= 1, "select_depth must be >= 1"),
            (self.depth >= 1, "depth must be >= 1"),
            (self.fusion in FUSION_CHOICES, f"fusion must be one of {FUSION_CHOICES}"),
            (0.0 <= self.alpha <= 1.0, "alpha must be in [0, 1]"),
            (self.rrf_k >= 1, "rrf_k must be >= 1"),
            (self.eval_k >= 1, "eval_k must be >= 1"),
            (self.gain in ("linear", "exp"), "gain must be linear or exp"),
            (self.coverage_k >= 1, "coverage_k must be >= 1"),
            (self.eval_every_steps >= 1, "eval_every_steps must be >= 1"),
            (self.vocab_size >= 2, "vocab_size must be >= 2"),
            (self.max_seq_len >= 1, "max_seq_len must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            self.depth_list()
        except ValueError as exc:
            raise ConfigError(f"bad depths list {self.depths!r}") from exc

    def depth_list(self) -> list[int]:
        return [int(d) for d in self.depths.split(",") if d.strip()]

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Parse a flat "key = value" config file."""
        values: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
        return cls().with_overrides(values)

    def with_overrides(self, values: dict) -> "PipelineConfig":
        fields = {f.name: f for f in dataclasses.fields(self)}
        updates = {}
        for key, raw in values.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            if raw is None:
                continue
            target = fields[key].type
            try:
                if target == "bool" or isinstance(getattr(self, key), bool):
                    if isinstance(raw, bool):
                        updates[key] = raw
                    else:
                        lowered = str(raw).lower()
                        if lowered not in ("true", "false", "1", "0", "yes", "no"):
                            raise ValueError(f"bad boolean {raw!r}")
                        updates[key] = lowered in ("true", "1", "yes")
                elif isinstance(getattr(self, key), int):
                    updates[key] = int(raw)
                elif isinstance(getattr(self, key), float):
                    updates[key] = float(raw)
                else:
                    updates[key] = str(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        return dataclasses.replace(self, **updates)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class StageRunner:
    """Executes stages in a locked work directory and appends manifest lines."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.workdir = Path(config.workdir)
        self._stopwords = None

    # -- plumbing -----------------------------------------------------------

    def artifact(self, name: str) -> Path:
        return self.workdir / ARTIFACTS[name]

    def require_inputs(self, *keys: str) -> None:
        for key in keys:
            value = getattr(self.config, f"{key}_path")
            if not value:
                raise ConfigError(f"config key {key}_path is required for this stage")
            if not Path(value).is_file():
                raise ConfigError(f"{key} file not found: {value}")

    def require_artifacts(self, *names: str) -> None:
        for name in names:
            if not self.artifact(name).is_file():
                raise DependencyError(
                    f"missing artifact {ARTIFACTS[name]!r}; run the stage that produces it first"
                )

    def stopwords(self):
        if self._stopwords is None:
            if self.config.stopwords_path:
                self._stopwords = load_stopwords(self.config.stopwords_path)
            else:
                self._stopwords = ENGLISH_STOPWORDS
        return self._stopwords

    def load_docs(self):
        self.require_inputs("corpus")
        return load_corpus(self.config.corpus_path)

    def load_queries(self):
        self.require_inputs("queries")
        return load_queries(self.config.queries_path, self.stopwords())

    def load_qrels(self):
        self.require_inputs("qrels")
        return read_qrels(self.config.qrels_path)

    def manifest_line(self, stage: str, inputs: list[Path], outputs: list[Path], wall: float) -> None:
        line = {
            "stage": stage,
            "inputs": {str(p): _sha256(Path(p)) for p in inputs},
            "outputs": {str(p): _sha256(Path(p)) for p in outputs},
            "seed": self.config.seed,
            "wall_time_s": round(wall, 6),
        }
        with open(self.workdir / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")

    def input_paths(self, *keys: str) -> list[Path]:
        return [Path(getattr(self.config, f"{key}_path")) for key in keys
                if getattr(self.config, f"{key}_path")]

    # -- stages -------------------------------------------------------------

    def stage_ingest(self):
        self.require_inputs("corpus", "queries", "qrels")
        docs = self.load_docs()
        self.load_queries()
        self.load_qrels()
        vocab = train_subword_vocab([d.text() for d in docs], self.config.vocab_size)
        vocab.save(self.artifact("vocab"))
        return (self.input_paths("corpus", "queries", "qrels", "stopwords"),
                [self.artifact("vocab")])

    def stage_index(self):
        docs = self.load_docs()
        index = build_index(docs)
        index.save(self.artifact("index"))
        return self.input_paths("corpus"), [self.artifact("index")]

    def stage_dapt(self):
        self.require_artifacts("vocab")
        docs = self.load_docs()
        vocab = SubwordVocab.load(self.artifact("vocab"))
        sequences = [tokenize(d.text(), vocab, self.config.max_seq_len) for d in docs]
        sequences = [s for s in sequences if s]
        model = mlm.MlmModel.init(len(vocab), self.config.dim, self.config.seed)
        rng = np.random.default_rng(self.config.seed)
        for epoch in range(self.config.mlm_epochs):
            batch = mlm.make_masked_batch(sequences, vocab.mask_id, self.config.mask_rate, rng)
            model, loss = mlm.mlm_train_step(model, batch, self.config.mlm_lr)
            if (epoch + 1) % self.config.eval_every_steps == 0 or epoch == self.config.mlm_epochs - 1:
                print(f"[dapt] epoch {epoch + 1} loss {loss:.6f}")
        model.save_embeddings(self.artifact("mlm_embeddings"))
        return (self.input_paths("corpus") + [self.artifact("vocab")],
                [self.artifact("mlm_embeddings")])

    def _triples_file(self) -> Path:
        if self.config.external_triples_path:
            path = Path(self.config.external_triples_path)
            if not path.is_file():
                raise ConfigError(f"external triples file not found: {path}")
            return path
        path = self.artifact("weak_triples")
        if not path.is_file():
            raise DependencyError(
                f"missing artifact {ARTIFACTS['weak_triples']!r}; "
                "run synth-weak or set external_triples_path"
            )
        return path

    def stage_train_dense(self):
        self.require_artifacts("vocab")
        docs = self.load_docs()
        vocab = SubwordVocab.load(self.artifact("vocab"))
        triples_file = self._triples_file()
        weak = weaksup.read_triples(triples_file)
        if not weak:
            raise ConfigError(f"no training triples in {triples_file}")
        docs_by_id = {d.doc_id: d for d in docs}
        all_ids = [d.doc_id for d in docs]
        rng = np.random.default_rng(self.config.seed)
        m = self.config.negatives
        triples = []
        for t in weak:
            if t.pos_doc_id not in docs_by_id or t.neg_doc_id not in docs_by_id:
                continue
            negatives = [t.neg_doc_id]
            candidates = [d for d in all_ids if d not in (t.pos_doc_id, t.neg_doc_id)]
            while len(negatives) < m and candidates:
                pick = candidates.pop(int(rng.integers(len(candidates))))
                negatives.append(pick)
            triples.append(dense.TrainingTriple.from_texts(
                t.query, docs_by_id[t.pos_doc_id].text(),
                [docs_by_id[n].text() for n in negatives], vocab, self.config.max_seq_len))
        encoder = dense.DenseEncoder.init(len(vocab), self.config.dim, self.config.seed)
        inputs = self.input_paths("corpus") + [self.artifact("vocab"), triples_file]
        if self.config.warm_start:
            self.require_artifacts("mlm_embeddings")
            pretrained = dense.DenseEncoder.load(self.artifact("mlm_embeddings"))
            encoder = mlm.warm_start(encoder, pretrained.table)
            inputs.append(self.artifact("mlm_embeddings"))
        dev_queries = self.load_queries() if self.config.queries_path else []
        qrels = self.load_qrels() if self.config.qrels_path else None
        order = np.arange(len(triples))
        for epoch in range(self.config.dense_epochs):
            rng.shuffle(order)
            losses = []
            for start in range(0, len(order), self.config.batch_size):
                batch = [triples[i] for i in order[start : start + self.config.batch_size]]
                encoder, loss = dense.train_step(encoder, batch, self.config.dense_lr)
                losses.append(loss)
            if (epoch + 1) % self.config.eval_every_steps == 0 or epoch == self.config.dense_epochs - 1:
                message = f"[train-dense] epoch {epoch + 1} loss {np.mean(losses):.6f}"
                if dev_queries and qrels is not None:
                    index = dense.build_dense_index(encoder, docs, vocab, self.config.max_seq_len)
                    ndcg = self._dense_dev_ndcg(index, encoder, vocab, dev_queries, qrels)
                    message += f" dev-ndcg@10 {ndcg:.6f}"
                print(message)
        encoder.save(self.artifact("encoder"))
        dense_index = dense.build_dense_index(encoder, docs, vocab, self.config.max_seq_len)
        dense_index.save(self.artifact("dense_index"))
        inputs += self.input_paths("queries", "qrels")
        if self.config.queries_path:
            inputs += self.input_paths("stopwords")
        return inputs, [self.artifact("encoder"), self.artifact("dense_index")]

    def _dense_dev_ndcg(self, index, encoder, vocab, queries, qrels) -> float:
        from .evaluation import ndcg_at_k

        values = []
        for query in queries:
            ids = tokenize(" ".join(query.processed_terms), vocab, self.config.max_seq_len)
            ranking = dense.dense_search_topk(index, encoder, ids, 10, query.query_id)
            values.append(ndcg_at_k(ranking, qrels.judgments.get(query.query_id, {}), 10))
        return sum(values) / len(values) if values else 0.0

    def stage_synth_weak(self):
        self.require_artifacts("index")
        docs = self.load_docs()
        index = InvertedIndex.load(self.artifact("index"))
        triples = weaksup.synthesize_triples(
            docs, index, self.config.triples_count, self.config.seed,
            self.config.retrieval_depth, self.config.max_query_terms,
            self.stopwords(), self.config.include_stage1)
        weaksup.write_triples(triples, self.artifact("weak_triples"))
        return (self.input_paths("corpus", "stopwords") + [self.artifact("index")],
                [self.artifact("weak_triples")])

    def stage_select_train(self):
        self.require_artifacts("index", "vocab", "encoder", "dense_index")
        queries = self.load_queries()
        qrels = self.load_qrels()
        index = InvertedIndex.load(self.artifact("index"))
        vocab = SubwordVocab.load(self.artifact("vocab"))
        encoder = dense.DenseEncoder.load(self.artifact("encoder"))
        dense_index = dense.DenseIndex.load(self.artifact("dense_index"))
        triples_file = self._triples_file()
        pool = weaksup.read_triples(triples_file)
        pool = [t for t in pool
                if t.pos_doc_id in index.ordinal_of and t.neg_doc_id in index.ordinal_of]
        if not pool:
            raise ConfigError(f"no usable triples in {triples_file}")
        context = weaksup.SelectionContext(
            index, None, encoder, vocab, queries, qrels,
            depth=self.config.select_depth, stopwords=self.stopwords(),
            dense_index=dense_index, k1=self.config.k1, b=self.config.b,
            max_length=self.config.max_seq_len)
        policy = weaksup.SelectorPolicy(seed=self.config.seed)
        ranker = rerank.Ranker()
        rng = np.random.default_rng(self.config.seed + 1)
        for step in range(self.config.select_steps):
            picks = rng.choice(len(pool), size=min(self.config.select_batch, len(pool)),
                               replace=False)
            batch = [pool[int(i)] for i in picks]
            policy, ranker, reward = weaksup.reinfoselect_step(
                policy, batch, ranker, context,
                ranker_lr=self.config.ranker_lr, policy_lr=self.config.policy_lr,
                keep_all_updates=self.config.keep_all_updates)
            if (step + 1) % self.config.eval_every_steps == 0 or step == self.config.select_steps - 1:
                print(f"[select-train] step {step + 1} reward {reward:+.6f} "
                      f"dev-ndcg@10 {context.dev_ndcg(ranker):.6f}")
        ranker.save(self.artifact("ranker"))
        policy.save(self.artifact("policy"))
        inputs = (self.input_paths("queries", "qrels", "stopwords")
                  + [self.artifact(n) for n in ("index", "vocab", "encoder", "dense_index")]
                  + [triples_file])
        return inputs, [self.artifact("ranker"), self.artifact("policy")]

    def stage_rerank(self):
        self.require_artifacts("index", "ranker", "vocab", "encoder", "dense_index")
        queries = self.load_queries()
        index = InvertedIndex.load(self.artifact("index"))
        vocab = SubwordVocab.load(self.artifact("vocab"))
        encoder = dense.DenseEncoder.load(self.artifact("encoder"))
        ranker = rerank.Ranker.load(self.artifact("ranker"))
        dense_index = dense.DenseIndex.load(self.artifact("dense_index"))
        inputs = (self.input_paths("queries", "stopwords") + [self.artifact(n) for n in (
            "index", "ranker", "vocab", "encoder", "dense_index")])
        extractor = rerank.FeatureExtractor(
            index, None, encoder, vocab, dense_index,
            self.config.k1, self.config.b, self.stopwords(), self.config.max_seq_len)
        run = Run({}, self.config.run_tag)
        for query in queries:
            base = search_topk(index, query, self.config.topk, self.config.k1, self.config.b)
            query_ids = tokenize(" ".join(query.processed_terms), vocab, self.config.max_seq_len)
            if self.config.fusion == "union":
                dense_list = dense.dense_search_topk(
                    dense_index, encoder, query_ids, self.config.topk, query.query_id)
                base = rerank.fuse_base_union(base, dense_list, self.config.topk, self.config.rrf_k)
            features = {
                doc_id: extractor.features(query.processed_terms, doc_id)
                for doc_id, _ in base.entries[: self.config.depth]
            }
            reranked = rerank.rerank(ranker, base, self.config.depth, features)
            if self.config.fusion == "interp":
                qv = dense.encode(encoder, query_ids) if query_ids else np.zeros(encoder.dim)
                dense_scores = {
                    doc_id: float(np.dot(qv, dense_index.vectors[index.ordinal_of[doc_id]]))
                    for doc_id, _ in reranked.entries
                }
                reranked = rerank.fuse_interpolate(
                    query.query_id, dict(reranked.entries), dense_scores, self.config.alpha)
            elif self.config.fusion == "rrf":
                dense_list = dense.dense_search_topk(
                    dense_index, encoder, query_ids, self.config.topk, query.query_id)
                reranked = rerank.reciprocal_rank_fusion(
                    [reranked, dense_list], max(self.config.topk, len(reranked.entries)),
                    self.config.rrf_k)
            run.rankings[query.query_id] = reranked
        write_run(run, self.artifact("run"))
        return inputs, [self.artifact("run")]

    def stage_evaluate(self):
        qrels = self.load_qrels()
        inputs = self.input_paths("qrels")
        produced = []
        run_path = self.artifact("run")
        if run_path.is_file():
            run = read_run(run_path)
        elif self.artifact("index").is_file():
            # no reranked run yet: score base BM25 retrieval directly
            queries = self.load_queries()
            index = InvertedIndex.load(self.artifact("index"))
            run = Run(
                {q.query_id: search_topk(index, q, self.config.topk,
                                         self.config.k1, self.config.b)
                 for q in queries},
                self.config.run_tag,
            )
            write_run(run, run_path)
            inputs += self.input_paths("queries", "stopwords") + [self.artifact("index")]
            produced.append(run_path)
        else:
            raise DependencyError(
                f"missing artifact {ARTIFACTS['run']!r}; run the rerank stage "
                "(or build an index for base-retrieval evaluation) first"
            )
        inputs.append(run_path)
        if self.config.split_path:
            self.require_inputs("split")
            split = load_split(self.config.split_path)
            inputs += self.input_paths("split")
        else:
            split = QuerySplit.from_ids((), qrels.query_ids())
        if self.config.residual:
            if not self.config.prior_qrels_path:
                raise ConfigError("residual evaluation requires prior_qrels_path")
            self.require_inputs("prior_qrels")
            prior = read_qrels(self.config.prior_qrels_path)
            run = residual_filter(run, prior, split)
            inputs += self.input_paths("prior_qrels")
        report = old_new_report(run, qrels, split, self.config.eval_k,
                                self.config.skip_unjudgeable, self.config.gain)
        write_atomic(self.artifact("report_text"), report.to_text())
        write_atomic(self.artifact("report_jsonl"), report.to_jsonl())
        print(report.to_text())
        produced += [self.artifact("report_text"), self.artifact("report_jsonl")]
        return inputs, produced

    def stage_depth_sweep(self):
        self.require_artifacts("index", "ranker", "vocab", "encoder", "dense_index")
        queries = self.load_queries()
        qrels = self.load_qrels()
        index = InvertedIndex.load(self.artifact("index"))
        vocab = SubwordVocab.load(self.artifact("vocab"))
        encoder = dense.DenseEncoder.load(self.artifact("encoder"))
        ranker = rerank.Ranker.load(self.artifact("ranker"))
        extractor = rerank.FeatureExtractor(
            index, None, encoder, vocab, dense.DenseIndex.load(self.artifact("dense_index")),
            self.config.k1, self.config.b, self.stopwords(), self.config.max_seq_len)
        base_runs = {}
        features_by_query = {}
        for query in queries:
            base = search_topk(index, query, self.config.topk, self.config.k1, self.config.b)
            base_runs[query.query_id] = base
            features_by_query[query.query_id] = {
                doc_id: extractor.features(query.processed_terms, doc_id)
                for doc_id, _ in base.entries
            }
        table = rerank.depth_sweep(ranker, base_runs, self.config.depth_list(),
                                   qrels, features_by_query, self.config.eval_k)
        lines = [f"depth\tndcg@{self.config.eval_k}\tp@5"]
        for depth in self.config.depth_list():
            row = table[depth]
            lines.append(f"{depth}\t{row[f'ndcg@{self.config.eval_k}']:.6f}\t{row['p@5']:.6f}")
        write_atomic(self.artifact("depth_sweep"), "\n".join(lines) + "\n")
        print("\n".join(lines))
        inputs = (self.input_paths("queries", "qrels", "stopwords")
                  + [self.artifact(n) for n in ("index", "ranker", "vocab", "encoder",
                                                "dense_index")])
        return inputs, [self.artifact("depth_sweep")]

    def stage_analyze(self):
        self.require_artifacts("vocab", "index")
        docs = self.load_docs()
        queries = self.load_queries()
        qrels = self.load_qrels()
        vocab = SubwordVocab.load(self.artifact("vocab"))
        index = InvertedIndex.load(self.artifact("index"))
        report = analyze_domain_gap(self.config, docs, queries, qrels, vocab, index)
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        write_atomic(self.artifact("analysis_json"), payload)
        lines = [
            f"documents                : {report['n_documents']}",
            f"queries                  : {report['n_queries']}",
            f"judged queries           : {report['n_judged_queries']}",
            f"relevance judgments      : {report['n_judgments']}",
            f"external weak triples    : {report['n_external_weak_triples']}",
            f"subword ratio (queries)  : {report['subword_ratio_queries']:.6f}",
            f"subword ratio (corpus)   : {report['subword_ratio_corpus']:.6f}",
        ]
        if report.get("subword_ratio_reference") is not None:
            lines.append(f"subword ratio (reference): {report['subword_ratio_reference']:.6f}")
        lines.append(
            f"coverage@{self.config.coverage_k:<4}            : {report['coverage_at_k']:.6f}")
        text = "\n".join(lines) + "\n"
        write_atomic(self.artifact("analysis_text"), text)
        print(text)
        inputs = (self.input_paths("corpus", "queries", "qrels", "reference_texts", "stopwords")
                  + [self.artifact("vocab"), self.artifact("index")])
        return inputs, [self.artifact("analysis_json"), self.artifact("analysis_text")]

    STAGE_FUNCTIONS = {
        "ingest": stage_ingest,
        "index": stage_index,
        "dapt": stage_dapt,
        "train-dense": stage_train_dense,
        "synth-weak": stage_synth_weak,
        "select-train": stage_select_train,
        "rerank": stage_rerank,
        "evaluate": stage_evaluate,
        "depth-sweep": stage_depth_sweep,
        "analyze": stage_analyze,
    }


def analyze_domain_gap(config: PipelineConfig, docs, queries, qrels, vocab, index) -> dict:
    """The domain-gap measurements: subword ratios, label counts, coverage@k."""
    query_texts = [q.raw_text for q in queries]
    doc_texts = [d.text() for d in docs]
    n_external = 0
    if config.external_triples_path and Path(config.external_triples_path).is_file():
        n_external = len(weaksup.read_triples(config.external_triples_path))
    reference_ratio = None
    if config.reference_texts_path:
        reference_lines = Path(config.reference_texts_path).read_text(
            encoding="utf-8").splitlines()
        reference_ratio = subword_ratio(reference_lines, vocab)
    run = {
        q.query_id: search_topk(index, q, config.coverage_k, config.k1, config.b)
        for q in queries
    }
    coverage = coverage_at_k(run, qrels, config.coverage_k)
    return {
        "n_documents": len(docs),
        "n_queries": len(queries),
        "n_judged_queries": len(qrels.query_ids()),
        "n_judgments": sum(len(v) for v in qrels.judgments.values()),
        "n_external_weak_triples": n_external,
        "subword_ratio_queries": subword_ratio(query_texts, vocab),
        "subword_ratio_corpus": subword_ratio(doc_texts, vocab),
        "subword_ratio_reference": reference_ratio,
        "coverage_k": config.coverage_k,
        "coverage_at_k": coverage,
    }


def _lock_holder_is_dead(lock: Path) -> bool:
    """True only when the lock names a positive pid that no process has."""
    try:
        pid = int(lock.read_text(encoding="ascii"))
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        # unreadable, not a pid, or a process of another user
        return False
    return False


def run_pipeline(config: PipelineConfig, stages) -> dict[str, list[str]]:
    """Run stages in order inside a locked workdir; returns stage -> output paths."""
    config.validate()
    for stage in stages:
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    lock = workdir / ".lock"
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            # a lock left by a run that has died is removed once; a lock whose
            # holder is alive, or that names no pid, stays
            if attempt or not _lock_holder_is_dead(lock):
                raise ConfigError(f"work directory is locked by another run: {lock}")
            lock.unlink(missing_ok=True)
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    outputs: dict[str, list[str]] = {}
    runner = StageRunner(config)
    try:
        for stage in stages:
            start = time.perf_counter()
            inputs, produced = runner.STAGE_FUNCTIONS[stage](runner)
            runner.manifest_line(stage, inputs, produced, time.perf_counter() - start)
            outputs[stage] = [str(p) for p in produced]
    finally:
        lock.unlink(missing_ok=True)
    return outputs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranklab",
        description="Desk-scale search pipeline: sparse + dense retrieval, weak "
                    "supervision, reranking, TREC-style evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--workdir", help="artifact directory (default: work)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--corpus", dest="corpus_path", help="corpus jsonl file")
        p.add_argument("--queries", dest="queries_path", help="queries tsv file")
        p.add_argument("--qrels", dest="qrels_path", help="qrels file")
        p.add_argument("--stopwords", dest="stopwords_path", help="stopword list file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")

    stage_flags = {
        "ingest": [("--vocab-size", "vocab_size", int)],
        "index": [("--k1", "k1", float), ("--b", "b", float)],
        "dapt": [("--mask-rate", "mask_rate", float), ("--epochs", "mlm_epochs", int),
                 ("--lr", "mlm_lr", float), ("--dim", "dim", int)],
        "train-dense": [("--dim", "dim", int), ("--negatives", "negatives", int),
                        ("--epochs", "dense_epochs", int), ("--lr", "dense_lr", float),
                        ("--triples-file", "external_triples_path", str)],
        "synth-weak": [("--triples", "triples_count", int),
                       ("--retrieval-depth", "retrieval_depth", int),
                       ("--max-query-terms", "max_query_terms", int)],
        "select-train": [("--policy-lr", "policy_lr", float), ("--ranker-lr", "ranker_lr", float),
                         ("--steps", "select_steps", int),
                         ("--triples-file", "external_triples_path", str)],
        "rerank": [("--depth", "depth", int), ("--fusion", "fusion", str),
                   ("--alpha", "alpha", float), ("--rrf-k", "rrf_k", int),
                   ("--topk", "topk", int), ("--k1", "k1", float), ("--b", "b", float)],
        "evaluate": [("--k", "eval_k", int), ("--gain", "gain", str),
                     ("--split-file", "split_path", str),
                     ("--prior-qrels", "prior_qrels_path", str)],
        "depth-sweep": [("--depths", "depths", str), ("--topk", "topk", int)],
        "analyze": [("--coverage-k", "coverage_k", int),
                    ("--reference-texts", "reference_texts_path", str)],
    }
    bool_flags = {
        "train-dense": [("--warm-start", "warm_start")],
        "synth-weak": [("--include-stage1", "include_stage1")],
        "select-train": [("--keep-all-updates", "keep_all_updates")],
        "evaluate": [("--residual", "residual"), ("--skip-unjudgeable", "skip_unjudgeable")],
    }
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p)
        for flag, dest, kind in stage_flags.get(stage, []):
            if stage == "rerank" and flag == "--fusion":
                p.add_argument(flag, dest=dest, choices=FUSION_CHOICES)
            elif stage == "evaluate" and flag == "--gain":
                p.add_argument(flag, dest=dest, choices=("linear", "exp"))
            else:
                p.add_argument(flag, dest=dest, type=kind)
        for flag, dest in bool_flags.get(stage, []):
            p.add_argument(flag, dest=dest, action="store_const", const=True)

    p = sub.add_parser("pipeline", help="run several stages in order")
    add_common(p)
    p.add_argument("--stages", required=True,
                   help=f"comma-separated subset of: {','.join(STAGES)}")
    return parser


def _config_from_args(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    overrides = {}
    for key in vars(args):
        if key in ("command", "config", "set", "stages"):
            continue
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return config.with_overrides(overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "pipeline":
            stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        else:
            stages = [args.command]
        run_pipeline(config, stages)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
