"""Pipeline orchestration: composable stages over a shared flat config.

STAGES is the one stage order; StageRunner.STAGE_FUNCTIONS maps each name to
its stage_<name> method, and the subcommands are listed in that order. Stages
communicate only through files in the work directory, so any stage can be
replaced by an external tool that produces the same format. select-train,
rerank and depth-sweep read document vectors from dense_index.bin and terms
from index.bin through one FeatureExtractor each, stack all their queries'
candidates in one call and rescore them with the one rerank.rerank.
Every query is encoded by subword.tokenize_query. Exit codes: 0 success, 2
config or input error, 3 dependency error, 4 numeric error.

A stage opens its files through StageRunner.read (a work-directory artifact),
input (a file a config key names) and write (an artifact it produces); its
manifest line lists exactly those files, the config, its sha256 without workdir
and the package version. Stages exchange only files, but parse them through
StageRunner.load, the only code that writes its memo: within one pipeline run,
a file is parsed again only when its size, mtime or inode has changed since a
stage parsed it. index.bin alone is loaded afresh by every stage that reads it.
dapt and train-dense share the corpus as subword.tokenize_corpus encodes it,
kept the same way under the corpus file, the vocab and max_seq_len; every dense
index train-dense scores or saves pools it through dense.build_dense_index.
rerank keeps the run write_run returns for evaluate, and its candidates for
depth-sweep: the BM25 lists, fused with the dense lists under --fusion union.

Fusion runs on arrays: one dense.dense_top_k call per stage gives, as doc-id
ranks, the dense lists of union and rrf and train-dense's dev rankings;
rerank.rrf_top_k fuses them, and lists built from arrays leave as
rerank.Ranking rows, so rerank builds one RankedList per query, the run's own.

A new config key is one annotated PipelineConfig field: its default, and
through _key its flag, the subcommands that take it and its bound or choices,
from which the parsers and validate are built.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, dense, mlm, rerank, weaksup
from .checkpoint import checked, read_lines, write_atomic
from .corpus import is_token, load_corpus, load_queries, preprocess_query
from .errors import ConfigError, DependencyError, NumericError, ParseError, ToolkitError
from .evaluation import (
    GAIN_FUNCTIONS,
    QuerySplit,
    Run,
    load_split,
    mean_ndcg,
    old_new_report,
    read_qrels,
    read_run,
    residual_filter,
    write_run,
)
from .sparse import (
    DEFAULT_B, DEFAULT_K1, InvertedIndex, build_index, coverage_at_k, search_topk,
)
from .stopwords import ENGLISH_STOPWORDS, load_stopwords
from .subword import (
    DEFAULT_MAX_SEQUENCE_LENGTH, SubwordVocab, subword_ratio, tokenize_corpus, tokenize_query,
    train_subword_vocab,
)

STAGES = (
    "ingest", "index", "dapt", "synth-weak", "train-dense",
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
# the stderr prefix and exit code of the first error class that matches
ERROR_EXITS = ((ConfigError, "config error", EXIT_CONFIG), (ParseError, "input error", EXIT_CONFIG),
               (DependencyError, "dependency error", EXIT_DEPENDENCY),
               (NumericError, "numeric error", EXIT_NUMERIC), (ToolkitError, "error", 1))

COMMANDS = STAGES + ("pipeline",)

# bound -> test; validate reports a failed one as "<key> must be <bound>"
BOUNDS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
}


def _key(default, flag=None, stages=(), bound=None, choices=None, help=None):
    """A config key's default, and the CLI flag that the subcommands in
    `stages` take for it, its bound or choices and its help text."""
    return dataclasses.field(default=default, metadata={
        "flag": flag, "stages": stages, "bound": bound, "choices": choices, "help": help})


@dataclass
class PipelineConfig:
    # input paths
    corpus_path: str = _key("", "--corpus", COMMANDS, help="corpus jsonl file")
    queries_path: str = _key("", "--queries", COMMANDS, help="queries tsv file")
    qrels_path: str = _key("", "--qrels", COMMANDS, help="qrels file")
    stopwords_path: str = _key("", "--stopwords", COMMANDS, help="stopword list file")
    split_path: str = _key("", "--split-file", ("evaluate",))
    prior_qrels_path: str = _key("", "--prior-qrels", ("evaluate",))
    external_triples_path: str = _key("", "--triples-file", ("train-dense", "select-train"))
    reference_texts_path: str = _key("", "--reference-texts", ("analyze",))
    workdir: str = _key("work", "--workdir", COMMANDS, help="artifact directory (default: work)")
    run_tag: str = "ranklab"
    # subword vocabulary
    vocab_size: int = _key(2000, "--vocab-size", ("ingest",), ">= 2")
    max_seq_len: int = _key(DEFAULT_MAX_SEQUENCE_LENGTH, bound=">= 1")
    # sparse retrieval
    k1: float = _key(DEFAULT_K1, "--k1", ("rerank",), ">= 0")
    b: float = _key(DEFAULT_B, "--b", ("rerank",), "in [0, 1]")
    topk: int = _key(100, "--topk", ("rerank", "depth-sweep"), ">= 1")
    # dense retrieval
    dim: int = _key(dense.DEFAULT_DIM, "--dim", ("dapt", "train-dense"), ">= 1")
    negatives: int = _key(dense.DEFAULT_NEGATIVES, "--negatives", ("train-dense",), ">= 1")
    dense_epochs: int = _key(60, "--epochs", ("train-dense",), ">= 1")
    dense_lr: float = _key(dense.DEFAULT_LEARNING_RATE, "--lr", ("train-dense",), ">= 0")
    batch_size: int = _key(16, bound=">= 1")
    warm_start: bool = _key(False, "--warm-start", ("train-dense",))
    # masked-language pretraining
    mask_rate: float = _key(mlm.DEFAULT_MASK_RATE, "--mask-rate", ("dapt",), "in (0, 1)")
    mlm_epochs: int = _key(30, "--epochs", ("dapt",), ">= 1")
    mlm_lr: float = _key(0.5, "--lr", ("dapt",), ">= 0")
    # weak supervision
    triples_count: int = _key(50, "--triples", ("synth-weak",), ">= 1")
    retrieval_depth: int = _key(
        weaksup.DEFAULT_RETRIEVAL_DEPTH, "--retrieval-depth", ("synth-weak",), ">= 2")
    max_query_terms: int = _key(
        weaksup.DEFAULT_MAX_QUERY_TERMS, "--max-query-terms", ("synth-weak",), ">= 1")
    include_stage1: bool = _key(False, "--include-stage1", ("synth-weak",))
    select_steps: int = _key(60, "--steps", ("select-train",), ">= 1")
    select_batch: int = _key(16, bound=">= 1")
    policy_lr: float = _key(1.0, "--policy-lr", ("select-train",), ">= 0")
    ranker_lr: float = _key(0.1, "--ranker-lr", ("select-train",), ">= 0")
    keep_all_updates: bool = _key(False, "--keep-all-updates", ("select-train",))
    select_depth: int = _key(50, bound=">= 1")
    # rerank / fusion
    depth: int = _key(rerank.DEFAULT_DEPTH, "--depth", ("rerank",), ">= 1")
    fusion: str = _key("none", "--fusion", ("rerank",),
                       choices=("none", "interp", "union", "rrf"))
    alpha: float = _key(rerank.DEFAULT_ALPHA, "--alpha", ("rerank",), "in [0, 1]")
    rrf_k: int = _key(rerank.DEFAULT_RRF_K, "--rrf-k", ("rerank",), ">= 1")
    # evaluation
    eval_k: int = _key(10, "--k", ("evaluate",), ">= 1")
    gain: str = _key("linear", "--gain", ("evaluate",), choices=tuple(GAIN_FUNCTIONS))
    residual: bool = _key(False, "--residual", ("evaluate",))
    skip_unjudgeable: bool = _key(False, "--skip-unjudgeable", ("evaluate",))
    coverage_k: int = _key(100, "--coverage-k", ("analyze",), ">= 1")
    depths: str = _key("20,50,100", "--depths", ("depth-sweep",))
    # shared
    seed: int = _key(0, "--seed", COMMANDS, ">= 0", help="random seed")
    eval_every_steps: int = _key(3, bound=">= 1")

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value, bound, choices = (
                getattr(self, f.name), f.metadata.get("bound"), f.metadata.get("choices"))
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
            if bound and not BOUNDS[bound](value):
                raise ConfigError(f"{f.name} must be {bound}")
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}")
        if not is_token(self.run_tag):  # a field of every run line
            raise ConfigError("run_tag must be one token")
        try:
            depths = self.depth_list()
        except ValueError:
            depths = []
        if not depths or min(depths) < 1:
            raise ConfigError(f"bad depths list {self.depths!r}")

    def depth_list(self) -> list[int]:
        return [int(d) for d in self.depths.split(",") if d.strip()]

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Parse a flat "key = value" config file."""
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        values: dict[str, str] = {}
        for line_no, line in read_lines(path):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
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
            try:
                if isinstance(getattr(self, key), bool):
                    lowered = str(raw).lower()  # a flag's True reads "true"
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


def file_identity(path) -> tuple:
    """(path, size, mtime, inode): a rewrite, in place or by rename, changes it."""
    st = os.stat(path)
    return (Path(path), st.st_size, st.st_mtime_ns, st.st_ino)


class StageRunner:
    """Executes stages in a locked work directory and appends manifest lines."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.workdir = Path(config.workdir)
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.digests: dict[tuple, str] = {}
        self.parsed: dict[tuple, tuple] = {}  # (path, parse) -> ((identity, args), result)

    # -- plumbing -----------------------------------------------------------

    def artifact(self, name: str) -> Path:
        return self.workdir / ARTIFACTS[name]

    def read(self, name: str, hint: str = "run the stage that produces it first") -> Path:
        """The path of an existing work-directory artifact, recorded as an input."""
        path = self.artifact(name)
        if not path.is_file():
            raise DependencyError(f"missing artifact {ARTIFACTS[name]!r}; {hint}")
        self.inputs.append(path)
        return path

    def input(self, key: str) -> str:
        """The existing file that config key <key>_path names, recorded as an input."""
        value = getattr(self.config, f"{key}_path")
        if not value:
            raise ConfigError(f"config key {key}_path is required for this stage")
        if not Path(value).is_file():
            raise ConfigError(f"{key} file not found: {value}")
        self.inputs.append(Path(value))
        return value

    def write(self, name: str) -> Path:
        """The path of a work-directory artifact, recorded as an output."""
        path = self.artifact(name)
        self.outputs.append(path)
        return path

    def sha256(self, path: Path) -> str:
        """The file's sha256, hashed again only when its identity changes."""
        key = file_identity(path)
        if key not in self.digests:
            self.digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        return self.digests[key]

    def load(self, path, parse, *args, make=None):
        """parse(path, *args) or make(), done again only when the file's identity or args change."""
        key, identity = (Path(path), parse), (file_identity(path), args)
        if key not in self.parsed or self.parsed[key][0] != identity:
            self.parsed[key] = (identity, make() if make else parse(path, *args))
        return self.parsed[key][1]

    def run(self, stage: str) -> list[Path]:
        """Run one stage and append its manifest line; returns its outputs.

        wall_time_s times the stage function alone, not the hashing."""
        self.inputs, self.outputs = [], []
        start = time.perf_counter()
        self.STAGE_FUNCTIONS[stage](self)
        wall = time.perf_counter() - start
        config = dataclasses.asdict(self.config)
        snapshot = json.dumps({k: v for k, v in config.items() if k != "workdir"}, sort_keys=True)
        line = {
            "stage": stage,
            "inputs": {str(p): self.sha256(p) for p in self.inputs},
            "outputs": {str(p): self.sha256(p) for p in self.outputs},
            "seed": self.config.seed,
            "wall_time_s": round(wall, 6),
            "config": config,
            "config_sha256": hashlib.sha256(snapshot.encode()).hexdigest(),
            "version": __version__,
        }
        with open(self.workdir / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        return self.outputs

    def stopwords(self):
        if not self.config.stopwords_path:
            return ENGLISH_STOPWORDS
        return self.load(self.input("stopwords"), load_stopwords)

    def load_docs(self):
        return self.load(self.input("corpus"), load_corpus)

    def load_queries(self):
        return self.load(self.input("queries"), load_queries, self.stopwords())

    def load_qrels(self, key: str = "qrels"):
        return self.load(self.input(key), read_qrels)

    def tokenized_corpus(self) -> tuple[SubwordVocab, dict[str, tuple[int, ...]]]:
        """The vocab, and doc id -> piece ids of each document in corpus order."""
        vocab = self.load(self.read("vocab"), SubwordVocab.load)
        return vocab, self.load(self.input("corpus"), self._tokenize, vocab, self.config.max_seq_len)

    def _tokenize(self, path, vocab, max_len):
        return tokenize_corpus(self.load(path, load_corpus), vocab, max_len)

    # -- stages -------------------------------------------------------------

    def stage_ingest(self):
        docs = self.load_docs()
        self.load_queries()
        self.load_qrels()
        vocab = train_subword_vocab([d.text() for d in docs], self.config.vocab_size)
        vocab.save(self.write("vocab"))

    def stage_index(self):
        docs = self.load_docs()
        index = build_index(docs)
        index.save(self.write("index"))

    def stage_dapt(self):
        vocab, pieces = self.tokenized_corpus()
        lengths, ids = dense.flatten([s for s in pieces.values() if s])
        if not len(lengths):
            raise ConfigError(f"no document in {self.config.corpus_path} has a piece to mask")
        model = mlm.MlmModel.init(len(vocab), self.config.dim, self.config.seed)
        rng = np.random.default_rng(self.config.seed)
        for epoch in range(self.config.mlm_epochs):
            batch = mlm.make_masked_batch(ids, vocab.mask_id, self.config.mask_rate, rng, lengths)
            model, loss = mlm.mlm_train_step(model, batch, self.config.mlm_lr)
            if (epoch + 1) % self.config.eval_every_steps == 0 or epoch == self.config.mlm_epochs - 1:
                print(f"[dapt] epoch {epoch + 1} loss {loss:.6f}")
        model.save_embeddings(self.write("mlm_embeddings"))

    def _triples_file(self) -> Path:
        if self.config.external_triples_path:
            return Path(self.input("external_triples"))
        return self.read("weak_triples", "run synth-weak or set external_triples_path")

    def stage_train_dense(self):
        vocab, pieces = self.tokenized_corpus()
        triples_file = self._triples_file()
        weak = self.load(triples_file, weaksup.read_triples)
        rng = np.random.default_rng(self.config.seed)
        triples = training_triples(weak, pieces, vocab, self.config, rng, self.stopwords())
        if not triples:
            raise ConfigError(f"no usable triples in {triples_file}")
        encoder = dense.DenseEncoder.init(len(vocab), self.config.dim, self.config.seed)
        if self.config.warm_start:
            path = self.read("mlm_embeddings")
            table = self.load(path, dense.DenseEncoder.load).table
            encoder = checked(path, mlm.warm_start, encoder, table)
        dev_queries = self.load_queries() if self.config.queries_path else []
        qrels = self.load_qrels() if self.config.qrels_path else None
        dev = {q.query_id: tokenize_query(q.processed_terms, vocab, self.config.max_seq_len)
               for q in dev_queries} if qrels is not None else {}
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
                if dev:
                    index = dense.build_dense_index(encoder, pieces)
                    ranks, scores = dense.dense_top_k(index, encoder, dev.values(), 10)
                    rankings = rerank.Ranking(list(dev), index.by_rank[ranks], ranks, scores)
                    message += f" dev-ndcg@10 {mean_ndcg(rankings, qrels, 10):.6f}"
                print(message)
        encoder.save(self.write("encoder"))
        if not dev:  # else the final epoch's evaluation built it from this encoder
            index = dense.build_dense_index(encoder, pieces)
        index.save(self.write("dense_index"))

    def stage_synth_weak(self):
        index = InvertedIndex.load(self.read("index"))
        docs = self.load_docs()
        triples = weaksup.synthesize_triples(
            docs, index, self.config.triples_count, self.config.seed,
            self.config.retrieval_depth, self.config.max_query_terms,
            self.stopwords(), self.config.include_stage1, k1=self.config.k1, b=self.config.b)
        weaksup.write_triples(triples, self.write("weak_triples"))

    def _feature_extractor(self):
        """A FeatureExtractor at this config over index.bin, vocab, encoder and dense index."""
        return rerank.FeatureExtractor(
            InvertedIndex.load(self.read("index")),
            self.load(self.read("encoder"), dense.DenseEncoder.load),
            self.load(self.read("vocab"), SubwordVocab.load),
            self.load(self.read("dense_index"), dense.DenseIndex.load),
            self.config.k1, self.config.b, self.stopwords(), self.config.max_seq_len)

    def _dense_ranks(self, extractor, queries) -> np.ndarray:
        """Each query's dense top-k as doc-id ranks, in query order: the second
        list of union and rrf fusion."""
        return dense.dense_top_k(extractor.dense_index, extractor.encoder, [
            tokenize_query(q.processed_terms, extractor.vocab, self.config.max_seq_len)
            for q in queries], self.config.topk)[0]

    def _candidates(self, extractor):
        """extractor.candidates at topk, union-fused with the dense top-k under
        --fusion union, kept under every file the stage has read and its settings."""
        queries, c = self.load_queries(), self.config
        union = c.rrf_k if c.fusion == "union" else None

        def make():
            if union is None:
                return extractor.candidates(queries, c.topk)
            dense_ranks = self._dense_ranks(extractor, queries)
            return extractor.candidates(queries, c.topk, lambda i, ranks: rerank.rrf_top_k(
                (ranks, dense_ranks[i]), c.topk, union)[0])
        return self.load(self.input("queries"), rerank.FeatureExtractor.candidates,
                         frozenset(map(file_identity, self.inputs)), c.k1, c.b, c.max_seq_len,
                         c.topk, union, make=make)

    def stage_select_train(self):
        extractor = self._feature_extractor()
        queries = self.load_queries()
        qrels = self.load_qrels()
        triples_file = self._triples_file()
        ordinal_of = extractor.index.ordinal_of
        pool = [t for t in self.load(triples_file, weaksup.read_triples)
                if t.pos_doc_id in ordinal_of and t.neg_doc_id in ordinal_of]
        if not pool:
            raise ConfigError(f"no usable triples in {triples_file}")
        context = weaksup.SelectionContext(extractor, queries, qrels, self.config.select_depth)
        rng = np.random.default_rng(self.config.seed + 1)
        size = min(self.config.select_batch, len(pool))
        picks = np.array([rng.choice(len(pool), size=size, replace=False)
                          for _ in range(self.config.select_steps)])
        # each distinct drawn triple is featurized once; the inverse's shape
        # differs across numpy 2.0.x releases, so it is reshaped to the draws'
        drawn, inverse = np.unique(picks, return_inverse=True)
        rows = weaksup.pair_features(extractor, [pool[i] for i in drawn.tolist()])
        policy = weaksup.SelectorPolicy(seed=self.config.seed)
        ranker = rerank.Ranker()
        for step, batch in enumerate(inverse.reshape(picks.shape)):
            policy, ranker, reward = weaksup.reinfoselect_step(
                policy, rows[batch], ranker, context,
                ranker_lr=self.config.ranker_lr, policy_lr=self.config.policy_lr,
                keep_all_updates=self.config.keep_all_updates)
            if (step + 1) % self.config.eval_every_steps == 0 or step == self.config.select_steps - 1:
                print(f"[select-train] step {step + 1} reward {reward:+.6f} "
                      f"dev-ndcg@10 {context.dev_ndcg(ranker):.6f}")
        ranker.save(self.write("ranker"))
        policy.save(self.write("policy"))

    def stage_rerank(self):
        extractor = self._feature_extractor()
        ranker = self.load(self.read("ranker"), rerank.Ranker.load)
        candidates = self._candidates(extractor)
        rankings = ranking = rerank.rerank(ranker, candidates, self.config.depth)
        if self.config.fusion == "interp":  # the dense score is feature column 1
            rankings = [rerank.fuse_interpolate(
                query_id, dict(zip(ranking.doc_ids[i].tolist(), ranking.scores[i].tolist())),
                dict(zip(candidates.doc_ids[i].tolist(), candidates.features[i, :, 1])),
                self.config.alpha) for i, query_id in enumerate(ranking.query_ids)]
        elif self.config.fusion == "rrf":  # each fused list is as long as its reranked one
            ranks, scores = np.empty_like(ranking.ranks), np.empty_like(ranking.scores)
            for i, dense_row in enumerate(self._dense_ranks(extractor, self.load_queries())):
                ranks[i], scores[i] = rerank.rrf_top_k(
                    (ranking.ranks[i], dense_row), self.config.topk, self.config.rrf_k)
            rankings = rerank.Ranking(ranking.query_ids, extractor.dense_index.by_rank[ranks], ranks, scores)
        written = write_run(Run(dict(zip(ranking.query_ids, rankings)), self.config.run_tag),
                            path := self.write("run"))
        self.load(path, read_run, make=lambda: written)  # evaluate scores it as read_run parses it

    def stage_evaluate(self):
        qrels = self.load_qrels()
        if self.config.gain == "exp":  # from grade 1024 on, 2**g - 1 overflows a float
            top = max((g for entry in qrels.judgments.values() for g in entry.values()), default=0)
            if top >= 1024:
                raise ConfigError(f"{self.config.qrels_path}: grade {top} is too large for --gain exp")
        if not self.artifact("run").is_file() and self.artifact("index").is_file():
            # no reranked run yet: score base BM25 retrieval directly
            queries = self.load_queries()
            index = InvertedIndex.load(self.read("index"))
            run = write_run(Run(
                {q.query_id: search_topk(index, q, self.config.topk,
                                         self.config.k1, self.config.b)
                 for q in queries},
                self.config.run_tag,
            ), self.write("run"))
        else:
            run = self.load(self.read("run", "run the rerank stage (or build an index for "
                                             "base-retrieval evaluation) first"), read_run)
        if self.config.split_path:
            split = load_split(path := self.input("split"))
            listed = split.old_query_ids | split.new_query_ids
            uncovered = [q for q in qrels.query_ids() if q not in listed]
            if uncovered:
                raise ConfigError(f"split file {path} does not cover judged queries {uncovered}")
        else:
            split = QuerySplit.from_ids((), qrels.query_ids())
        if self.config.residual:
            if not self.config.prior_qrels_path:
                raise ConfigError("residual evaluation requires prior_qrels_path")
            run = residual_filter(run, self.load_qrels("prior_qrels"), split)
        report = old_new_report(run, qrels, split, self.config.eval_k,
                                self.config.skip_unjudgeable, self.config.gain)
        write_atomic(self.write("report_text"), report.to_text())
        write_atomic(self.write("report_jsonl"), report.to_jsonl())
        print(report.to_text())

    def stage_depth_sweep(self):
        extractor = self._feature_extractor()
        ranker = self.load(self.read("ranker"), rerank.Ranker.load)
        candidates = self._candidates(extractor)
        table = rerank.depth_sweep(ranker, candidates, self.config.depth_list(),
                                   self.load_qrels(), self.config.eval_k)
        lines = [f"depth\tndcg@{self.config.eval_k}\tp@5"]
        for depth in self.config.depth_list():
            row = table[depth]
            lines.append(f"{depth}\t{row[f'ndcg@{self.config.eval_k}']:.6f}\t{row['p@5']:.6f}")
        write_atomic(self.write("depth_sweep"), "\n".join(lines) + "\n")
        print("\n".join(lines))

    def stage_analyze(self):
        vocab = self.load(self.read("vocab"), SubwordVocab.load)
        index = InvertedIndex.load(self.read("index"))
        docs = self.load_docs()
        queries = self.load_queries()
        qrels = self.load_qrels()
        n_external = 0
        if self.config.external_triples_path:
            n_external = len(self.load(self.input("external_triples"), weaksup.read_triples))
        reference = None
        if self.config.reference_texts_path:
            reference = [line for _, line in read_lines(self.input("reference_texts"))]
        report = analyze_domain_gap(self.config, docs, queries, qrels, vocab, index,
                                    n_external, reference)
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        write_atomic(self.write("analysis_json"), payload)
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
        write_atomic(self.write("analysis_text"), text)
        print(text)


# stage name -> StageRunner method, in STAGES order; run() looks each stage up here,
# so a tracer can rebind an entry
StageRunner.STAGE_FUNCTIONS = {s: getattr(StageRunner, f"stage_{s.replace('-', '_')}") for s in STAGES}


def training_triples(weak, pieces: dict, vocab, config: PipelineConfig, rng, stopwords) -> list:
    """A dense.TrainingTriple per weak triple whose documents are in `pieces` (doc id
    -> piece ids) and differ, plus up to config.negatives - 1 drawn from the documents
    unlike the positive: a draw's index steps past each sorted ordinal not allowed.
    The query is tokenized from its processed terms, as the ranking stages read it."""
    seqs, ordinal, alike = list(pieces.values()), {d: i for i, d in enumerate(pieces)}, {}
    for i, seq in enumerate(seqs):
        alike.setdefault(seq, []).append(i)
    triples = []
    for t in weak:
        positive, negative = pieces.get(t.pos_doc_id), pieces.get(t.neg_doc_id)
        if positive is None or negative is None or negative == positive:
            continue  # a document alike to the positive cannot be told apart from it
        drawn = [ordinal[t.neg_doc_id]]
        removed = sorted([*drawn, *alike[positive]])
        while len(drawn) < config.negatives and len(removed) < len(seqs):
            pick = int(rng.integers(len(seqs) - len(removed)))
            for r in removed:
                pick += r <= pick
            drawn.append(pick)
            bisect.insort(removed, pick)
        triples.append(dense.TrainingTriple(
            tuple(tokenize_query(preprocess_query(t.query, stopwords), vocab, config.max_seq_len)),
            positive, tuple(seqs[i] for i in drawn)))
    return triples


def analyze_domain_gap(config: PipelineConfig, docs, queries, qrels, vocab, index,
                       n_external: int = 0, reference_lines=None) -> dict:
    """The domain-gap measurements: subword ratios, label counts, coverage@k."""
    run = {q.query_id: search_topk(index, q, config.coverage_k, config.k1, config.b)
           for q in queries}
    return {
        "n_documents": len(docs),
        "n_queries": len(queries),
        "n_judged_queries": len(qrels.query_ids()),
        "n_judgments": sum(len(v) for v in qrels.judgments.values()),
        "n_external_weak_triples": n_external,
        "subword_ratio_queries": subword_ratio([q.raw_text for q in queries], vocab),
        "subword_ratio_corpus": subword_ratio([d.text() for d in docs], vocab),
        "subword_ratio_reference":
            None if reference_lines is None else subword_ratio(reference_lines, vocab),
        "coverage_k": config.coverage_k,
        "coverage_at_k": coverage_at_k(run, qrels, config.coverage_k),
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
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the path, or a directory above it, is a file
        raise ConfigError(f"cannot make work directory {workdir}: {exc.strerror}") from exc
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
            outputs[stage] = [str(p) for p in runner.run(stage)]
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
    commands = {s: sub.add_parser(s, help=f"run the {s} stage") for s in STAGES}
    commands["pipeline"] = sub.add_parser("pipeline", help="run several stages in order")
    for p in commands.values():
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key")
    for f in dataclasses.fields(PipelineConfig):
        for command in f.metadata.get("stages", ()):
            if isinstance(f.default, bool):
                kind = {"action": "store_const", "const": True}
            elif f.metadata["choices"]:
                kind = {"choices": f.metadata["choices"]}
            else:
                kind = {"type": type(f.default)}
            commands[command].add_argument(
                f.metadata["flag"], dest=f.name, help=f.metadata["help"], **kind)
    commands["pipeline"].add_argument(
        "--stages", required=True, help=f"comma-separated subset of: {','.join(STAGES)}")
    return parser


def _config_from_args(args) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    # an unset flag is None, which with_overrides skips
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config", "set", "stages")}
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
        # full collections then skip the objects imports made, which the run never frees
        gc.freeze()
        try:
            run_pipeline(config, stages)
        finally:
            gc.unfreeze()
        return EXIT_OK
    except ToolkitError as exc:
        prefix, code = next((p, c) for kind, p, c in ERROR_EXITS if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
