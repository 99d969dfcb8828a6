"""Pipeline orchestration: composable stages over a shared flat config.

STAGES is the one stage order; StageRunner.STAGE_FUNCTIONS maps each name to its
stage_<name> method, and the subcommands are listed in that order. Stages
communicate only through files in the work directory, so any stage can be
replaced by an external tool that produces the same format. select-train, rerank
and depth-sweep read document vectors from dense_index.bin and terms from
index.bin through one FeatureExtractor each, stack all their queries' candidates
in one call and rescore them with the one rerank.rerank. Every query is encoded
by subword.tokenize_query. Both training stages, train-dense and select-train,
read weak triples through _usable_triples and score dev rankings by NDCG at
evaluation.DEV_K, the one dev cut-off. analyze renders analysis.txt from the
record it writes to analysis.json, evaluate report.txt from report.jsonl's.
Exit codes: 0 success, 2 config or input error, 3 dependency error, 4 numeric
error. A run locks the work directory; two runners that find one dead-pid lock
at once can both run (accepted).

A stage opens its files through StageRunner.read (a work-directory artifact),
input (a file a config key names) and write (an artifact it produces); its
manifest line lists exactly those files, the config, its sha256 without workdir
and the package version. Stages exchange only files, but parse them through
StageRunner.load, the only code that writes its memo: within one pipeline run,
a file is parsed again only when its size, mtime or inode has changed since a
stage parsed it. index.bin alone is loaded afresh by every stage that reads it;
its lookup tables are built when first read, so a stage whose lists are held
builds none. The memo holds two kinds of entry: a file parsed by its reader, and
a value built by make, either derived under the StageRunner method that owns it
(corpus_terms, tokenized_corpus, _candidates, _dense_ranks, _lists, _ranking;
keyed also by the files and settings they use) or kept after a write under its file's
reader (vocab, encoder, dense index, run), so later stages do not parse it.
train-dense pools every dense index by build_dense_index. A query's lists are
built once per run, as deep as a stage reads them, by the first that needs
them: select-train the BM25 candidates at max(select_depth, topk), train-dense
under union and rrf the dense ranks at max(DEV_K, topk), from its last dev
dense_top_k. A reader takes its own depth's prefix, the list built at that
depth. One ranking rule and one scoring rule:
StageRunner._ranking reranks every query's list to a depth and fuses it as
--fusion says, union in the candidates (the BM25 lists fused with the dense
lists), interp in rerank.rerank's block score with --alpha, rrf on each reranked
list and its dense list; _report scores a run's doc-id lists as evaluate does.
rerank writes _ranking, evaluate _report, and depth-sweep _report of _ranking's
doc-id rows at each depth, reading at the rerank depth the ranking rerank held,
so its row there is evaluate's. Fusion runs on arrays: one dense.dense_top_k
call gives a run's dense lists as doc-id ranks, for union, rrf and
train-dense's dev rankings; rerank.rrf_top_k fuses them; lists built from
arrays leave as rerank.Ranking rows. mean_ndcg and depth-sweep score those rows
as they are, depth-sweep after one Ranking.check of each ranking, and rerank
alone turns a Ranking into RankedLists, one per query, for the run it writes.

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
from .corpus import corpus_terms, is_token, load_corpus, load_queries, preprocess_query
from .errors import ConfigError, DependencyError, NumericError, ParseError, ToolkitError
from .evaluation import (
    DEV_K,
    GAIN_FUNCTIONS,
    QuerySplit,
    Run,
    doc_ids_report,
    load_split,
    mean_ndcg,
    read_qrels,
    read_run,
    write_run,
)
from .sparse import (
    DEFAULT_B, DEFAULT_K1, InvertedIndex, build_index, coverage_at_k, search_topk,
)
from .stopwords import ENGLISH_STOPWORDS, load_stopwords
from .subword import (
    DEFAULT_MAX_SEQUENCE_LENGTH, SubwordVocab, TokenizedCorpus, subword_ratio, tokenize_corpus,
    tokenize_query, train_subword_vocab,
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

# analysis.txt renders the analysis.json record: a line per (label, key, value format) whose
# value is not None, the label formatted from the record and padded to 25 columns
ANALYSIS_LINES = (
    ("documents", "n_documents", ""), ("queries", "n_queries", ""),
    ("judged queries", "n_judged_queries", ""), ("relevance judgments", "n_judgments", ""),
    ("external weak triples", "n_external_weak_triples", ""),
    *((f"subword ratio ({of})", f"subword_ratio_{of}", ".6f") for of in ("queries", "corpus", "reference")),
    ("coverage@{coverage_k}", "coverage_at_k", ".6f"))

# bound -> test; validate reports a failed one as "<key> must be <bound>"
BOUNDS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in [1, 2**63 - 1]": lambda v: 1 <= v < 2**63,  # a length or width that numpy holds as an int64
    "one token": is_token,  # run_tag is a field of every run line
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
    run_tag: str = _key("ranklab", bound="one token")
    # subword vocabulary
    vocab_size: int = _key(2000, "--vocab-size", ("ingest",), ">= 2")
    max_seq_len: int = _key(DEFAULT_MAX_SEQUENCE_LENGTH, bound="in [1, 2**63 - 1]")
    # sparse retrieval
    k1: float = _key(DEFAULT_K1, "--k1", ("rerank",), ">= 0")
    b: float = _key(DEFAULT_B, "--b", ("rerank",), "in [0, 1]")
    topk: int = _key(100, "--topk", ("rerank", "depth-sweep"), ">= 1")
    # dense retrieval
    dim: int = _key(dense.DEFAULT_DIM, "--dim", ("dapt", "train-dense"), "in [1, 2**63 - 1]")
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
                else:  # as _build_parser types each flag
                    updates[key] = type(getattr(self, key))(raw)
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

    def indexed_docs(self):
        """index.bin and the corpus, checked to hold the same documents in the same order."""
        index, docs = InvertedIndex.load(self.read("index")), self.load_docs()
        if index.doc_ids != [d.doc_id for d in docs]:
            raise DependencyError(f"stale artifact: index.bin holds other documents than "
                                  f"{self.config.corpus_path}; rerun index")
        return index, docs

    def corpus_terms(self):
        return self.load(self.input("corpus"), StageRunner.corpus_terms,
                         make=lambda: corpus_terms(self.load_docs()))

    def tokenized_corpus(self) -> tuple[SubwordVocab, TokenizedCorpus]:
        """The vocab, and the flat piece ids of each document in corpus order."""
        vocab, max_len = self.load(self.read("vocab"), SubwordVocab.load), self.config.max_seq_len
        return vocab, self.load(self.input("corpus"), StageRunner.tokenized_corpus, vocab, max_len, make=(
            lambda: tokenize_corpus(self.load_docs(), vocab, max_len, self.corpus_terms())))

    # -- stages -------------------------------------------------------------

    def stage_ingest(self):
        view = self.corpus_terms()
        self.load_queries()
        self.load_qrels()
        vocab = train_subword_vocab(view, self.config.vocab_size)
        vocab.save(path := self.write("vocab"))
        self.load(path, SubwordVocab.load, make=lambda: vocab)  # later stages tokenize with it

    def stage_index(self):
        build_index(self.load_docs(), self.corpus_terms()).save(self.write("index"))

    def stage_dapt(self):
        vocab, pieces = self.tokenized_corpus()
        lengths = pieces.lengths[pieces.lengths > 0]  # an empty document adds no id
        if not len(lengths):
            raise ConfigError(f"no document in {self.config.corpus_path} has a piece to mask")
        model = mlm.MlmModel.init(len(vocab), self.config.dim, self.config.seed)
        rng = np.random.default_rng(self.config.seed)
        for epoch in range(self.config.mlm_epochs):
            batch = mlm.make_masked_batch(pieces.ids, vocab.mask_id, self.config.mask_rate, rng, lengths)
            model, loss = mlm.mlm_train_step(model, batch, self.config.mlm_lr)
            if (epoch + 1) % self.config.eval_every_steps == 0 or epoch == self.config.mlm_epochs - 1:
                print(f"[dapt] epoch {epoch + 1} loss {loss:.6f}")
        model.save_embeddings(self.write("mlm_embeddings"))

    def _usable_triples(self, usable, held) -> list:
        """usable(weak triples of --triples-file, else of weak_triples.jsonl), if it keeps any;
        a weak_triples.jsonl that names none of the documents in `held` is stale."""
        external = self.config.external_triples_path
        path = (self.input("external_triples") if external
                else self.read("weak_triples", "run synth-weak or set external_triples_path"))
        weak = self.load(path, weaksup.read_triples)
        if weak and not external and not any(t.pos_doc_id in held or t.neg_doc_id in held for t in weak):
            raise DependencyError(f"stale artifact {path.name}: built from other documents; rerun synth-weak")
        if not (triples := usable(weak)):
            raise ConfigError(f"no usable triples in {path}")
        return triples

    def stage_train_dense(self):
        vocab, pieces = self.tokenized_corpus()
        rng = np.random.default_rng(self.config.seed)
        triples = self._usable_triples(lambda weak: training_triples(
            weak, pieces, vocab, self.config, rng, self.stopwords()), pieces.ordinal)
        encoder = dense.DenseEncoder.init(len(vocab), self.config.dim, self.config.seed)
        if self.config.warm_start:
            path = self.read("mlm_embeddings")
            table = self.load(path, dense.DenseEncoder.load).table
            encoder = checked(path, mlm.warm_start, encoder, table)
        dev_queries = self.load_queries() if self.config.queries_path else []
        qrels = self.load_qrels() if self.config.qrels_path else None
        dev = {q.query_id: tokenize_query(q.processed_terms, vocab, self.config.max_seq_len)
               for q in dev_queries} if qrels is not None else {}
        # under union and rrf the last dev ranks are rerank's dense lists, so they run as deep as it reads
        last = self.config.dense_epochs - 1 if self.config.fusion in ("union", "rrf") else -1
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
                    k = max(DEV_K, self.config.topk) if epoch == last else DEV_K
                    ranks, scores = dense.dense_top_k(index, encoder, dev.values(), k)
                    rankings = rerank.Ranking(list(dev), index.by_rank[ranks], ranks, scores)
                    message += f" dev-ndcg@{DEV_K} {mean_ndcg(rankings, qrels, DEV_K):.6f}"
                print(message)
        if not dev:  # else the final epoch's evaluation built it from this encoder
            index = dense.build_dense_index(encoder, pieces)
        encoder.save(path := self.write("encoder"))
        self.load(path, dense.DenseEncoder.load, make=lambda: encoder)  # later stages read it unparsed
        index.save(path := self.write("dense_index"))
        self.load(path, dense.DenseIndex.load, make=lambda: index)
        if dev and last >= 0:
            self._dense_ranks(lambda k: ranks)

    def stage_synth_weak(self):
        index, docs = self.indexed_docs()
        triples = weaksup.synthesize_triples(
            docs, index, self.config.triples_count, self.config.seed,
            self.config.retrieval_depth, self.config.max_query_terms,
            self.stopwords(), self.config.include_stage1, k1=self.config.k1, b=self.config.b,
            view=self.corpus_terms())
        weaksup.write_triples(triples, self.write("weak_triples"))

    def _feature_extractor(self):
        """A FeatureExtractor at this config over index.bin, vocab, encoder and dense index."""
        return rerank.FeatureExtractor(
            InvertedIndex.load(self.read("index")),
            self.load(self.read("encoder"), dense.DenseEncoder.load),
            self.load(self.read("vocab"), SubwordVocab.load),
            self.load(self.read("dense_index"), dense.DenseIndex.load),
            self.config.k1, self.config.b, self.stopwords(), self.config.max_seq_len)

    def _held(self, tag, make, depth: int, *settings):
        """make(depth), held under the queries file, depth, what dense ranks are built from and `settings`."""
        files = map(self.artifact, ("encoder", "vocab", "dense_index"))
        return self.load(self.input("queries"), tag, depth, *map(file_identity, files), self.stopwords(),
                         self.config.max_seq_len, *settings, make=lambda: make(depth))

    def _candidates(self, extractor, depth: int) -> rerank.Candidates:
        """extractor.candidates of the run's queries at `depth`: the first columns of those held at
        max(select_depth, topk)."""
        c = self.config
        h = self._held(StageRunner._candidates, lambda k: extractor.candidates(self.load_queries(), k),
                       max(c.select_depth, c.topk), file_identity(self.artifact("index")), c.k1, c.b)
        return rerank.Candidates(h.query_ids, *(a[:, :depth] for a in (h.doc_ids, h.ranks, h.features)))

    def _dense_ranks(self, make) -> np.ndarray:
        """make(k): the run's queries' dense top-k doc-id ranks at k = max(DEV_K, topk)."""
        return self._held(StageRunner._dense_ranks, make, max(DEV_K, self.config.topk))

    def _lists(self, extractor) -> tuple:
        """(candidates, dense ranks) at topk: the held lists' prefixes, dense ranks under union and
        rrf only, and under union the BM25 lists union-fused with them, held by the candidates' key and rrf_k."""
        queries, c = self.load_queries(), self.config
        dense_ranks = None if c.fusion not in ("union", "rrf") else self._dense_ranks(lambda k: dense.dense_top_k(
            extractor.dense_index, extractor.encoder, [tokenize_query(
                q.processed_terms, extractor.vocab, c.max_seq_len) for q in queries], k)[0])[:, :c.topk]
        if c.fusion != "union":
            return self._candidates(extractor, c.topk), dense_ranks
        return self._held(StageRunner._lists, lambda k: (extractor.candidates(queries, k, lambda i, ranks: (
            rerank.rrf_top_k((ranks, dense_ranks[i]), k, c.rrf_k)[0])), dense_ranks),
            c.topk, file_identity(self.artifact("index")), c.k1, c.b, c.rrf_k)

    def _ranking(self, extractor, ranker, depth: int, hold: bool = True) -> rerank.Ranking:
        """Every query's list with its top `depth` reranked by `ranker` and fused
        as --fusion says: union in the candidates, interp in the block score,
        rrf of each reranked list with the query's dense list. The ranking at
        --depth is held under the _lists key, fusion, alpha, rrf_k, topk and
        ranker.ckpt, so depth-sweep's row at that depth reads rerank's."""
        c = self.config
        if hold and depth == c.depth:
            return self._held(StageRunner._ranking, lambda d: self._ranking(extractor, ranker, d, False), depth,
                              file_identity(self.artifact("index")), c.k1, c.b, c.fusion, c.alpha, c.rrf_k,
                              c.topk, file_identity(self.artifact("ranker")))
        candidates, dense_ranks = self._lists(extractor)
        ranking = rerank.rerank(ranker, candidates, depth, c.alpha if c.fusion == "interp" else None)
        if c.fusion == "rrf":  # each fused list is as long as its reranked one
            ranks, scores = np.empty_like(ranking.ranks), np.empty_like(ranking.scores)
            for i, dense_row in enumerate(dense_ranks):
                ranks[i], scores[i] = rerank.rrf_top_k((ranking.ranks[i], dense_row), c.topk, c.rrf_k)
            ranking = rerank.Ranking(ranking.query_ids, extractor.dense_index.by_rank[ranks], ranks, scores)
        return ranking

    def _report(self, lists):
        """The run whose query ids `lists` maps to their doc ids in rank order, scored
        over the judged queries at eval_k with --gain, old and new as the split file
        says, and residual and skip_unjudgeable applied."""
        c, qrels = self.config, self.load_qrels()
        if c.gain == "exp":  # from grade 1024 on, 2**g - 1 overflows a float
            top = max((g for entry in qrels.judgments.values() for g in entry.values()), default=0)
            if top >= 1024:
                raise ConfigError(f"{c.qrels_path}: grade {top} is too large for --gain exp")
        if c.split_path:
            split = self.load(path := self.input("split"), load_split)
            listed = split.old_query_ids | split.new_query_ids
            uncovered = [q for q in qrels.query_ids() if q not in listed]
            if uncovered:
                raise ConfigError(f"split file {path} does not cover judged queries {uncovered}")
        else:
            split = QuerySplit.from_ids((), qrels.query_ids())
        if c.residual and not c.prior_qrels_path:
            raise ConfigError("residual evaluation requires prior_qrels_path")
        prior = self.load_qrels("prior_qrels") if c.residual else None
        return doc_ids_report(lists, qrels, split, c.eval_k, c.skip_unjudgeable, c.gain, prior)

    def stage_select_train(self):
        extractor = self._feature_extractor()
        queries, qrels = self.load_queries(), self.load_qrels()
        ordinal_of = extractor.index.ordinal_of
        pool = self._usable_triples(lambda weak: [
            t for t in weak if t.pos_doc_id in ordinal_of and t.neg_doc_id in ordinal_of], ordinal_of)
        depth = self.config.select_depth
        context = weaksup.SelectionContext(extractor, queries, qrels, depth, self._candidates(extractor, depth))
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
                      f"dev-ndcg@{DEV_K} {context.dev_ndcg(ranker):.6f}")
        ranker.save(self.write("ranker"))
        policy.save(self.write("policy"))

    def stage_rerank(self):
        extractor = self._feature_extractor()
        ranker = self.load(self.read("ranker"), rerank.Ranker.load)
        ranking = self._ranking(extractor, ranker, self.config.depth)
        written = write_run(Run(dict(zip(ranking.query_ids, ranking)), self.config.run_tag),
                            path := self.write("run"))
        self.load(path, read_run, make=lambda: written)  # evaluate scores it as read_run parses it

    def stage_evaluate(self):
        if not self.artifact("run").is_file() and self.artifact("index").is_file():
            # no reranked run yet: score base BM25 retrieval directly, written once it scores
            queries, c = self.load_queries(), self.config
            index = InvertedIndex.load(self.read("index"))
            run = Run({q.query_id: search_topk(index, q, c.topk, c.k1, c.b) for q in queries}, c.run_tag)
            report = self._report(run.doc_ids())
            write_run(run, self.write("run"))
        else:
            hint = "run the rerank stage (or build an index for base-retrieval evaluation) first"
            report = self._report(self.load(self.read("run", hint), read_run).doc_ids())
        write_atomic(self.write("report_text"), text := report.to_text())
        write_atomic(self.write("report_jsonl"), report.to_jsonl())
        print(text)

    def stage_depth_sweep(self):
        extractor = self._feature_extractor()
        ranker = self.load(self.read("ranker"), rerank.Ranker.load)
        key = f"ndcg@{self.config.eval_k}"
        lines = [f"depth\t{key}\tp@5"]
        for depth in self.config.depth_list():  # a row is its depth's overall group record, the first
            ranking = self._ranking(extractor, ranker, depth).check()
            overall = self._report(dict(zip(ranking.query_ids, ranking.doc_ids.tolist()))).to_records()[0]
            lines.append(f"{depth}\t{overall[key]:.6f}\t{overall['p@5']:.6f}")
        write_atomic(self.write("depth_sweep"), "\n".join(lines) + "\n")
        print("\n".join(lines))

    def stage_analyze(self):
        c, vocab = self.config, self.load(self.read("vocab"), SubwordVocab.load)
        index, docs = self.indexed_docs()
        queries, qrels = self.load_queries(), self.load_qrels()
        external = self.load(self.input("external_triples"), weaksup.read_triples) if (
            c.external_triples_path) else []
        reference = [line for _, line in read_lines(self.input("reference_texts"))] if (
            c.reference_texts_path) else None
        run = {q.query_id: search_topk(index, q, c.coverage_k, c.k1, c.b) for q in queries}
        report = {
            "n_documents": len(docs), "n_queries": len(queries), "coverage_k": c.coverage_k,
            "n_judged_queries": len(qrels.query_ids()),
            "n_judgments": sum(len(v) for v in qrels.judgments.values()),
            "n_external_weak_triples": len(external),
            "subword_ratio_queries": subword_ratio([q.raw_text for q in queries], vocab),
            "subword_ratio_corpus": subword_ratio([d.text() for d in docs], vocab),
            "subword_ratio_reference": None if reference is None else subword_ratio(reference, vocab),
            "coverage_at_k": coverage_at_k(run, qrels, c.coverage_k),
        }
        write_atomic(self.write("analysis_json"), json.dumps(report, indent=2, sort_keys=True) + "\n")
        text = "".join(f"{label.format_map(report):<25}: {report[key]:{spec}}\n"
                       for label, key, spec in ANALYSIS_LINES if report[key] is not None)
        write_atomic(self.write("analysis_text"), text)
        print(text)


# stage name -> StageRunner method, in STAGES order; run() looks each stage up here,
# so a tracer can rebind an entry
StageRunner.STAGE_FUNCTIONS = {s: getattr(StageRunner, f"stage_{s.replace('-', '_')}") for s in STAGES}


def training_triples(weak, pieces: TokenizedCorpus, vocab, config: PipelineConfig, rng, stopwords) -> list:
    """A dense.TrainingTriple per weak triple whose documents are in `pieces` and differ,
    plus up to config.negatives - 1 drawn from the documents unlike the positive (checked
    among those of its id sum): a draw's index steps past each sorted ordinal not allowed.
    The query is tokenized from its processed terms, as the ranking stages read it."""
    lengths, triples = pieces.lengths, []
    sums = np.bincount(np.repeat(np.arange(len(lengths)), lengths), pieces.ids, len(lengths))
    for t in weak:
        positive, negative = pieces.get(t.pos_doc_id), pieces.get(t.neg_doc_id)
        if positive is None or negative is None or negative == positive:
            continue  # a document alike to the positive cannot be told apart from it
        same = np.flatnonzero(sums == sums[pieces.ordinal[t.pos_doc_id]]).tolist()
        drawn = [pieces.ordinal[t.neg_doc_id]]
        removed = sorted([*drawn, *(i for i in same if pieces.row(i) == positive)])
        while len(drawn) < config.negatives and len(removed) < len(lengths):
            pick = int(rng.integers(len(lengths) - len(removed)))
            for r in removed:
                pick += r <= pick
            drawn.append(pick)
            bisect.insort(removed, pick)
        triples.append(dense.TrainingTriple(
            tuple(tokenize_query(preprocess_query(t.query, stopwords), vocab, config.max_seq_len)),
            positive, (negative, *map(pieces.row, drawn[1:]))))
    return triples


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
            # accepted race: not atomic with the check, so this can unlink a lock just retaken
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
