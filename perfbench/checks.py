"""Output checks and quality figures computed outside the program.

The BM25 oracle scores every document with its own tokenizer and postings
(the brute-force style of acceptance criterion 2), so it shares no code with
`ranklab.sparse`. The dense figure ranks with the program's own
`dense.dense_search_topk` over the saved encoder and document vectors. BM25
parameters, sequence length and cut-offs are the pipeline's defaults.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

from ranklab import dense
from ranklab.cli import PipelineConfig
from ranklab.evaluation import ndcg_at_k
from ranklab.subword import SubwordVocab, tokenize

_TERM = re.compile(r"[a-z0-9]+")
DEFAULTS = PipelineConfig()
EVAL_K = DEFAULTS.eval_k
COVERAGE_K = DEFAULTS.coverage_k


def read_manifest(workdir: Path) -> list[dict]:
    path = workdir / "manifest.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def output_hashes(manifest: list[dict]) -> dict[str, dict[str, str]]:
    """stage -> artifact file name -> sha256, as the manifest recorded them."""
    return {m["stage"]: {Path(p).name: h for p, h in sorted(m["outputs"].items())}
            for m in manifest}


def stage_problems(manifest: list[dict], stages, exit_code: int) -> dict[str, str]:
    """stage -> problem, for every expected stage that did not complete cleanly."""
    done = {m["stage"]: m for m in manifest}
    problems = {}
    for stage in stages:
        entry = done.get(stage)
        if entry is None:
            problems[stage] = f"not run (child exit {exit_code})"
            continue
        missing = [p for p in entry["outputs"] if not Path(p).is_file() or Path(p).stat().st_size == 0]
        if missing or not entry["outputs"]:
            problems[stage] = f"missing or empty artifacts {missing}"
    if exit_code != 0 and not problems:
        problems[stages[-1]] = f"child exit {exit_code} after the last stage"
    return problems


def run_file_problems(path: Path, query_ids, doc_ids) -> list[str]:
    """Every query ranked; ranks 1..n; unique known docs; scores non-increasing."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows: dict[int, list[tuple[int, str, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _, doc_id, rank, score, _ = line.split()
        rows.setdefault(int(qid), []).append((int(rank), doc_id, float(score)))
    known = set(doc_ids)
    problems = []
    missing = sorted(set(query_ids) - set(rows))
    if missing:
        problems.append(f"queries without a ranking: {missing[:5]}")
    for qid, entries in rows.items():
        ranks = [r for r, _, _ in entries]
        docs = [d for _, d, _ in entries]
        scores = [s for _, _, s in entries]
        if ranks != list(range(1, len(entries) + 1)):
            problems.append(f"query {qid}: ranks not 1..{len(entries)}")
        if len(set(docs)) != len(docs) or not set(docs) <= known:
            problems.append(f"query {qid}: duplicate or unknown doc ids")
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"query {qid}: scores increase along ranks")
    return problems


def oracle_recall(docs, queries, qrels, k: int) -> float:
    """Mean recall@k of exhaustive BM25 over the judged queries."""
    k1, b = DEFAULTS.k1, DEFAULTS.b
    term_lists = [_TERM.findall((d.title + " " + d.abstract).lower()) for d in docs]
    lengths = [len(t) for t in term_lists]
    n = len(docs)
    avgdl = sum(lengths) / n
    postings: dict[str, list[tuple[int, int]]] = {}
    for i, terms in enumerate(term_lists):
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((i, tf))
    doc_ids = [d.doc_id for d in docs]
    by_id_order = sorted(range(n), key=doc_ids.__getitem__)
    terms_of = {q.query_id: q.processed_terms for q in queries}
    recalls = []
    for query_id in qrels.query_ids():
        relevant = qrels.relevant_docs(query_id)
        if not relevant:
            continue
        scores: dict[int, float] = {}
        for term in terms_of.get(query_id, ()):
            df = len(postings.get(term, ()))
            term_idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for i, tf in postings.get(term, ()):
                norm = k1 * (1.0 - b + b * (lengths[i] / avgdl))
                scores[i] = scores.get(i, 0.0) + term_idf * tf * (k1 + 1.0) / (tf + norm)
        top = sorted(scores, key=lambda i: (-scores[i], doc_ids[i]))[:k]
        if len(top) < k:
            # unmatched documents score 0 and follow in doc_id order
            chosen = set(top)
            top += [i for i in by_id_order if i not in chosen][: k - len(top)]
        recalls.append(len(relevant & {doc_ids[i] for i in top}) / len(relevant))
    return sum(recalls) / len(recalls)


def dense_ndcg(workdir: Path, queries, qrels) -> float:
    """Dense-only NDCG@EVAL_K of dense.dense_search_topk over encoder.ckpt +
    dense_index.bin, averaged over the judged queries."""
    encoder = dense.DenseEncoder.load(workdir / "encoder.ckpt")
    index = dense.DenseIndex.load(workdir / "dense_index.bin")
    vocab = SubwordVocab.load(workdir / "vocab.json")
    by_id = {q.query_id: q for q in queries}
    values = []
    for query_id in qrels.query_ids():
        ids = tokenize(" ".join(by_id[query_id].processed_terms), vocab, DEFAULTS.max_seq_len)
        ranking = dense.dense_search_topk(index, encoder, ids, EVAL_K, query_id)
        values.append(ndcg_at_k(ranking, qrels.judgments[query_id], EVAL_K))
    return sum(values) / len(values)
