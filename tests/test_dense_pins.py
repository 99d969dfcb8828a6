"""Byte pins of the embedding artifacts that dapt and train-dense write.

The sha256 values were written by the per-document pooling path (one
`encode` per document, one `+=` per piece id into the gradient, and one
masked-context mean and `np.add.at` scatter per MLM sequence) on the 200-doc
fixture at default config; `dense.pool` and `dense.pool_grad` must reproduce
them bit for bit.
"""

import dataclasses
import hashlib

import pytest

from ranklab.cli import PipelineConfig, run_pipeline
from ranklab.synthetic import DEFAULT_DOCS_PER_TOPIC, DEFAULT_TOPICS
from test_cli import write_fixture_inputs

# (warm_start, artifact) -> sha256; dapt's output does not depend on warm_start. The
# dapt-derived pins were re-written by the per-sequence MLM softmax, which sums the
# same terms in another order (checked against the per-target loop in test_mlm)
ARTIFACT_SHA256 = {
    (False, "mlm_embeddings.ckpt"):
        "78bee8f87d053b64eb1b59bf787ddae9fe28acb055fc694ff673e6ac6e2c6b58",
    (False, "encoder.ckpt"):
        "9b10037a83bceac2b71d0fb5aebe02e4ec75de815bc99f8e8a6559811c8e52e3",
    (False, "dense_index.bin"):
        "393177e01cf35d0a559c13b914555581a4aaf7f9e3638935450ad927b6c327b8",
    (True, "encoder.ckpt"):
        "351c378e9a627905ae598b737610bae4e1a29b0f11ef5b594b6bfa0a686e31e6",
    (True, "dense_index.bin"):
        "f312ae8daecb50de1b0c0907e6946b3676e1dd32d46fb06973c2847e71b0634c",
}


@pytest.fixture(scope="module")
def embedding_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("dense_pins")
    corpus, queries, qrels = write_fixture_inputs(root, DEFAULT_TOPICS, DEFAULT_DOCS_PER_TOPIC)
    config = PipelineConfig(corpus_path=str(corpus), queries_path=str(queries),
                            qrels_path=str(qrels), workdir=str(root / "cold"))
    run_pipeline(config, ["ingest", "index", "dapt", "synth-weak", "train-dense"])
    warm = root / "warm"
    warm.mkdir()
    for name in ("vocab.json", "index.bin", "mlm_embeddings.ckpt", "weak_triples.jsonl"):
        (warm / name).write_bytes((root / "cold" / name).read_bytes())
    run_pipeline(dataclasses.replace(config, workdir=str(warm), warm_start=True), ["train-dense"])
    return {False: root / "cold", True: warm}


@pytest.mark.parametrize("warm_start, name", list(ARTIFACT_SHA256))
def test_embedding_artifacts_are_pinned(embedding_runs, warm_start, name):
    digest = hashlib.sha256((embedding_runs[warm_start] / name).read_bytes()).hexdigest()
    assert digest == ARTIFACT_SHA256[warm_start, name]
