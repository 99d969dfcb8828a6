"""ranklab: a desk-scale search experimentation toolkit.

Sparse BM25 retrieval over an inverted index, a trainable dense retriever
with a softmax contrastive objective, masked-language domain pretraining,
weak-supervision synthesis and policy-gradient selection, depth-controlled
feature reranking with fusion, and TREC-style residual-collection evaluation.
"""

from .corpus import Document, Qrels, Query, load_corpus, load_queries, preprocess_query
from .dense import (
    DenseEncoder,
    DenseIndex,
    TrainingTriple,
    build_dense_index,
    contrastive_loss,
    dense_search_topk,
    encode,
    similarity,
    train_step,
)
from .evaluation import (
    EvaluationReport,
    QuerySplit,
    Run,
    ndcg_at_k,
    old_new_report,
    precision_at_k,
    read_qrels,
    read_run,
    residual_filter,
    write_run,
)
from .mlm import MaskedBatch, MaskedSequence, MlmModel, make_masked_batch, mask_tokens, mlm_train_step, warm_start
# the rerank *operation* stays at ranklab.rerank.rerank so the module name
# ranklab.rerank remains importable
from .rerank import (
    FeatureExtractor,
    Ranker,
    fuse_base_union,
    fuse_interpolate,
    pairwise_train_step,
    reciprocal_rank_fusion,
)
from .sparse import InvertedIndex, RankedList, bm25_score, build_index, coverage_at_k, search_topk
from .subword import SubwordVocab, subword_ratio, tokenize, tokenize_corpus, train_subword_vocab
from .weaksup import (
    SalienceQueryGenerator,
    SelectionContext,
    SelectorPolicy,
    WeakTriple,
    pair_features,
    reinfoselect_step,
    synthesize_triples,
    synthesize_with_provenance,
)

__version__ = "0.1.0"
