"""ranklab: a desk-scale search experimentation toolkit.

Sparse BM25 retrieval over an inverted index, a trainable dense retriever
with a softmax contrastive objective, masked-language domain pretraining,
weak-supervision synthesis and policy-gradient selection, depth-controlled
feature reranking with fusion, and TREC-style residual-collection evaluation.
"""

__version__ = "0.1.0"
