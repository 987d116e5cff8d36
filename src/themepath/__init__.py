"""Long-document summarization by thematic clustering and Markov path ordering."""

from .chunking import Chunk, ChunkerConfig, TokenSequence, chunk_document, tokenize
from .clustering import ClusterAssignment, choose_k, kmeans, kmeanspp_seed, representatives
from .embeddings import EmbeddingProviderConfig, cosine_similarity, embed_batch, normalize
from .markov import TransitionMatrix, build_transition_matrix, validate_row_stochastic
from .pathfinding import (
    HamiltonianPath,
    path_probability,
    solve_dp,
    solve_greedy,
)
from .evaluation import coherence, evaluate_corpus, rouge_n, split_sentences
from .summarize import ClusterSummary, LlmProviderConfig, aggregate_final, summarize_cluster
from .config import RunConfig
from .pipeline import run_pipeline

__version__ = "0.1.0"

__all__ = [
    "Chunk",
    "ChunkerConfig",
    "TokenSequence",
    "chunk_document",
    "tokenize",
    "ClusterAssignment",
    "choose_k",
    "kmeans",
    "kmeanspp_seed",
    "representatives",
    "EmbeddingProviderConfig",
    "cosine_similarity",
    "embed_batch",
    "normalize",
    "TransitionMatrix",
    "build_transition_matrix",
    "validate_row_stochastic",
    "HamiltonianPath",
    "path_probability",
    "solve_dp",
    "solve_greedy",
    "coherence",
    "evaluate_corpus",
    "rouge_n",
    "split_sentences",
    "ClusterSummary",
    "LlmProviderConfig",
    "aggregate_final",
    "summarize_cluster",
    "RunConfig",
    "run_pipeline",
    "__version__",
]
