"""End-to-end orchestration of the summarization modes.

``markov-cluster`` is the full pipeline: chunk, embed, cluster, pick
representatives, estimate the transition matrix from the chunk-order label
sequence, solve the most probable Hamiltonian path over the clusters,
summarize each cluster, and aggregate the summaries in path order.
``cluster-sum`` is identical except the summaries are aggregated in first-
appearance order of the clusters, with no sequence model.  ``llm-full``
sends the whole document to the provider in one call (stitching it in
pieces when it exceeds the provider's context budget).

Every stage is timed and failures are re-raised tagged with the stage
name.  With the deterministic embedder and the mock provider the returned
artifact is bit-identical across runs for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Callable

from . import artifact as artifact_mod
from .chunking import chunk_document
from .clustering import choose_k, distinct_count, kmeans, representatives
from .config import MODES, RunConfig
from .embeddings import embed_batch
from .errors import PipelineStageError
from .markov import build_transition_matrix
from .pathfinding import solve_dp, solve_greedy
from .summarize import aggregate_final, summarize_clusters, summarize_full_document

Progress = Callable[[str], None] | None


class _Stages:
    """Runs stage callables, recording wall time and tagging failures."""

    def __init__(self, progress: Progress):
        self.timings: dict[str, float] = {}
        self._progress = progress

    def run(self, name: str, fn: Callable):
        if self._progress is not None:
            self._progress(name)
        started = time.perf_counter()
        try:
            result = fn()
        except PipelineStageError:
            raise
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc
        self.timings[name] = time.perf_counter() - started
        return result


def first_appearance_order(labels) -> list[int]:
    seen: list[int] = []
    for label in labels:
        label = int(label)
        if label not in seen:
            seen.append(label)
    return seen


def run_pipeline(
    document: str, mode: str, cfg: RunConfig, progress: Progress = None
) -> artifact_mod.RunArtifact:
    """Run one summarization mode over a document and return the artifact."""
    if not document.strip():
        raise ValueError("document is empty")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")

    stages = _Stages(progress)
    result = artifact_mod.RunArtifact(
        mode=mode, seed=cfg.seed, config=cfg.snapshot(), final_summary=""
    )

    if mode == "llm-full":
        text, stitched = stages.run(
            "summarize", lambda: summarize_full_document(document, cfg.llm)
        )
        result.final_summary = text
        result.notes["llm_full_stitched"] = stitched
        result.timings = stages.timings
        return result

    chunks = stages.run("chunk", lambda: chunk_document(document, cfg.chunker))
    if not chunks:
        raise PipelineStageError("chunk", ValueError("document produced no chunks"))

    texts = [c.text for c in chunks]
    vectors = stages.run("embed", lambda: embed_batch(texts, cfg.embedding))

    def cluster_stage():
        k = min(choose_k(len(chunks), cfg.k), distinct_count(vectors))
        return kmeans(vectors, k, cfg.seed)

    assignment = stages.run("cluster", cluster_stage)
    reps = stages.run("representatives", lambda: representatives(assignment, vectors, cfg.top_k))

    labels = [int(x) for x in assignment.labels]
    result.chunks = [
        {
            "index": c.index,
            "text": c.text,
            "token_count": c.token_count,
            "byte_span": list(c.byte_span),
            "token_span": list(c.token_span),
        }
        for c in chunks
    ]
    result.labels = labels
    result.centroids_digest = artifact_mod.centroids_digest(assignment.centroids)
    result.representatives = {str(c): ids for c, ids in sorted(reps.items())}

    if mode == "markov-cluster":
        matrix = stages.run(
            "markov",
            lambda: build_transition_matrix(labels, assignment.k, collapse=cfg.collapse_runs),
        )
        result.transition_matrix = artifact_mod.matrix_to_dict(
            matrix.probs, matrix.k, matrix.zero_rows
        )

        def path_stage():
            if matrix.k <= cfg.path_cap:
                return solve_dp(matrix, cap=cfg.path_cap)
            return solve_greedy(matrix)

        path = stages.run("path", path_stage)
        result.path = {
            "order": path.order,
            "log_prob": artifact_mod.encode_log_prob(path.log_prob),
            "method": path.method,
        }
        summary_order = path.order
    else:
        summary_order = first_appearance_order(labels)

    summaries = stages.run("summarize_clusters", lambda: summarize_clusters(reps, texts, cfg.llm))
    ordered = [summaries[c] for c in summary_order]
    result.cluster_summaries = [asdict(s) for s in ordered]

    result.final_summary = stages.run("aggregate", lambda: aggregate_final(ordered, cfg.llm))
    result.timings = stages.timings
    return result
