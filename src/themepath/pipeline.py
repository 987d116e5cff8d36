"""End-to-end orchestration of the summarization modes.

``markov-cluster`` is the full pipeline: chunk, embed, cluster, pick
representatives, estimate the transition matrix from the chunk-order label
sequence, solve the most probable Hamiltonian path over the clusters,
summarize each cluster, and aggregate the summaries in path order.
``kmeans`` numbers the clusters by first appearance, so path ties go to
document order, and ``cluster-sum``, identical but for the sequence model,
aggregates in cluster order.  ``llm-full`` sends the whole document to the
provider in one call (stitching it when it exceeds the context budget).

Every stage is timed and failures are re-raised tagged with the stage
name.  With the deterministic embedder and the mock provider the returned
artifact is bit-identical across runs for a fixed seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict
from typing import Callable

from . import artifact as artifact_mod
from .chunking import chunk_document
from .clustering import choose_k, kmeans, representatives
from .config import MODES, RunConfig
from .embeddings import embed_batch
from .errors import PipelineStageError
from .markov import build_transition_matrix
from .pathfinding import DP_HARD_CAP, solve_dp, solve_greedy
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
        except Exception as exc:
            raise PipelineStageError(name, exc) from exc
        self.timings[name] = time.perf_counter() - started
        return result


def run_pipeline(
    document: str, mode: str, cfg: RunConfig, progress: Progress = None
) -> artifact_mod.RunArtifact:
    """Run one summarization mode over a document and return the artifact."""
    if not document.strip():
        raise ValueError("document is empty")
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")

    stages = _Stages(progress)
    # The config snapshot records the mode that ran, also when it is not cfg.mode.
    config = cfg.snapshot() if mode == cfg.mode else {**cfg.snapshot(), "mode": mode}
    result = artifact_mod.RunArtifact(mode=mode, seed=cfg.seed, config=config, final_summary="")
    result.document_sha256 = hashlib.sha256(document.encode("utf-8")).hexdigest()

    if mode == "llm-full":
        text, stitched = stages.run(
            "summarize", lambda: summarize_full_document(document, cfg.llm)
        )
        result.final_summary = text
        result.notes["llm_full_stitched"] = stitched
        result.timings = stages.timings
        return result

    # A document with a non-whitespace character has at least one token, so at least one chunk.
    chunks = stages.run("chunk", lambda: chunk_document(document, cfg.chunker))
    texts = [c.text for c in chunks]
    vectors = stages.run("embed", lambda: embed_batch(texts, cfg.embedding))
    assignment = stages.run(
        "cluster", lambda: kmeans(vectors, choose_k(len(chunks), cfg.k), cfg.seed)
    )
    reps = stages.run("representatives", lambda: representatives(assignment, vectors, cfg.top_k))

    labels = [int(x) for x in assignment.labels]
    result.chunks = [{"byte_span": c.byte_span, "token_span": c.token_span} for c in chunks]
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

        # The solvers break ties by lowest index, and solve_dp's no-path rule puts
        # the lowest clusters first; with clusters numbered by first appearance,
        # both go to document order.
        solve = solve_dp if matrix.k <= DP_HARD_CAP else solve_greedy
        path = stages.run("path", lambda: solve(matrix))
        log_prob = artifact_mod.encode_log_prob(path.log_prob)
        result.path = {"order": path.order, "log_prob": log_prob, "method": path.method}
        summary_order = path.order
    else:
        summary_order = range(assignment.k)

    summaries = stages.run("summarize_clusters", lambda: summarize_clusters(reps, chunks, cfg.llm))
    ordered = [summaries[c] for c in summary_order]
    result.cluster_summaries = [asdict(s) for s in ordered]

    result.final_summary = stages.run("aggregate", lambda: aggregate_final(ordered, cfg.llm))
    result.timings = stages.timings
    return result
