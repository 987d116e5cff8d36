"""End-to-end orchestration of the summarization modes.

``markov-cluster`` is the full pipeline: chunk, embed, cluster, pick
representatives, estimate the transition matrix from the chunk-order label
sequence, solve the most probable Hamiltonian path over the clusters (ties
going to their order of first appearance), summarize each cluster, and
aggregate the summaries in path order.
``cluster-sum`` is identical except the summaries are aggregated in first-
appearance order of the clusters, with no sequence model.  ``llm-full``
sends the whole document to the provider in one call (stitching it in
pieces when it exceeds the provider's context budget).

Every stage is timed and failures are re-raised tagged with the stage
name.  With the deterministic embedder and the mock provider the returned
artifact is bit-identical across runs for a fixed seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict
from typing import Callable

import numpy as np

from . import artifact as artifact_mod
from .chunking import chunk_document
from .clustering import choose_k, distinct_count, kmeans, representatives
from .config import MODES, RunConfig
from .embeddings import embed_batch
from .errors import PipelineStageError
from .markov import TransitionMatrix, build_transition_matrix
from .pathfinding import DP_HARD_CAP, path_probability, solve_dp, solve_greedy
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
    return list(dict.fromkeys(int(label) for label in labels))


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

    chunks = stages.run("chunk", lambda: chunk_document(document, cfg.chunker))
    if not chunks:
        raise PipelineStageError("chunk", ValueError("document produced no chunks"))

    texts = [c.text for c in chunks]
    vectors = stages.run("embed", lambda: embed_batch(texts, cfg.embedding))

    def cluster_stage():
        k = choose_k(len(chunks), cfg.k)
        n_distinct = None
        # k distinct rows among the first k need no count of all n rows; a count
        # made here spares kmeans its own.
        if distinct_count(vectors[:k]) < k:
            n_distinct = distinct_count(vectors)
            k = min(k, n_distinct)
        return kmeans(vectors, k, cfg.seed, n_distinct=n_distinct)

    assignment = stages.run("cluster", cluster_stage)
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

        def path_stage():
            # The solvers break ties by lowest index. Numbered by first appearance, a tie
            # (every path crossing a zero edge, say) goes to document order, not label order.
            seen = first_appearance_order(labels)
            zero_rows = frozenset(seen.index(c) for c in matrix.zero_rows)
            path = (solve_dp if matrix.k <= DP_HARD_CAP else solve_greedy)(
                TransitionMatrix(matrix.probs[np.ix_(seen, seen)], matrix.k, zero_rows)
            )
            order = [seen[i] for i in path.order]
            log_prob = artifact_mod.encode_log_prob(path_probability(matrix, order))
            return {"order": order, "log_prob": log_prob, "method": path.method}

        result.path = stages.run("path", path_stage)
        summary_order = result.path["order"]
    else:
        summary_order = first_appearance_order(labels)

    summaries = stages.run("summarize_clusters", lambda: summarize_clusters(reps, texts, cfg.llm))
    ordered = [summaries[c] for c in summary_order]
    result.cluster_summaries = [asdict(s) for s in ordered]

    result.final_summary = stages.run("aggregate", lambda: aggregate_final(ordered, cfg.llm))
    result.timings = stages.timings
    return result
