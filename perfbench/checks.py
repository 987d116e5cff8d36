"""Output checks and ground-truth quality measures for one run artifact.

``problems`` lists what is wrong with an artifact; an empty list means the
run passed.  The checks use themepath's own definitions where it has one
(path probability, row-stochastic validation), so they judge the artifact
by the contract the package itself states.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from themepath import markov, pathfinding
from themepath.artifact import decode_log_prob

import book


def _matrix(data: dict) -> markov.TransitionMatrix:
    tm = data["transition_matrix"]
    return markov.TransitionMatrix(
        probs=np.asarray(tm["probs"], dtype=np.float64), k=tm["k"], zero_rows=frozenset(tm["zero_rows"])
    )


def problems(data: dict, raw: bytes, reference: bytes | None) -> list[str]:
    """Everything wrong with one artifact; ``reference`` is an earlier run's bytes."""
    found = []
    if reference is not None and raw != reference:
        found.append("artifact differs from an earlier run of the same workload")
    matrix = _matrix(data)
    order = data["path"]["order"]
    if sorted(order) != list(range(matrix.k)):
        found.append(f"path {order} is not a permutation of range({matrix.k})")
    elif decode_log_prob(data["path"]["log_prob"]) != pathfinding.path_probability(matrix, order):
        found.append("path log_prob differs from the recomputed path probability")
    if not markov.validate_row_stochastic(matrix):
        found.append("transition matrix is not row-stochastic")
    summarized = {s["cluster_id"] for s in data["cluster_summaries"] if s["summary_text"].strip()}
    if summarized != set(range(matrix.k)):
        found.append(f"clusters without a summary: {sorted(set(range(matrix.k)) - summarized)}")
    if not data["final_summary"].strip():
        found.append("final summary is empty")
    return found


def zero_edges(data: dict) -> int:
    """Zero-probability transitions the solved order crosses."""
    probs = data["transition_matrix"]["probs"]
    order = data["path"]["order"]
    return sum(1 for a, b in zip(order, order[1:]) if probs[a][b] == 0.0)


def kendall_tau(ranked: list[int], truth: list[int]) -> float:
    """Kendall tau-a between two orders of the items they share."""
    pos = {x: i for i, x in enumerate(ranked)}
    common = [x for x in truth if x in pos]
    n = len(common)
    if n < 2:
        return 0.0
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            score += 1 if pos[common[i]] < pos[common[j]] else -1
    return score / (n * (n - 1) / 2)


def order_tau(data: dict, meta: dict) -> float:
    """Kendall tau between the themes' first visits along the path and the planted order.

    Each cluster stands for the planted theme most of its chunks belong to.
    """
    chunk_theme = book.chunk_themes(meta, [c["token_span"] for c in data["chunks"]])
    votes: dict[int, Counter] = {}
    for theme, label in zip(chunk_theme, data["labels"]):
        votes.setdefault(label, Counter())[theme] += 1
    visited: list[int] = []
    for cluster in data["path"]["order"]:
        theme = min(votes[cluster].items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if theme not in visited:
            visited.append(theme)
    return kendall_tau(visited, meta["planted_order"])
