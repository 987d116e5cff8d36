"""Empirical cluster-to-cluster transition matrix.

Each row holds the observed probability distribution over the next cluster
given the current one, counted from consecutive label pairs in document
order (self-transitions included).  A cluster with no outgoing transitions
keeps an all-zero row rather than an invented uniform one; the path solver
treats those edges as log-probability minus infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9


@dataclass
class TransitionMatrix:
    probs: np.ndarray
    k: int
    zero_rows: frozenset[int]


def collapse_runs(labels) -> list[int]:
    """Drop consecutive repeats: [0,0,1,1,0] -> [0,1,0]."""
    out: list[int] = []
    for label in labels:
        if not out or out[-1] != label:
            out.append(int(label))
    return out


def build_transition_matrix(
    labels, k: int, collapse: bool = False
) -> TransitionMatrix:
    """Count consecutive pairs and normalize each row by its outgoing total.

    With collapse=True consecutive duplicate labels are deduplicated before
    counting, which removes self-transitions from the estimate.
    """
    seq = [int(x) for x in labels]
    if len(seq) < 1:
        raise ValueError("labels must contain at least one element")
    if any(not 0 <= s < k for s in seq):
        raise ValueError(f"labels must lie in [0, {k})")
    if collapse:
        seq = collapse_runs(seq)

    counts = np.zeros((k, k), dtype=np.float64)
    arr = np.asarray(seq, dtype=np.int64)
    np.add.at(counts, (arr[:-1], arr[1:]), 1.0)

    totals = counts.sum(axis=1, keepdims=True)
    zero_rows = frozenset(int(i) for i in np.flatnonzero(totals == 0))
    probs = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    return TransitionMatrix(probs=probs, k=k, zero_rows=zero_rows)


def validate_row_stochastic(matrix: TransitionMatrix, tol: float = ROW_SUM_TOL) -> bool:
    """True iff entries lie in [0, 1], flagged rows are all-zero, and the rest sum to 1."""
    probs = matrix.probs
    if probs.shape != (matrix.k, matrix.k):
        return False
    if not np.isfinite(probs).all():
        return False
    if (probs < 0).any() or (probs > 1 + tol).any():
        return False
    sums = probs.sum(axis=1)
    for i in range(matrix.k):
        if i in matrix.zero_rows:
            if sums[i] != 0.0:
                return False
        elif abs(sums[i] - 1.0) > tol:
            return False
    return True
