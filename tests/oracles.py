"""Exhaustive reference solvers the path-solver tests compare against."""

from __future__ import annotations

import itertools
import math

from themepath.errors import InfeasibleError
from themepath.markov import TransitionMatrix
from themepath.pathfinding import HamiltonianPath, path_probability

BRUTE_CAP = 10
_NEG_INF = float("-inf")


def solve_brute_force(matrix: TransitionMatrix) -> HamiltonianPath:
    """Exhaustive permutation scan; exact oracle for k <= 10.

    Permutations are visited in lexicographic order and replaced only on a
    strictly better value, so ties resolve exactly like solve_dp.
    """
    k = matrix.k
    if k < 1:
        raise ValueError("matrix must have at least one state")
    if k > BRUTE_CAP:
        raise InfeasibleError(f"brute force is refused for k={k} > {BRUTE_CAP}")
    logw = [
        [math.log(p) if p > 0.0 else _NEG_INF for p in row] for row in matrix.probs.tolist()
    ]
    best = _NEG_INF
    best_order: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(k)):
        total = 0.0
        prev = perm[0]
        for nxt in perm[1:]:
            w = logw[prev][nxt]
            if w == _NEG_INF:
                total = _NEG_INF
                break
            total += w
            prev = nxt
        if best_order is None or total > best:
            best = total
            best_order = perm
    assert best_order is not None
    order = list(best_order)
    return HamiltonianPath(order=order, log_prob=path_probability(matrix, order), method="brute")
