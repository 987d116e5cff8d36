"""Most probable Hamiltonian path over a transition matrix.

Both solvers share one contract: visit every cluster exactly once,
maximize the product of transition probabilities along the way, free
choice of start and end node.

* ``solve_dp``: exact bitmask dynamic programming, O(k^2 * 2^k) time and
  O(k * 2^k) space, feasible up to k = 22.  The table kernel is the plain-C
  extension ``_pathcore`` when it is built, else a bit-identical numpy
  fallback.
* ``solve_greedy``: best-of-k-starts nearest-successor heuristic for k
  beyond the DP cap.

All work happens in log space; a zero-probability edge contributes -inf,
so paths through missing transitions stay representable and always rank
below any all-positive path.  Ties on log-probability resolve to the
lexicographically smallest order in every solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .markov import TransitionMatrix
from . import _pathpure

try:
    from . import _pathcore
except ImportError:
    _pathcore = None

DP_HARD_CAP = 22
_TABLE_MAX_K = 25
_NEG_INF = float("-inf")


@dataclass
class HamiltonianPath:
    order: list[int]
    log_prob: float
    method: str


def available_backends() -> list[str]:
    return ["compiled", "pure"] if _pathcore is not None else ["pure"]


def default_backend() -> str:
    return "compiled" if _pathcore is not None else "pure"


def _kernel(backend: str | None):
    name = backend if backend is not None else default_backend()
    if name == "compiled":
        if _pathcore is None:
            raise InfeasibleError("compiled dp backend requested but not built")
        return _pathcore.fill_table
    if name == "pure":
        return _pathpure.fill_table
    raise ValueError(f"unknown dp backend {name!r}")


def _table(logw: np.ndarray, backend: str | None) -> np.ndarray:
    """Ending-at table dp[S, i] of the k x k log-weights, filled by one kernel.

    Both kernels receive a C-contiguous float64 table holding -inf
    everywhere but the singleton cells dp[{i}, i] = 0, and fill the cells
    of cardinality >= 2 in place.
    """
    fill = _kernel(backend)
    logw = np.ascontiguousarray(logw, dtype=np.float64)
    k = logw.shape[0]
    if logw.shape != (k, k):
        raise ValueError("logw must be square")
    if not 1 <= k <= _TABLE_MAX_K:
        raise ValueError(f"k={k} out of range for the bitmask table")
    dp = np.full((1 << k, k), -np.inf, dtype=np.float64)
    nodes = np.arange(k)
    dp[1 << nodes, nodes] = 0.0
    fill(logw, dp)
    return dp


def _log_weights(matrix: TransitionMatrix) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(matrix.probs)


def path_probability(matrix: TransitionMatrix, order: list[int]) -> float:
    """Sum of log transition probabilities along order; -inf on any zero edge."""
    if sorted(order) != list(range(matrix.k)):
        raise ValueError(f"order must be a permutation of range({matrix.k})")
    total = 0.0
    for a, b in zip(order, order[1:]):
        p = float(matrix.probs[a, b])
        if p <= 0.0:
            return _NEG_INF
        total += math.log(p)
    return total


def dp_table(matrix: TransitionMatrix, backend: str | None = None) -> np.ndarray:
    """Ending-at table: dp[S, i] = best log-prob over paths visiting S ending at i."""
    return _table(_log_weights(matrix), backend)


def solve_dp(
    matrix: TransitionMatrix, cap: int = DP_HARD_CAP, backend: str | None = None
) -> HamiltonianPath:
    """Exact solution via the subset table, reconstructed front to back.

    The start-at table g (the ending-at table of the transposed weights)
    lets the walk pick the smallest next node whose value matches the
    recurrence exactly, which yields the lexicographically smallest of all
    optimal orders without a parent table.
    """
    k = matrix.k
    if k < 1:
        raise ValueError("matrix must have at least one state")
    if k > cap:
        raise InfeasibleError(
            f"k={k} exceeds the DP cap {cap}; use solve_greedy (or raise the cap)"
        )
    logw = _log_weights(matrix)
    g = _table(logw.T, backend)

    full = (1 << k) - 1
    final = g[full]
    start = int(np.flatnonzero(final == final.max())[0])
    order = [start]
    mask, cur = full, start
    while len(order) < k:
        rest = mask ^ (1 << cur)
        target = g[mask, cur]
        nxt = -1
        for j in range(k):
            if (rest >> j) & 1 and logw[cur, j] + g[rest, j] == target:
                nxt = j
                break
        if nxt < 0:
            raise RuntimeError("dp reconstruction found no successor; table corrupt")
        order.append(nxt)
        mask, cur = rest, nxt
    return HamiltonianPath(order=order, log_prob=path_probability(matrix, order), method="dp")


def solve_greedy(matrix: TransitionMatrix) -> HamiltonianPath:
    """Best of k greedy walks, one from each start node.

    Each walk moves to the unvisited successor with maximal probability
    (ties to the lowest id).  Never better than solve_dp, but runs in
    O(k^3) for any k.
    """
    k = matrix.k
    if k < 1:
        raise ValueError("matrix must have at least one state")
    probs = matrix.probs
    best_order: list[int] | None = None
    best_lp = _NEG_INF
    for start in range(k):
        visited = [False] * k
        visited[start] = True
        order = [start]
        cur = start
        for _ in range(k - 1):
            nxt = -1
            nxt_p = -1.0
            for j in range(k):
                if not visited[j] and probs[cur, j] > nxt_p:
                    nxt_p = float(probs[cur, j])
                    nxt = j
            visited[nxt] = True
            order.append(nxt)
            cur = nxt
        lp = path_probability(matrix, order)
        if best_order is None or lp > best_lp or (lp == best_lp and order < best_order):
            best_order = order
            best_lp = lp
    assert best_order is not None
    return HamiltonianPath(order=best_order, log_prob=best_lp, method="greedy")
