"""Most probable Hamiltonian path over a transition matrix.

Both solvers share one contract: visit every cluster exactly once,
maximize the product of transition probabilities along the way, free
choice of start and end node.

* ``solve_dp``: exact bitmask dynamic programming (Held-Karp) on the
  start-at recurrence g[S, i], the best log-prob over paths that visit S
  starting at i.  DP_HARD_CAP = 22 is the one cap on it: ``solve_dp``
  refuses a larger k before it allocates anything, and ``choose_k``'s
  default clamp never exceeds it.  Both of its paths are numpy, in
  ``_pathpure``:
  - The frontier first.  It grows only the positive states, the (S, i) with
    g[S, i] > -inf, one cardinality at a time along positive edges.  On the
    perfbench books (k = 20) that is 3,874-14,751 states, a few ms and well
    under 1 MB.  It gives up once its candidate states pass
    ``_pathpure.FRONTIER_SHARE`` of the 2^k * k cells.
  - Then the dense pass.  A reach pass, O(k * 2^k), records for every
    subset S the k-bit mask of the nodes that start a positive-probability
    path over S: one uint32 per subset, 4 MB at k = 20 and 16 MB at k = 22,
    freed before the fill.  The fill runs the recurrence over the subsets
    in cardinality order, keeps the values of only two adjacent
    cardinalities, and records one int8 successor per (subset, node) cell:
    about 21 + 60 MB at k = 20 and 92 + 248 MB at k = 22.
  If some positive path covers every node, the walk starts at the first
  argmax of g[full, .].  If none does, the full-table walk starts at node 0
  and takes the lowest remaining node for as long as its value is -inf: the
  order is 0, 1, ..., t-1 for the smallest t at which a positive path over
  {t, ..., k-1} starts at t, then the walk of that suffix from t.  The dense
  pass then fills only the k - t suffix nodes: its cells depend only on the
  weights among them, and numbering them 0, ..., k-t-1 keeps their order,
  so the walk is the same.
* ``solve_greedy``: best-of-k-starts nearest-successor heuristic for k
  beyond the DP cap.  The pipeline alone picks between the two: the exact
  solver when k <= DP_HARD_CAP, else the heuristic.

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

# The largest k the exact solver accepts: the dense fall-back's table grows as 2^k * k.
DP_HARD_CAP = _pathpure.MAX_K
_NEG_INF = float("-inf")


@dataclass
class HamiltonianPath:
    order: list[int]
    log_prob: float
    method: str


def available_backends() -> list[str]:
    """The one kernel name, "pure".

    perfbench's solver sweep still names its kernels through this and
    ``solve_dp``'s ``backend``; a benchmark change that drops the name
    there removes both.
    """
    return ["pure"]


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


def _unreachable_prefix(logw: np.ndarray) -> int:
    """0 if a positive-probability path covers every node, else the smallest
    t at which one over {t, ..., k-1} starts at t."""
    k = logw.shape[0]
    reach = np.empty(1 << k, dtype=np.uint32)
    _pathpure.fill_reach(logw, reach)
    full = (1 << k) - 1
    if reach[full]:
        return 0
    # {k-1} always starts a path over itself, so the search ends by t = k-1.
    return next(t for t in range(1, k) if (int(reach[full >> t << t]) >> t) & 1)


def _dense_order(logw: np.ndarray) -> list[int]:
    """The walk of the dense pass: reach, then the successor table of the suffix worth filling."""
    k = logw.shape[0]
    prefix = _unreachable_prefix(logw)
    logw = np.ascontiguousarray(logw[prefix:, prefix:])
    m = k - prefix
    succ = np.empty((1 << m, m), dtype=np.int8)
    final = np.empty(m, dtype=np.float64)
    _pathpure.fill_successors(logw, succ, final)

    cur = 0 if prefix else int(np.argmax(final))  # the walk enters a suffix at its first node
    order = [cur]
    mask = (1 << m) - 1
    while len(order) < m:
        nxt = int(succ[mask, cur])
        order.append(nxt)
        mask ^= 1 << cur
        cur = nxt
    return list(range(prefix)) + [prefix + i for i in order]


def solve_dp(matrix: TransitionMatrix, backend: str | None = None) -> HamiltonianPath:
    """Exact solution via the subset DP, reconstructed front to back.

    Both paths fill the start-at recurrence g[S, i] and record, per state,
    the smallest successor that attains it.  The walk starts at the first
    argmax of g[full, .] and follows those successors, which yields the
    lexicographically smallest of all optimal orders.  When no positive
    path covers every node, the walk's unreachable prefix is fixed and only
    the suffix is walked (see the module docstring).  ``backend`` may only
    be None or "pure" (see ``available_backends``).
    """
    k = matrix.k
    if k < 1:
        raise ValueError("matrix must have at least one state")
    if k > DP_HARD_CAP:
        raise InfeasibleError(
            f"k={k} exceeds the DP cap {DP_HARD_CAP}; use solve_greedy or fewer clusters"
        )
    if backend not in (None, "pure"):
        raise ValueError(f"unknown dp backend {backend!r}")
    logw = np.ascontiguousarray(_log_weights(matrix).T, dtype=np.float64)
    order = _pathpure.frontier_order(logw)
    if order is None:
        order = _dense_order(logw)
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
