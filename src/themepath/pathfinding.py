"""Most probable Hamiltonian path over a transition matrix.

Both solvers share one contract: visit every cluster exactly once,
maximize the product of transition probabilities along the way, free
choice of start and end node.

* ``solve_dp``: exact bitmask dynamic programming (Held-Karp), O(k^2 * 2^k)
  time.  DP_HARD_CAP = 22 is the one cap on it: ``solve_dp`` refuses a
  larger k before it allocates anything, and ``choose_k``'s default clamp
  never exceeds it.  It runs in two passes, each through the same kernel:
  - The reach pass, O(k * 2^k), records for every subset S the k-bit mask
    of the nodes that start a positive-probability path over S: one uint32
    per subset, 4 MB at k = 20 and 16 MB at k = 22, freed before the fill.
  - The fill runs the start-at recurrence over the subsets in cardinality
    order, keeps the values of only two adjacent cardinalities, and records
    one int8 successor per (subset, node) cell for the walk.  Space: the
    2^k * k byte successor table plus the two layers, about 21 + 30 MB at
    k = 20 and 92 + 124 MB at k = 22 with the compiled kernel (a full
    2^k x k float64 table would take 168 MB and 738 MB).
  If some positive path covers every node, the fill covers all k nodes and
  the walk starts at the first argmax of its final row.  If none does, the
  full-table walk starts at node 0 and takes the lowest remaining node for
  as long as its value is -inf: the order is 0, 1, ..., t-1 for the
  smallest t at which a positive path over {t, ..., k-1} starts at t, then
  the walk of that suffix from t.  The fill then covers only the k - t
  suffix nodes: its cells depend only on the weights among them, and
  numbering them 0, ..., k-t-1 keeps their order, so the walk is the same.
  The kernel is the plain-C extension ``_pathcore`` when it is built, else
  the bit-identical numpy module ``_pathpure``.
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

try:
    from . import _pathcore
except ImportError:
    _pathcore = None

DP_HARD_CAP = _pathpure.MAX_K  # the largest k either kernel accepts
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
    """The kernel module, ``_pathcore`` or ``_pathpure``, of a backend name."""
    name = backend if backend is not None else default_backend()
    if name == "compiled":
        if _pathcore is None:
            raise InfeasibleError("compiled dp backend requested but not built")
        return _pathcore
    if name == "pure":
        return _pathpure
    raise ValueError(f"unknown dp backend {name!r}")


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


def _unreachable_prefix(kernel, logw: np.ndarray) -> int:
    """0 if a positive-probability path covers every node, else the smallest
    t at which one over {t, ..., k-1} starts at t."""
    k = logw.shape[0]
    reach = np.empty(1 << k, dtype=np.uint32)
    kernel.fill_reach(logw, reach)
    full = (1 << k) - 1
    if reach[full]:
        return 0
    # {k-1} always starts a path over itself, so the search ends by t = k-1.
    return next(t for t in range(1, k) if (int(reach[full >> t << t]) >> t) & 1)


def solve_dp(matrix: TransitionMatrix, backend: str | None = None) -> HamiltonianPath:
    """Exact solution via the subset DP, reconstructed front to back.

    The kernel fills the start-at recurrence g[S, i] (best log-prob over
    paths that visit S starting at i) and records, per cell, the smallest
    successor that attains it.  The walk starts at the first argmax of
    g[full, .] and follows those successors, which yields the
    lexicographically smallest of all optimal orders.  When no positive
    path covers every node, the reach pass fixes the walk's unreachable
    prefix and the kernel fills only the suffix (see the module docstring).
    """
    k = matrix.k
    if k < 1:
        raise ValueError("matrix must have at least one state")
    if k > DP_HARD_CAP:
        raise InfeasibleError(
            f"k={k} exceeds the DP cap {DP_HARD_CAP}; use solve_greedy or fewer clusters"
        )
    kernel = _kernel(backend)
    logw = np.ascontiguousarray(_log_weights(matrix).T, dtype=np.float64)
    prefix = _unreachable_prefix(kernel, logw)
    logw = np.ascontiguousarray(logw[prefix:, prefix:])
    m = k - prefix
    succ = np.empty((1 << m, m), dtype=np.int8)
    final = np.empty(m, dtype=np.float64)
    kernel.fill_successors(logw, succ, final)

    cur = 0 if prefix else int(np.argmax(final))  # the walk enters a suffix at its first node
    order = [cur]
    mask = (1 << m) - 1
    while len(order) < m:
        nxt = int(succ[mask, cur])
        order.append(nxt)
        mask ^= 1 << cur
        cur = nxt
    order = list(range(prefix)) + [prefix + i for i in order]
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
