"""Most probable Hamiltonian path over a transition matrix.

Both solvers share one contract: visit every cluster exactly once,
maximize the product of transition probabilities along the way, free
choice of start and end node.

* ``solve_dp``: exact bitmask dynamic programming (Held-Karp) on the
  start-at recurrence g[S, i], the best log-prob over paths that visit S
  starting at i.  DP_HARD_CAP = 22 is the one cap on it: ``solve_dp``
  refuses a larger k, or ``probs`` that are not k x k, before it allocates
  anything, and ``choose_k``'s default clamp never exceeds it.  Two numpy
  paths lead to the same walk:
  - The frontier first.  It grows only the positive states, the (S, i) with
    g[S, i] > -inf, one cardinality at a time along positive edges, keeping
    5 bytes per state plus about 100 per candidate of the layer it grows.
    On the perfbench books (k = 20) that is 3,874-14,751 states, a few ms
    and well under 1 MB.  It gives up once its candidate states pass
    FRONTIER_SHARE of the 2^k * k cells, as on noisy books (k = 20 with 10 %
    of the chunks relabelled).
  - Then the dense pass.  A reach pass, O(k * 2^k), records for every
    subset S the k-bit mask of the nodes that start a positive-probability
    path over S: one uint32 per subset, 4 MB at k = 20 and 16 MB at k = 22,
    freed before the fill.  The fill runs the recurrence over the subsets
    in cardinality order, keeps the values of only two adjacent
    cardinalities, and records one int8 successor per (subset, node) cell:
    about 21 + 60 MB at k = 20 and 92 + 248 MB at k = 22.
  Every value either path computes is one IEEE add of previously rounded
  values followed by a max, and the successor of every positive state is
  the lowest node to reach that max, so both give the same order and the
  same bits.

  The no-path rule (``_suffix_start`` and ``_walk``): if some positive path
  covers every node, the walk starts at the first argmax of g[full, .].  If
  none does, the order is 0, 1, ..., t-1 for the smallest t at which a
  positive path over {t, ..., k-1} starts at t, then the walk of that
  suffix from t.  Either way the walk reads positive states alone: the
  successor of a positive state is positive.  ``kmeans`` numbers the
  clusters by first appearance, so on a pipeline matrix that prefix is in
  document order.
  The dense pass then fills only the k - t suffix nodes: its cells depend
  only on the weights among them, and numbering them 0, ..., k-t-1 keeps
  their order, so the walk is the same.
  Two one-chunk asides inside one theme's section leave no positive path;
  the fill is then a suffix of a few nodes and costs little beyond the
  reach pass.
* ``solve_greedy``: best-of-k-starts nearest-successor heuristic for k
  beyond the DP cap.  The pipeline alone picks between the two: the exact
  solver when k <= DP_HARD_CAP, else the heuristic.

All work happens in log space; a zero-probability edge contributes -inf,
so paths through missing transitions stay representable and always rank
below any all-positive path.  When a positive path exists, ``solve_dp``
returns the lexicographically smallest optimal order; when none does, the
no-path rule's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .markov import TransitionMatrix

# The largest k the exact solver accepts: the dense pass's table grows as 2^k * k.
DP_HARD_CAP = 22
# The frontier gives up before its candidate states pass this share of the
# dense table's 2^k * k cells.  On random sparse matrices at k = 16 and 18
# it wins below about 0.07-0.1 of them when no positive path exists (the
# dense pass then fills little beyond the reach masks) and below about 0.7
# when one does.  At 0.05 the work it throws away on an all-positive matrix
# is 1-4 % of the dense solve at k = 16-20.
FRONTIER_SHARE = 0.05
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


def solve_dp(matrix: TransitionMatrix, backend: str | None = None) -> HamiltonianPath:
    """Exact solution via the subset DP, reconstructed front to back.

    Both paths record, per positive state (S, i), the smallest successor
    attaining g[S, i]; walked by the no-path rule (see the module
    docstring), they yield the lexicographically smallest optimal order
    when a positive path exists.
    ``backend`` may only be None or "pure" (see ``available_backends``).
    """
    k = matrix.k
    if np.shape(matrix.probs) != (k, k):
        raise ValueError(f"probs of shape {np.shape(matrix.probs)} are not {k} x {k}")
    if k < 1:
        raise ValueError("matrix must have at least one state")
    if k > DP_HARD_CAP:
        raise InfeasibleError(
            f"k={k} exceeds the DP cap {DP_HARD_CAP}; use solve_greedy or fewer clusters"
        )
    if backend not in (None, "pure"):
        raise ValueError(f"unknown dp backend {backend!r}")
    with np.errstate(divide="ignore"):
        logw = np.ascontiguousarray(np.log(matrix.probs).T, dtype=np.float64)
    order = _frontier_order(logw)
    if order is None:
        order = _dense_order(logw)
    return HamiltonianPath(order=order, log_prob=path_probability(matrix, order), method="dp")


def _suffix_start(k: int, positive) -> int:
    """0 if a positive path covers all k nodes, else the smallest t at which
    one over {t, ..., k-1} starts at t; positive(S, i) tells whether (S, i) starts one."""
    full = (1 << k) - 1
    if any(positive(full, i) for i in range(k)):
        return 0
    # {k-1} always starts a path over itself, so the search ends by t = k-1.
    return next(t for t in range(1, k) if positive(full >> t << t, t))


def _walk(k: int, prefix: int, first: int, successor) -> list[int]:
    """0, ..., prefix-1, then the walk over {prefix, ..., k-1} along successor(S, i),
    the next node of the best path over S from i.  The walk starts at first, the
    first argmax of g[full, .], when prefix is 0, and else at prefix."""
    order = list(range(prefix))
    mask, cur = (1 << k) - 1 >> prefix << prefix, prefix or first
    while True:
        order.append(cur)
        if len(order) == k:
            return order
        mask, cur = mask ^ 1 << cur, successor(mask, cur)


def _frontier_order(logw: np.ndarray) -> list[int] | None:
    """The order of the dense pass, from the positive states alone; None past the budget.

    ``logw`` holds the start-at weights of ``_successors``.  Layer c holds
    the states (S, i) with |S| = c and g[S, i] > -inf, each with that value
    and the lowest j attaining it: the dense fill's value and successor,
    since cells holding -inf never attain a finite max.

    Returns None, before growing the layer that would take the candidate
    states it has made past FRONTIER_SHARE of the 2^k * k cells.
    """
    k = logw.shape[0]
    budget = FRONTIER_SHARE * (1 << k) * k
    nodes = np.arange(k, dtype=np.int64)
    # Bit i of into[j]: the edge i -> j is positive, so (S, j) grows to (S + {i}, i).
    into = np.bitwise_or.reduce((logw > -np.inf).astype(np.int64) << nodes, axis=1)
    keys = 1 << nodes << 5 | nodes  # a state's key is S << 5 | i, and a layer is sorted by it
    values = np.zeros(k)
    layers = [(keys.astype(np.uint32), np.zeros(k, np.int8))]
    made = k
    while len(layers) < k:
        free = into[keys & 31] & ~(keys >> 5)
        made += int(np.bitwise_count(free).sum())
        if made > budget:
            return None
        if not free.any():
            break
        keys, values, succ = _grow(logw, keys, values, free)
        layers.append((keys.astype(np.uint32), succ.astype(np.int8)))

    prefix = _suffix_start(k, lambda mask, i: _next(layers, mask, i) >= 0)
    first = int(keys[np.argmax(values)] & 31)
    return _walk(k, prefix, first, lambda mask, i: _next(layers, mask, i))


def _grow(logw: np.ndarray, keys: np.ndarray, values: np.ndarray, free: np.ndarray):
    """The next layer's (keys, values, successors) from one layer and its free bits."""
    k = logw.shape[0]
    bits = np.unpackbits(free.astype("<u4").view(np.uint8).reshape(-1, 4), axis=1, count=k, bitorder="little")
    # By new node i, then by source (S, j): S -> S + {i} keeps the sources' order,
    # so the sources of one new state are adjacent, by increasing j.
    new, src = np.nonzero(bits.T)
    del bits
    ends = keys[src] & 31
    grown = (keys[src] >> 5 | 1 << new) << 5 | new
    candidates = values[src] + logw[ends, new]
    del new, src
    first = np.flatnonzero(np.diff(grown, prepend=-1))
    best = np.maximum.reduceat(candidates, first)
    hits = np.flatnonzero(candidates == np.repeat(best, np.diff(first, append=len(grown))))
    wins = hits[np.searchsorted(hits, first)]  # the first candidate of each new state to reach its best
    heads = grown[first]
    order = np.argsort(heads, kind="stable")  # a merge of k sorted runs, one per new node
    return heads[order], best[order], ends[wins][order]


def _next(layers: list, mask: int, node: int) -> int:
    """The successor of the state (mask, node), or -1 when it is not positive."""
    c = mask.bit_count()
    if c > len(layers):
        return -1
    keys, succ = layers[c - 1]
    at = int(np.searchsorted(keys, mask << 5 | node))
    return int(succ[at]) if at < len(keys) and keys[at] == mask << 5 | node else -1


def _dense_order(logw: np.ndarray) -> list[int]:
    """The walk of the dense pass: reach, then the successor table of the suffix worth filling."""
    k = logw.shape[0]
    reach = _reach(logw)
    prefix = _suffix_start(k, lambda mask, i: (int(reach[mask]) >> i) & 1)
    del reach
    succ, final = _successors(np.ascontiguousarray(logw[prefix:, prefix:]))
    first = int(np.argmax(final))
    return _walk(k, prefix, first, lambda mask, i: prefix + int(succ[mask >> prefix, i - prefix]))


def _reach(logw: np.ndarray) -> np.ndarray:
    """reach[S]: the k-bit mask of the nodes that start a positive-probability path over S.

    Bit i of reach[S] is set iff g[S, i] > -inf: reach[{i}] = {i}, and for
    larger S iff reach[S\\{i}] meets pos[i], the nodes j with logw[j, i] > -inf.
    reach[0] is 0.  One vectorized gather per (cardinality, node) pair.
    """
    k = logw.shape[0]
    reach = np.empty(1 << k, dtype=np.uint32)
    nodes = np.arange(k, dtype=np.uint32)
    pos = np.bitwise_or.reduce((logw > -np.inf).astype(np.uint32) << nodes[:, None], axis=0)
    pop = np.bitwise_count(np.arange(1 << k, dtype=np.uint32))
    singletons = np.uint32(1) << nodes
    reach[0] = 0
    reach[singletons] = singletons
    for c in range(2, k + 1):
        layer = np.flatnonzero(pop == c)
        bits = np.zeros(len(layer), dtype=np.uint32)
        for i in range(k):
            rows = np.flatnonzero((layer >> i) & 1)
            hit = (reach[layer[rows] ^ (1 << i)] & pos[i]) != 0
            bits[rows] |= hit.astype(np.uint32) << nodes[i]
        reach[layer] = bits
    return reach


def _successors(logw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(succ, final): succ[S, i] for every S of cardinality >= 2 and i in S, and g[full, .].

    ``logw`` holds the start-at weights w[j, i], the transposed transition
    log-probabilities: g[S, i] = max over j in S\\{i} of g[S\\{i}, j] + logw[j, i]
    from g[{i}, i] = 0.  succ[S, i] is the smallest j attaining that max.  A
    cell whose g is -inf holds an index the walk never reads (see the module
    docstring); other cells are unset.

    One vectorized gather/max per (cardinality, node) pair, keeping two
    layers of values.  A layer holds a row of k values per subset; cells for
    nodes outside the subset hold -inf and drop out of the max on their own.
    """
    k = logw.shape[0]
    succ = np.empty((1 << k, k), dtype=np.int8)
    masks = np.arange(1 << k, dtype=np.int64)
    pop = np.bitwise_count(masks)
    order = np.argsort(pop, kind="stable")
    bounds = np.searchsorted(pop[order], np.arange(k + 2))
    del masks, pop
    rank = np.empty(1 << k, dtype=np.int32)
    for c in range(1, k + 1):
        rank[order[bounds[c] : bounds[c + 1]]] = np.arange(bounds[c + 1] - bounds[c])

    width = int(np.diff(bounds).max())
    prev = np.full((width, k), -np.inf)
    cur = np.empty((width, k))
    prev[np.arange(k), np.arange(k)] = 0.0  # singleton {i} has rank i
    for c in range(2, k + 1):
        layer = order[bounds[c] : bounds[c + 1]]
        values = cur[: len(layer)]
        values.fill(-np.inf)
        for i in range(k):
            rows = np.flatnonzero((layer >> i) & 1)
            with_i = layer[rows]
            candidates = prev[rank[with_i ^ (1 << i)]]
            candidates += logw[:, i]
            arg = candidates.argmax(axis=1)
            values[rows, i] = candidates[np.arange(len(arg)), arg]
            succ[with_i, i] = arg
        prev, cur = cur, prev
    return succ, prev[0].copy()


def solve_greedy(matrix: TransitionMatrix) -> HamiltonianPath:
    """Best of k greedy walks, one from each start node.

    Each walk moves to the unvisited successor with maximal probability
    (ties to the lowest id).  The first walk of the highest log-probability
    wins: walk s starts at node s, so that is the lexicographically smallest
    of the best walks.  Never better than solve_dp, but runs in O(k^3) for
    any k.
    """
    k = matrix.k
    if k < 1:
        raise ValueError("matrix must have at least one state")
    probs = matrix.probs
    walks = []
    for start in range(k):
        visited = np.zeros(k, dtype=bool)
        visited[start] = True
        order = [start]
        cur = start
        for _ in range(k - 1):
            # Probabilities are >= 0, so a visited node (-1) never wins, and
            # argmax takes the lowest id among ties.
            cur = int(np.argmax(np.where(visited, -1.0, probs[cur])))
            visited[cur] = True
            order.append(cur)
        walks.append((path_probability(matrix, order), order))
    best_lp, best_order = max(walks, key=lambda walk: walk[0])  # max keeps the first of equals
    return HamiltonianPath(order=best_order, log_prob=best_lp, method="greedy")
