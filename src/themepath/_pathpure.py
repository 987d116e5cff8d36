"""Pure-numpy bitmask-DP kernel; fallback when the compiled C core is absent.

Fills the same reach masks as ``_pathcore.fill_reach``, and the same
successor table and final row as ``_pathcore.fill_successors``, bit for
bit: every value is one IEEE add of previously rounded values followed by
a max, and every successor is the first node to reach that max, so the two
kernels are interchangeable even under exact float comparison.

Space: ``fill_reach`` needs the caller's 2^k uint32 masks plus the 2^k
subsets (uint32), their popcounts (uint8) and one cardinality's subsets.
``fill_successors`` needs the caller's 2^k x k int8 successor table plus
two adjacent cardinality layers of values, max_c C(k, c) x k float64 each,
and the 2^k-entry subset order (int64) and rank (int32) arrays.
"""

from __future__ import annotations

import numpy as np

MAX_K = 22  # MAX_K of _pathcore.c


def _side(logw: np.ndarray) -> int:
    """k of the k x k weights, refused beyond MAX_K before anything is allocated."""
    k = logw.shape[0]
    if logw.shape != (k, k) or k < 1:
        raise ValueError(f"weights of shape {logw.shape} are not k x k for any k >= 1")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the kernel's cap of {MAX_K}")
    return k


def fill_reach(logw: np.ndarray, reach: np.ndarray) -> None:
    """Fill reach[S] with the nodes that start a positive-probability path over S.

    ``logw`` holds the start-at weights of ``fill_successors``.  Bit i of
    reach[S] is set iff g[S, i] > -inf in that kernel's table:
    reach[{i}] = {i}, and for larger S bit i is set iff reach[S\\{i}] meets
    pos[i], the nodes j with logw[j, i] > -inf.  reach[0] is 0.  Subsets
    are processed by increasing cardinality, one vectorized gather per
    (cardinality, node) pair.
    """
    k = _side(logw)
    if (reach.shape, reach.dtype) != ((1 << k,), np.uint32):
        raise ValueError(
            f"a {reach.dtype} array of shape {reach.shape} does not hold 2^k masks for k={k}"
        )
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


def fill_successors(logw: np.ndarray, succ: np.ndarray, final: np.ndarray) -> None:
    """Fill succ[S, i] for every S of cardinality >= 2 and i in S, and final.

    ``logw`` holds the k x k start-at weights w[j, i] (the transposed
    transition log-probabilities).  The start-at table follows the
    recurrence g[S, i] = max over j in S\\{i} of g[S\\{i}, j] + logw[j, i]
    from g[{i}, i] = 0.  ``succ[S, i]`` receives the smallest j attaining
    that max, or the smallest j in S\\{i} when every candidate is -inf;
    ``final`` receives g[full set, i].  Other cells of succ are left as
    they are.

    Subsets are processed by increasing cardinality, one vectorized
    gather/max per (cardinality, node) pair, keeping only two layers of
    values.  A layer holds a row of k values per subset; cells for nodes
    outside the subset hold -inf and drop out of the max on their own.
    """
    k = _side(logw)
    if (succ.shape, succ.dtype, final.shape, final.dtype) != ((1 << k, k), np.int8, (k,), np.float64):
        raise ValueError(
            f"a {succ.dtype} table of shape {succ.shape} and a final row of shape "
            f"{final.shape} do not fit k={k}"
        )

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
            prevs = with_i ^ (1 << i)
            candidates = prev[rank[prevs]]
            candidates += logw[:, i]
            arg = candidates.argmax(axis=1)
            best = candidates[np.arange(len(arg)), arg]
            lowest = np.bitwise_count((prevs & -prevs) - 1)
            values[rows, i] = best
            succ[with_i, i] = np.where(best == -np.inf, lowest, arg)
        prev, cur = cur, prev
    final[:] = prev[0]
