"""Pure-numpy bitmask-DP kernel; fallback when the compiled C core is absent.

Fills the same successor table and final row as
``_pathcore.fill_successors`` bit for bit: every value is one IEEE add of
previously rounded values followed by a max, and every successor is the
first node to reach that max, so the two kernels are interchangeable even
under exact float comparison.

Space: the caller's 2^k x k int8 successor table plus two adjacent
cardinality layers of values, max_c C(k, c) x k float64 each, and the
2^k-entry subset order (int64) and rank (int32) arrays.
"""

from __future__ import annotations

import numpy as np

MAX_K = 22  # MAX_K of _pathcore.c


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
    k = logw.shape[0]
    if logw.shape != (k, k) or k < 1:
        raise ValueError(f"weights of shape {logw.shape} are not k x k for any k >= 1")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the kernel's cap of {MAX_K}")
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
