"""Numpy kernels of the exact path solver.

``frontier_order`` solves over the positive states alone: the (S, i) that
start a positive-probability path over the subset S.  Cluster matrices are
sparse, so there are few of them (3,874-14,751 of the 2^20 * 20 at k = 20
on the perfbench books).  When there are many it gives up, and the dense
pass takes over: ``fill_reach`` to find the suffix worth filling, then
``fill_successors`` over every (subset, node) cell of it.

Every value either path computes is one IEEE add of previously rounded
values followed by a max, and every successor is the first node to reach
that max, so both give the same order and the same bits.

Space: ``frontier_order`` keeps 5 bytes per state, plus about 100 bytes
per candidate of the layer it is growing.  ``fill_reach`` needs the caller's 2^k
uint32 masks plus the 2^k subsets (uint32), their popcounts (uint8) and one
cardinality's subsets.  ``fill_successors`` needs the caller's 2^k x k int8
successor table plus two adjacent cardinality layers of values,
max_c C(k, c) x k float64 each, and the 2^k-entry subset order (int64) and
rank (int32) arrays.
"""

from __future__ import annotations

import numpy as np

MAX_K = 22
# The frontier gives up before its candidate states pass this share of the
# dense table's 2^k * k cells.  On random sparse matrices at k = 16 and 18
# it wins below about 0.07-0.1 of them when no positive path exists (the
# dense pass then fills little beyond the reach masks) and below about 0.7
# when one does.  At 0.05 the work it throws away on an all-positive matrix
# is 1-4 % of the dense solve at k = 16-20.
FRONTIER_SHARE = 0.05


def _side(logw: np.ndarray) -> int:
    """k of the k x k weights, refused beyond MAX_K before anything is allocated."""
    k = logw.shape[0]
    if logw.shape != (k, k) or k < 1:
        raise ValueError(f"weights of shape {logw.shape} are not k x k for any k >= 1")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the kernel's cap of {MAX_K}")
    return k


def frontier_order(logw: np.ndarray) -> list[int] | None:
    """The order of the dense solve, from the positive states alone; None past the budget.

    ``logw`` holds the start-at weights of ``fill_successors``.  Layer c
    holds the states (S, i) with |S| = c and g[S, i] > -inf, each with that
    value and the lowest j attaining it: the dense fill's value and
    successor, since cells holding -inf never attain a finite max.  If the
    full set has a state, the walk starts at the first argmax of its values.
    Otherwise it is 0, ..., t-1, then the walk from ({t, ..., k-1}, t) for
    the smallest t with that state (the suffix rule of ``pathfinding``).

    Returns None, before growing the layer that would take the candidate
    states it has made past FRONTIER_SHARE of the 2^k * k cells.
    """
    k = _side(logw)
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

    full = (1 << k) - 1
    if len(layers) == k:
        prefix, cur = 0, int(keys[np.argmax(values)] & 31)
    else:
        # {k-1} always starts a path over itself, so the search ends by t = k-1.
        prefix = next(t for t in range(1, k) if _index(layers, full >> t << t, t) >= 0)
        cur = prefix
    order = list(range(prefix))
    mask = full >> prefix << prefix
    while True:
        order.append(cur)
        if len(order) == k:
            return order
        succ = layers[mask.bit_count() - 1][1]
        mask, cur = mask ^ 1 << cur, int(succ[_index(layers, mask, cur)])


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


def _index(layers: list, mask: int, node: int) -> int:
    """Position of the state (mask, node) in its layer, or -1 when it is not positive."""
    c = mask.bit_count()
    if c > len(layers):
        return -1
    keys = layers[c - 1][0]
    at = int(np.searchsorted(keys, mask << 5 | node))
    return at if at < len(keys) and keys[at] == mask << 5 | node else -1


def _writable(*buffers: np.ndarray) -> None:
    """Refuse read-only output buffers before any of them is written."""
    if not all(b.flags.writeable for b in buffers):
        raise ValueError("an output buffer is read-only")


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
    _writable(reach)
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
    _writable(succ, final)

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
