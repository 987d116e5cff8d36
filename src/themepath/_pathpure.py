"""Pure-numpy bitmask-DP kernel; fallback when the compiled C core is absent.

Fills the same table as ``_pathcore.fill_table`` bit for bit: every cell is
one IEEE add of previously rounded values followed by a max, so the two
kernels are interchangeable even under exact float comparison.
"""

from __future__ import annotations

import numpy as np


def fill_table(logw: np.ndarray, dp: np.ndarray) -> None:
    """Fill every cell of cardinality >= 2 of dp[S, i], the ending-at table.

    Recurrence: dp[S, i] = max over j in S\\{i} of dp[S\\{i}, j] + logw[j, i].
    ``dp`` arrives holding -inf everywhere but the singleton cells
    dp[{i}, i] = 0.  Subsets are processed by increasing cardinality, one
    vectorized gather/max per (cardinality, end-node) pair.  Cells for j
    outside the subset hold -inf and drop out of the max on their own.
    """
    k = logw.shape[0]
    masks = np.arange(1 << k, dtype=np.int64)
    pop = np.bitwise_count(masks)
    order = np.argsort(pop, kind="stable")
    boundaries = np.searchsorted(pop[order], np.arange(k + 2))

    for c in range(2, k + 1):
        layer = order[boundaries[c] : boundaries[c + 1]]
        for i in range(k):
            with_i = layer[(layer >> i) & 1 == 1]
            prevs = with_i ^ (1 << i)
            candidates = dp[prevs] + logw[:, i]
            dp[with_i, i] = candidates.max(axis=1)
