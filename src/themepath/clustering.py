"""k-means++ clustering of chunk vectors and representative selection.

The k-means++ draws come from ``_rng.Generator``: the stream of
``np.random.default_rng`` (PCG64 through numpy's SeedSequence), written in
the package.  So partitions are reproducible for a given seed and do not
change with numpy's ``Generator`` methods.  Distances are Euclidean; on
the unit vectors produced by the embeddings module that ordering is
equivalent to cosine similarity.  ``kmeans`` lowers k to the number of
distinct rows and numbers the clusters by first appearance in chunk order
(labels[0] is 0).

Each Lloyd step computes the (n, k) squared distances through the
expansion ||x||^2 - 2 x.c^T + ||c||^2: one matrix product, clamped at 0
against rounding.  ||x||^2 is computed once per ``kmeans`` call, so a
step's working memory is O(n*k) on top of the O(n*d) input, where the
direct difference formula would hold an n*k*d tensor (about 270 MB at
n = 2000, d = 768, k = 22).  Seeding takes each draw's D^2 column from
the same expansion, one matrix-vector product.  A step's inertia is
total minus between sum of squares, O(k*d); only the final partition's
inertia, which picks the winning start, is the plain residual sum.  The
total sum of squares and that final sum use one n*d scratch buffer
allocated once per ``kmeans`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import Generator
from .errors import InfeasibleError
from .pathfinding import DP_HARD_CAP


@dataclass
class ClusterAssignment:
    """Labels in chunk order (the transition sequence), centroids, inertia."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    k: int
    seed: int
    inertia_history: list[float] = field(default_factory=list)


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    return np.einsum("nd,nd->n", vectors, vectors)


def _squared_distances(
    vectors: np.ndarray, centroids: np.ndarray, vector_norms: np.ndarray
) -> np.ndarray:
    """(n, k) matrix of squared Euclidean distances, never negative.

    ``vector_norms`` is ``_squared_norms(vectors)``, computed once by the
    caller because the same vectors meet many centroid sets.
    """
    d2 = vectors @ centroids.T
    d2 *= -2.0
    d2 += vector_norms[:, None]
    d2 += _squared_norms(centroids)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def distinct_count(vectors: np.ndarray) -> int:
    """The number of distinct rows, counted as ``np.unique(vectors, axis=0)`` does.

    The rows are sorted as opaque bytes.  Adding 0.0 turns -0.0 into 0.0,
    so finite rows that compare equal have equal bytes.  ``np.unique``
    imports ``numpy.ma``, which no stage otherwise needs.
    """
    rows = np.ascontiguousarray(vectors, dtype=np.float64) + 0.0
    if rows.shape[0] == 0:
        return 0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _squared_residuals(vectors: np.ndarray, targets: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``(vectors - targets) ** 2`` written into ``work``, an n x d scratch buffer.

    ``targets`` is one row or an (n, d) array.  The sums taken over the
    result add the same values in the same order as over the temporary
    array of the plain expression, so they are bit-identical to it.
    """
    np.subtract(vectors, targets, out=work)
    return np.multiply(work, work, out=work)


def _seed_centroids(
    vectors: np.ndarray, k: int, rng: Generator, vector_norms: np.ndarray
) -> np.ndarray:
    """k-means++ draws; each drawn row's D^2 column is one matrix-vector product.

    Where the expansion rounds every D^2 left to 0 (distinct rows closer
    than its rounding), that draw's D^2 is taken again by the difference
    formula; if that is 0 too, the rows cannot be told apart and the draw
    is refused.
    """
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]), dtype=np.float64)
    centroids[0] = vectors[rng.integers(n)]
    if k == 1:
        return centroids
    d2 = _squared_distances(vectors, centroids[:1], vector_norms)[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if not total > 0:
            d2 = np.min([((vectors - c) ** 2).sum(axis=1) for c in centroids[:i]], axis=0)
            total = d2.sum()
            if not total > 0:
                raise InfeasibleError(
                    f"k-means++ cannot draw centroid {i + 1} of {k}: every row's squared "
                    "distance to the centroids drawn so far is 0 in float64"
                )
        idx = rng.choice(n, d2 / total)
        centroids[i] = vectors[idx]
        column = _squared_distances(vectors, centroids[i : i + 1], vector_norms)[:, 0]
        np.minimum(d2, column, out=d2)
    return centroids


def _feasible_k(vectors: np.ndarray, k: int) -> int:
    """min(k, the number of distinct rows).

    k distinct rows among the first k settle it without sorting all n rows.
    When k >= n that prefix is every row, so the rows are counted once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k < vectors.shape[0] and distinct_count(vectors[:k]) == k:
        return k
    return min(k, distinct_count(vectors))


def kmeanspp_seed(vectors: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Arthur-Vassilvitskii seeding: first centroid uniform, the rest D^2-weighted.

    Deterministic for a given seed. Requires k <= number of distinct vectors,
    otherwise some draw would have zero probability mass everywhere.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    available = _feasible_k(vectors, k)
    if available < k:
        raise InfeasibleError(f"k={k} exceeds the {available} distinct vectors available")
    return _seed_centroids(vectors, k, Generator(seed), _squared_norms(vectors))


def kmeans(
    vectors: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    init_centroids: np.ndarray | None = None,
    n_init: int = 10,
) -> ClusterAssignment:
    """Best of n_init seeded k-means++ starts, each refined by Lloyd iterations.

    All starts draw from one generator seeded with ``seed``, so the result is
    deterministic; the lowest-inertia run wins (earlier run kept on ties).
    Passing init_centroids runs Lloyd once from exactly those centroids.
    k is lowered to the number of distinct rows; the result's ``k`` is the
    one used.  Clusters are numbered by first appearance: the first chunk's
    cluster is 0, the first chunk outside it starts cluster 1, and so on.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    k = _feasible_k(vectors, k)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    norms = _squared_norms(vectors)
    work = np.empty_like(vectors)  # the one n x d scratch buffer of the whole call
    mean = vectors.mean(axis=0)
    total_ss = float(_squared_residuals(vectors, mean, work).sum())
    if init_centroids is not None:
        centroids = np.array(init_centroids, dtype=np.float64, copy=True)
        if centroids.shape != (k, vectors.shape[1]):
            raise ValueError(f"init_centroids of shape {centroids.shape} are not {k} x {vectors.shape[1]}")
        best = _lloyd(vectors, k, centroids, max_iters, tol, seed, norms, mean, total_ss, work)
    else:
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        rng = Generator(seed)
        best = None
        for _ in range(n_init):
            centroids = _seed_centroids(vectors, k, rng, norms)
            run = _lloyd(vectors, k, centroids, max_iters, tol, seed, norms, mean, total_ss, work)
            if best is None or run.inertia < best.inertia:
                best = run
    # Lloyd leaves no cluster empty, so the first appearances are a permutation of range(k).
    order = list(dict.fromkeys(best.labels.tolist()))
    rank = np.empty(k, dtype=best.labels.dtype)
    rank[order] = np.arange(k)
    best.labels = rank[best.labels]
    best.centroids = best.centroids[order]
    return best


def _lloyd(
    vectors: np.ndarray,
    k: int,
    centroids: np.ndarray,
    max_iters: int,
    tol: float,
    seed: int,
    vector_norms: np.ndarray,
    mean: np.ndarray,
    total_ss: float,
    work: np.ndarray,
) -> ClusterAssignment:
    """Alternate assignment and centroid update until the centroids settle.

    Ties in nearest-centroid assignment go to the lowest cluster id. If an
    assignment step empties a cluster its centroid is reseeded to the point
    farthest from it (taken from a cluster with >= 2 members), which keeps
    every cluster non-empty and keeps inertia non-increasing.

    Each step's inertia goes into the history as total minus between sum of
    squares, ``total_ss - sum_c m_c ||mu_c - mean||^2``, at O(k*d) per step;
    centring on the grand mean bounds its rounding by the data's spread.
    The returned inertia is the plain residual sum of the final partition.
    """
    n = vectors.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iters):
        d2 = _squared_distances(vectors, centroids, vector_norms)
        labels = np.argmin(d2, axis=1)  # argmin takes the lowest id on ties

        counts = np.bincount(labels, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                continue
            eligible = counts[labels] >= 2
            candidate = np.where(eligible, d2[:, c], -np.inf)
            p = int(np.argmax(candidate))
            counts[labels[p]] -= 1
            labels[p] = c
            counts[c] = 1

        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = vectors[labels == c].mean(axis=0)

        between = float(counts @ _squared_norms(new_centroids - mean))
        history.append(max(total_ss - between, 0.0))

        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break

    # labels are always in range; mode="raise" would buffer out in an n x d copy
    np.take(centroids, labels, axis=0, out=work, mode="clip")
    return ClusterAssignment(
        labels=labels,
        centroids=centroids,
        inertia=float(_squared_residuals(vectors, work, work).sum()),
        k=k,
        seed=seed,
        inertia_history=history,
    )


def representatives(
    assignment: ClusterAssignment, vectors: np.ndarray, top_k: int = 5
) -> dict[int, list[int]]:
    """Per cluster, the min(top_k, size) member indices nearest its centroid.

    Ties break toward the lower chunk index; distances are non-decreasing
    within each list.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    reps: dict[int, list[int]] = {}
    for c in range(assignment.k):
        members = np.flatnonzero(assignment.labels == c)
        dists = ((vectors[members] - assignment.centroids[c]) ** 2).sum(axis=1)
        order = np.argsort(dists, kind="stable")  # stable: lower index wins ties
        reps[c] = [int(members[i]) for i in order[: min(top_k, len(members))]]
    return reps


def choose_k(num_chunks: int, k_override: int | None = None) -> int:
    """Pick the cluster count: an explicit override, else sqrt(n/2) clamped to [2, DP_HARD_CAP].

    The upper clamp keeps exact pathfinding feasible by default; the result
    never exceeds the number of chunks.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if k_override is not None:
        if k_override < 1:
            raise ValueError(f"k must be >= 1, got {k_override}")
        return min(k_override, num_chunks)
    k = int(round(math.sqrt(num_chunks / 2)))
    return min(max(2, min(k, DP_HARD_CAP)), num_chunks)
