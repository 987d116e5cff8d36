"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np

from themepath.chunking import Chunk, ChunkerConfig, TokenSequence
from themepath.clustering import ClusterAssignment, _squared_distances, _squared_norms
from themepath.embeddings import _TEST_HASH_SEED, TEST_PROVIDER_DIM, normalize
from themepath.errors import InfeasibleError
from themepath.markov import TransitionMatrix
from themepath.pathfinding import HamiltonianPath, path_probability

BRUTE_CAP = 10
_NEG_INF = float("-inf")
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")


def oracle_tokenize(text: str) -> TokenSequence:
    """Tokens with UTF-8 byte offsets, one regex match at a time."""
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    if text.isascii():
        for m in _TOKEN_RE.finditer(text):
            tokens.append(m.group())
            offsets.append(m.span())
    else:
        # Track the char -> byte cursor incrementally; offsets are UTF-8 byte
        # positions even when the regex works in code points.
        char_pos = 0
        byte_pos = 0
        for m in _TOKEN_RE.finditer(text):
            byte_pos += len(text[char_pos : m.start()].encode("utf-8"))
            token = m.group()
            token_bytes = len(token.encode("utf-8"))
            tokens.append(token)
            offsets.append((byte_pos, byte_pos + token_bytes))
            byte_pos += token_bytes
            char_pos = m.end()
    return TokenSequence(tokens=tokens, offsets=offsets)


def oracle_chunk_document(text: str, cfg: ChunkerConfig) -> list[Chunk]:
    """Fixed-size overlapping token windows, cut at oracle_tokenize's offsets."""
    seq = oracle_tokenize(text)
    total = len(seq)
    if total == 0:
        return []

    encoded = text.encode("utf-8")
    stride = cfg.chunk_size - cfg.overlap
    chunks: list[Chunk] = []
    index = 0
    start = 0
    while True:
        end = min(start + cfg.chunk_size, total)
        byte_start = seq.offsets[start][0]
        byte_end = seq.offsets[end - 1][1]
        chunks.append(
            Chunk(
                index=index,
                text=encoded[byte_start:byte_end].decode("utf-8"),
                token_count=end - start,
                byte_span=(byte_start, byte_end),
                token_span=(start, end),
            )
        )
        if end >= total:
            return chunks
        index += 1
        start = index * stride


def oracle_distinct_count(vectors: np.ndarray) -> int:
    """The number of distinct rows, as ``np.unique`` counts them (-0.0 equals 0.0)."""
    return len(np.unique(vectors, axis=0))


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


def oracle_dp_table(logw: np.ndarray) -> np.ndarray:
    """The full 2^k x k ending-at table of the k x k weights, one cardinality at a time.

    dp[S, i] = max over j in S\\{i} of dp[S\\{i}, j] + logw[j, i], from
    dp[{i}, i] = 0; cells with i outside S hold -inf.
    """
    k = logw.shape[0]
    dp = np.full((1 << k, k), -np.inf)
    nodes = np.arange(k)
    dp[1 << nodes, nodes] = 0.0
    masks = np.arange(1 << k, dtype=np.int64)
    pop = np.bitwise_count(masks)
    for c in range(2, k + 1):
        layer = masks[pop == c]
        for i in range(k):
            with_i = layer[(layer >> i) & 1 == 1]
            dp[with_i, i] = (dp[with_i ^ (1 << i)] + logw[:, i]).max(axis=1)
    return dp


def oracle_solve_dp(matrix: TransitionMatrix) -> HamiltonianPath:
    """The full-table solver: the start-at table g, walked front to back.

    From the first argmax of g[full], each step takes the smallest next node
    whose value meets the recurrence exactly.
    """
    k = matrix.k
    with np.errstate(divide="ignore"):
        logw = np.log(matrix.probs)
    g = oracle_dp_table(np.ascontiguousarray(logw.T))
    full = (1 << k) - 1
    final = g[full]
    start = int(np.flatnonzero(final == final.max())[0])
    order = [start]
    mask, cur = full, start
    while len(order) < k:
        rest = mask ^ (1 << cur)
        target = g[mask, cur]
        nxt = next(j for j in range(k) if (rest >> j) & 1 and logw[cur, j] + g[rest, j] == target)
        order.append(nxt)
        mask, cur = rest, nxt
    return HamiltonianPath(order=order, log_prob=path_probability(matrix, order), method="dp")


def oracle_greedy(matrix: TransitionMatrix) -> HamiltonianPath:
    """Best of k greedy walks, each successor found by a scan over every node.

    A walk moves to the unvisited node of maximal probability, the lowest id
    on ties; the best walk wins, the smallest order on ties.
    """
    k = matrix.k
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
    return HamiltonianPath(order=best_order, log_prob=best_lp, method="greedy")


def per_token_test_vector(text: str) -> np.ndarray:
    """The deterministic-test embedding with one sha256 per token occurrence."""
    vec = np.zeros(TEST_PROVIDER_DIM, dtype=np.float64)
    for token in oracle_tokenize(text.lower()).tokens:
        digest = hashlib.sha256(_TEST_HASH_SEED + token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM
        vec[idx] += 1.0 if digest[4] & 1 else -1.0
    if not vec.any():
        digest = hashlib.sha256(_TEST_HASH_SEED + text.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM] = 1.0
    return normalize(vec)


def _oracle_squared_residuals(
    vectors: np.ndarray, targets: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """``(vectors - targets) ** 2`` written into ``work``, an n x d scratch buffer."""
    np.subtract(vectors, targets, out=work)
    return np.multiply(work, work, out=work)


def _oracle_seed_centroids(
    vectors: np.ndarray, k: int, rng: np.random.Generator, work: np.ndarray
) -> np.ndarray:
    """k-means++ seeding with each draw's D^2 from subtract, square and row-sum."""
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]), dtype=np.float64)
    centroids[0] = vectors[int(rng.integers(n))]
    if k == 1:
        return centroids
    d2 = _oracle_squared_residuals(vectors, centroids[0], work).sum(axis=1)
    for i in range(1, k):
        probs = d2 / d2.sum()
        idx = int(rng.choice(n, p=probs))
        centroids[i] = vectors[idx]
        d2 = np.minimum(d2, _oracle_squared_residuals(vectors, centroids[i], work).sum(axis=1))
    return centroids


def oracle_kmeans(
    vectors: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    init_centroids: np.ndarray | None = None,
    n_init: int = 10,
) -> ClusterAssignment:
    """k-means with masked-mean updates and the plain inertia after every Lloyd step.

    Best of n_init k-means++ starts drawn from one generator seeded with
    ``seed``; the lowest-inertia run wins, the earlier one on ties.  k is
    first lowered to the number of distinct rows, all of them counted, and
    the winner's clusters are renumbered by first appearance.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, oracle_distinct_count(vectors))
    norms = _squared_norms(vectors)
    work = np.empty_like(vectors)
    if init_centroids is not None:
        centroids = np.array(init_centroids, dtype=np.float64, copy=True)
        if centroids.shape != (k, vectors.shape[1]):
            raise ValueError("init_centroids shape mismatch")
        return _oracle_first_appearance(
            _oracle_lloyd(vectors, k, centroids, max_iters, tol, seed, norms, work)
        )
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    rng = np.random.default_rng(seed)
    best: ClusterAssignment | None = None
    for _ in range(n_init):
        centroids = _oracle_seed_centroids(vectors, k, rng, work)
        run = _oracle_lloyd(vectors, k, centroids, max_iters, tol, seed, norms, work)
        if best is None or run.inertia < best.inertia:
            best = run
    return _oracle_first_appearance(best)


def _oracle_first_appearance(run: ClusterAssignment) -> ClusterAssignment:
    """The same partition, each cluster renamed to the number of clusters seen before it."""
    ids: dict[int, int] = {}
    for label in run.labels.tolist():
        ids.setdefault(label, len(ids))
    centroids = np.empty_like(run.centroids)
    for old, new in ids.items():
        centroids[new] = run.centroids[old]
    labels = np.array([ids[label] for label in run.labels.tolist()], dtype=np.int64)
    return dataclasses.replace(run, labels=labels, centroids=centroids)


def _oracle_lloyd(
    vectors: np.ndarray,
    k: int,
    centroids: np.ndarray,
    max_iters: int,
    tol: float,
    seed: int,
    vector_norms: np.ndarray,
    work: np.ndarray,
) -> ClusterAssignment:
    """Lloyd iterations; an emptied cluster takes the eligible point farthest from it."""
    n = vectors.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iters):
        d2 = _squared_distances(vectors, centroids, vector_norms)
        labels = np.argmin(d2, axis=1)

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

        np.take(new_centroids, labels, axis=0, out=work, mode="clip")
        inertia = float(_oracle_squared_residuals(vectors, work, work).sum())
        history.append(inertia)

        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < tol:
            break

    return ClusterAssignment(
        labels=labels,
        centroids=centroids,
        inertia=history[-1],
        k=k,
        seed=seed,
        inertia_history=history,
    )
