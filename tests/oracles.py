"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from themepath.chunking import tokenize
from themepath.embeddings import _TEST_HASH_SEED, TEST_PROVIDER_DIM, normalize
from themepath.errors import InfeasibleError
from themepath.markov import TransitionMatrix
from themepath.pathfinding import HamiltonianPath, path_probability

BRUTE_CAP = 10
_NEG_INF = float("-inf")


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


def per_token_test_vector(text: str) -> np.ndarray:
    """The deterministic-test embedding with one sha256 per token occurrence."""
    vec = np.zeros(TEST_PROVIDER_DIM, dtype=np.float64)
    for token in tokenize(text.lower()).tokens:
        digest = hashlib.sha256(_TEST_HASH_SEED + token.encode("utf-8")).digest()
        idx = int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM
        vec[idx] += 1.0 if digest[4] & 1 else -1.0
    if not vec.any():
        digest = hashlib.sha256(_TEST_HASH_SEED + text.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM] = 1.0
    return normalize(vec)
