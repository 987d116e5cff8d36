"""Reference implementations the tests compare the package against."""

from __future__ import annotations

import hashlib
import itertools
import math
import re

import numpy as np

from themepath.chunking import Chunk, ChunkerConfig, TokenSequence
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
