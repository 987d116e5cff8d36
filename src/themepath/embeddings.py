"""Embedding providers, vector utilities, and the on-disk vector cache.

Two providers share one contract ("texts in, one vector per text out"):

* ``deterministic-test`` hashes token features into a fixed 64-dim vector.
  It counts a text's whitespace-separated words and adds up each distinct
  word's token features times its count, hashing each distinct token once
  per call.  It is bit-stable across processes and platforms, which makes
  every downstream stage testable offline.
* ``remote`` speaks the OpenAI-compatible embeddings contract, with retry
  and exponential backoff: it posts ``{"model": ..., "input": [texts]}``
  and reads ``data[i].embedding``.  Each reply is decoded into one
  (n, dim) float64 array of finite numbers; anything else is a
  ProtocolError, raised before the batch is cached.

All vectors are L2-normalized before they leave this module, so Euclidean
k-means downstream ranks pairs exactly like cosine similarity would.

The cache is one sqlite3 file, ``embeddings.sqlite3`` in ``cache_dir``,
with one row per (model, text) holding the vector's float64 bytes.  An
``embed_batch`` call opens it once, writes each fetched batch in one
transaction from the worker that fetched it, and closes it on the way out.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import threading
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chunking import split_tokens
from .errors import DegenerateInputError, ProtocolError
from .transport import Remote, map_ordered, post_json

log = logging.getLogger(__name__)

TEST_PROVIDER_DIM = 64
_TEST_HASH_SEED = b"themepath-det-v1:"


@dataclass
class EmbeddingProviderConfig(Remote):
    kind: str = "deterministic-test"  # or "remote"
    model_name: str = "nomic-embed-text-v1"
    batch_size: int = 32  # texts per call; parallelism counts batches in flight
    cache_dir: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("deterministic-test", "remote"):
            raise ValueError(f"unknown embedding provider kind: {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote embedding provider requires an endpoint")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale v to unit Euclidean norm. Raises on the zero vector."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DegenerateInputError("cannot normalize the zero vector")
    return v / norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a|*|b|), clamped to [-1, 1] against rounding."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero vectors")
    return float(np.clip(float(np.dot(a, b)) / (na * nb), -1.0, 1.0))


def _token_feature(token: str) -> tuple[int, int]:
    """The (index, sign) one token adds to a test vector.

    Uses sha256 so the result is identical on every platform and process
    (Python's built-in hash() is salted and would not be).
    """
    digest = hashlib.sha256(_TEST_HASH_SEED + token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM, 1 if digest[4] & 1 else -1


def _test_vectors(texts: list[str]) -> list[np.ndarray]:
    """Feature-hash each text's lowercased tokens into 64 dims, sum, normalize.

    No token spans whitespace, and ``str.split`` splits at exactly the
    characters ``\\s`` matches, so a text's tokens are those of its words.
    A text's vector adds each distinct word's token features times the
    word's count, in Python integers: the sums are exact, so the bits are
    those of adding one +-1 term per token.  A word that is a token seen
    before, most words, is looked up whole; the text's other words are
    tokenized in one pass per count.  Each distinct token is hashed once per
    call, and memory grows with the call's distinct tokens, not its words.
    """
    features: dict[str, tuple[int, int]] = {}  # token -> (index, sign)
    vectors = []
    for text in texts:
        sums = [0] * TEST_PROVIDER_DIM
        # count -> the words that are not a token seen before
        rest: dict[int, list[str]] = defaultdict(list)
        for word, count in Counter(text.lower().split()).items():
            feature = features.get(word)
            if feature is None:
                rest[count].append(word)
            else:
                idx, sign = feature
                sums[idx] += sign * count
        for count, words in rest.items():
            for token in split_tokens(" ".join(words)):
                feature = features.get(token)
                if feature is None:
                    feature = features[token] = _token_feature(token)
                idx, sign = feature
                sums[idx] += sign * count
        vec = np.array(sums, dtype=np.float64)
        if not vec.any():
            # No tokens, or exact sign cancellation: fall back to a basis vector
            # derived from the whole text so the output is never degenerate.
            digest = hashlib.sha256(_TEST_HASH_SEED + text.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM] = 1.0
        vectors.append(normalize(vec))
    return vectors


def _test_vector(text: str) -> np.ndarray:
    return _test_vectors([text])[0]


class EmbeddingCache:
    """One sqlite3 database, ``embeddings.sqlite3``, inside ``root``.

    A row maps ``key(model, text)`` to the vector's little-endian float64
    bytes.  A row that does not decode to finite numbers is a miss.  A
    store that is not a database is warned about once and left as it is;
    the cache then reads and writes nothing.  One connection serves every thread, under a lock;
    close it with ``close()`` or a ``with`` block.  Values are deterministic
    per key, so concurrent last-write-wins races are benign.
    """

    FILENAME = "embeddings.sqlite3"

    def __init__(self, root: str):
        # Imported on first use, like http.client in transport: offline runs
        # and the CLI's start-up never pay for it.
        import sqlite3

        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, self.FILENAME)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        # Runs once: on close(), or when a cache nobody closed is collected.
        self._close = weakref.finalize(self, self._db.close)
        try:
            self._db.execute("CREATE TABLE IF NOT EXISTS vectors (key TEXT PRIMARY KEY, value BLOB NOT NULL)")
        except sqlite3.DatabaseError as exc:
            log.warning("embedding cache %s is unusable, running uncached: %s", self.path, exc)
            self.close()

    def close(self) -> None:
        with self._lock:
            self._db = None
            self._close()

    def __enter__(self) -> "EmbeddingCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def key(model_name: str, text: str) -> str:
        h = hashlib.sha256()
        h.update(model_name.encode("utf-8"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        return h.hexdigest()

    def get(self, model_name: str, text: str) -> np.ndarray | None:
        key = self.key(model_name, text)
        with self._lock:
            if self._db is None:
                return None
            row = self._db.execute("SELECT value FROM vectors WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        value = row[0]
        if isinstance(value, bytes) and value and not len(value) % 8:
            vec = np.frombuffer(value, dtype="<f8").astype(np.float64)
            if np.isfinite(vec).all():
                return vec
        log.warning("corrupt cache entry %s in %s treated as miss", key, self.path)
        return None

    def put(self, model_name: str, texts: list[str], vectors: list[np.ndarray]) -> None:
        """Store one batch of vectors, one per text, in one transaction."""
        rows = [
            (self.key(model_name, text), np.asarray(vec, dtype="<f8").tobytes())
            for text, vec in zip(texts, vectors, strict=True)
        ]
        with self._lock:
            if self._db is not None:
                with self._db:
                    self._db.executemany("INSERT OR REPLACE INTO vectors VALUES (?, ?)", rows)


def _remote_call(texts: list[str], cfg: EmbeddingProviderConfig) -> list[np.ndarray]:
    data = post_json(cfg, {"model": cfg.model_name, "input": texts})
    items = data.get("data") if isinstance(data, dict) else None
    got = len(items) if isinstance(items, list) else type(items).__name__
    if got != len(texts):
        raise ProtocolError(f"expected 'data' to list {len(texts)} vectors, got {got}")
    if not all(isinstance(item, dict) and "embedding" in item for item in items):
        raise ProtocolError("response items are not objects with an 'embedding' field")
    try:
        vectors = np.array([item["embedding"] for item in items], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"response vectors are not equal-length lists of numbers: {exc}") from exc
    if vectors.ndim != 2 or vectors.shape[1] == 0:
        raise ProtocolError(f"response vectors do not form a non-empty (n, dim) table: shape {vectors.shape}")
    # Checked before anything is normalized or cached: a cached bad vector
    # would be served on every later run without asking the provider again.
    if not np.isfinite(vectors).all():
        raise ProtocolError("provider returned non-finite embedding values")
    # Freed first, the reply's lists of floats make room for the normalized
    # rows; normalizing before raised a four-book process's RSS by 1.4 MB.
    del data, items
    return [normalize(v) for v in vectors]


def embed_batch(texts: list[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    """Embed texts in order; returns an (n, dim) float64 array of unit vectors.

    Each provider makes unit vectors, which are cached and returned as they
    come.  With cache_dir set, hits skip the provider entirely; results are
    identical either way because providers are pure functions of the text.
    Remote misses go out in batches of batch_size, up to parallelism at
    once; each batch's vectors are cached in one transaction by the worker
    that fetched them, so a failed batch costs only itself.
    """
    if not texts:
        raise ValueError("embed_batch requires at least one text")
    cache = EmbeddingCache(cfg.cache_dir) if cfg.cache_dir else None
    with cache or contextlib.nullcontext():
        vectors: list[np.ndarray | None] = [None] * len(texts)
        missing: list[int] = []
        if cache is not None:
            for i, text in enumerate(texts):
                vectors[i] = cache.get(cfg.model_name, text)
                if vectors[i] is None:
                    missing.append(i)
        else:
            missing = list(range(len(texts)))

        if cfg.kind == "deterministic-test":
            # One call for all misses, so each distinct word is summed once.
            provider, batch_size = _test_vectors, max(len(missing), 1)
        else:
            provider, batch_size = partial(_remote_call, cfg=cfg), cfg.batch_size

        def fetch(batch: list[int]) -> None:
            batch_texts = [texts[i] for i in batch]
            for i, vec in zip(batch, provider(batch_texts)):
                vectors[i] = vec
            if cache is not None:
                cache.put(cfg.model_name, batch_texts, [vectors[i] for i in batch])

        batches = [missing[i : i + batch_size] for i in range(0, len(missing), batch_size)]
        map_ordered(fetch, batches, cfg.parallelism)

    dims = {v.shape[0] for v in vectors}
    if len(dims) != 1:
        raise ProtocolError(f"inconsistent embedding dimensions: {sorted(dims)}")
    return np.stack(vectors)
