"""Embedding providers, vector utilities, and the on-disk vector cache.

Two providers share one contract ("texts in, one vector per text out"):

* ``deterministic-test`` hashes token features into a fixed 64-dim vector,
  hashing each distinct token once per call.  It is bit-stable across
  processes and platforms, which makes every downstream stage testable
  offline.
* ``remote`` speaks a generic "model + inputs -> vectors" HTTP POST
  contract with retry and exponential backoff; field names are
  configurable so it can front any such API.

All vectors are L2-normalized before they leave this module, so Euclidean
k-means downstream ranks pairs exactly like cosine similarity would.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chunking import split_tokens
from .errors import DegenerateInputError, ProtocolError
from .transport import map_ordered, post_json

log = logging.getLogger(__name__)

TEST_PROVIDER_DIM = 64
_TEST_HASH_SEED = b"themepath-det-v1:"


@dataclass
class EmbeddingProviderConfig:
    kind: str = "deterministic-test"  # or "remote"
    endpoint: str = ""
    model_name: str = "nomic-embed-text-v1"
    auth_token_env: str = ""
    batch_size: int = 32
    timeout: float = 30.0
    max_retries: int = 3
    parallelism: int = 4  # batches in flight at once
    cache_dir: str | None = None
    # Wire-format knobs for the remote contract.
    model_field: str = "model"
    input_field: str = "input"
    vectors_key: str = "data"
    vector_field: str = "embedding"

    def __post_init__(self):
        if self.kind not in ("deterministic-test", "remote"):
            raise ValueError(f"unknown embedding provider kind: {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote embedding provider requires an endpoint")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


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


def _token_feature(token: str) -> tuple[int, float]:
    """The (index, sign) one token adds to a test vector.

    Uses sha256 so the result is identical on every platform and process
    (Python's built-in hash() is salted and would not be).
    """
    digest = hashlib.sha256(_TEST_HASH_SEED + token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % TEST_PROVIDER_DIM, 1.0 if digest[4] & 1 else -1.0


def _test_vectors(texts: list[str]) -> list[np.ndarray]:
    """Feature-hash each text's lowercased tokens into 64 dims, sum, normalize.

    Each distinct token is hashed once per call.  Every entry is a sum of
    +-1 terms, exact in float64, so the order of summation does not change
    a bit of the result.
    """
    features: dict[str, tuple[int, float]] = {}
    vectors = []
    for text in texts:
        vec = np.zeros(TEST_PROVIDER_DIM, dtype=np.float64)
        for token, count in Counter(split_tokens(text.lower())).items():
            feature = features.get(token)
            if feature is None:
                feature = features[token] = _token_feature(token)
            idx, sign = feature
            vec[idx] += sign * count
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
    """One file per (model, text) key; atomic writes, corrupt entries = miss.

    Values are deterministic per key, so concurrent last-write-wins races
    are benign.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    @staticmethod
    def key(model_name: str, text: str) -> str:
        h = hashlib.sha256()
        h.update(model_name.encode("utf-8"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        return h.hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npy")

    def get(self, model_name: str, text: str) -> np.ndarray | None:
        path = self._path(self.key(model_name, text))
        if not os.path.exists(path):
            return None
        try:
            vec = np.load(path, allow_pickle=False)
        except Exception as exc:
            log.warning("corrupt cache entry %s treated as miss: %s", path, exc)
            return None
        return np.asarray(vec, dtype=np.float64)

    def put(self, model_name: str, text: str, vec: np.ndarray) -> None:
        path = self._path(self.key(model_name, text))
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, np.asarray(vec, dtype=np.float64), allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _remote_call(texts: list[str], cfg: EmbeddingProviderConfig) -> list[np.ndarray]:
    payload = {cfg.model_field: cfg.model_name, cfg.input_field: texts}
    data = post_json(
        cfg.endpoint,
        payload,
        auth_token_env=cfg.auth_token_env,
        timeout=cfg.timeout,
        max_retries=cfg.max_retries,
    )
    try:
        items = data[cfg.vectors_key]
    except (KeyError, TypeError):
        raise ProtocolError(f"response missing {cfg.vectors_key!r} field")
    if not isinstance(items, list) or len(items) != len(texts):
        raise ProtocolError(
            f"expected {len(texts)} vectors, got {len(items) if isinstance(items, list) else type(items)}"
        )
    vectors = []
    for item in items:
        raw = item.get(cfg.vector_field) if isinstance(item, dict) else item
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("response item carries no vector")
        vectors.append(np.asarray(raw, dtype=np.float64))
    return vectors


def embed_batch(texts: list[str], cfg: EmbeddingProviderConfig) -> np.ndarray:
    """Embed texts in order; returns an (n, dim) float64 array of unit vectors.

    With cache_dir set, hits skip the provider entirely; results are
    identical either way because providers are pure functions of the text.
    Remote misses go out in batches of batch_size, up to parallelism at
    once; each batch's vectors are cached as soon as it returns, so a failed
    batch costs only itself.
    """
    if not texts:
        raise ValueError("embed_batch requires at least one text")
    cache = EmbeddingCache(cfg.cache_dir) if cfg.cache_dir else None

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
        # One call for all misses, so each distinct token is hashed once.
        provider, batch_size = _test_vectors, max(len(missing), 1)
    else:
        provider, batch_size = partial(_remote_call, cfg=cfg), cfg.batch_size

    def fetch(batch: list[int]) -> None:
        for i, vec in zip(batch, provider([texts[i] for i in batch])):
            vectors[i] = normalize(vec)
            if cache is not None:
                cache.put(cfg.model_name, texts[i], vectors[i])

    batches = [missing[i : i + batch_size] for i in range(0, len(missing), batch_size)]
    map_ordered(fetch, batches, cfg.parallelism)

    dims = {v.shape[0] for v in vectors}
    if len(dims) != 1:
        raise ProtocolError(f"inconsistent embedding dimensions: {sorted(dims)}")
    out = np.stack(vectors)
    if not np.isfinite(out).all():
        raise ProtocolError("provider returned non-finite embedding values")
    return out
