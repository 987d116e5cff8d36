"""The run artifact: one JSON document per pipeline run.

It holds the run's decisions, not the document: each chunk is a byte span
and a token span into it, and ``document_sha256`` identifies the document.

The serialization is canonical (sorted keys, fixed separators, repr-exact
floats, trailing newline) so identical runs produce byte-identical files
and golden-file tests stay stable.  Wall-clock timings are volatile by
nature and therefore live in a sidecar file, never in the canonical
artifact.  A log-probability of minus infinity is encoded as the string
"-inf" because JSON has no literal for it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections.abc import Iterator
from dataclasses import Field, dataclass, field, fields
from typing import TextIO

import numpy as np

from .errors import ThemepathError

FORMAT_VERSION = 1


class ArtifactError(ThemepathError):
    """Artifact file missing, corrupt, or schema-incompatible."""


@dataclass
class RunArtifact:
    mode: str
    seed: int
    config: dict
    final_summary: str
    document_sha256: str | None = None  # absent from artifacts written before it was recorded
    chunks: list[dict] | None = None
    labels: list[int] | None = None
    centroids_digest: str | None = None
    representatives: dict[str, list[int]] | None = None
    transition_matrix: dict | None = None
    path: dict | None = None
    cluster_summaries: list[dict] | None = None
    notes: dict = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)  # sidecar only

    def to_dict(self) -> dict:
        data = {"format_version": FORMAT_VERSION}
        data.update((f.name, getattr(self, f.name)) for f in _saved_fields())
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        if data.get("format_version") != FORMAT_VERSION:
            raise ArtifactError(f"unsupported artifact format: {data.get('format_version')!r}")
        kwargs = {}
        for f in _saved_fields():
            if f.name in data:
                kwargs[f.name] = data[f.name]
            elif f.name not in ("notes", "document_sha256"):  # both may be absent: they have defaults
                raise ArtifactError(f"artifact missing field {f.name!r}")
        return cls(**kwargs)


def _saved_fields() -> list[Field]:
    """The fields written to artifact.json: all but the ``timings`` sidecar."""
    return [f for f in fields(RunArtifact) if f.name != "timings"]


def encode_log_prob(value: float):
    return "-inf" if math.isinf(value) and value < 0 else float(value)


def decode_log_prob(value) -> float:
    return float("-inf") if value == "-inf" else float(value)


def matrix_to_dict(probs: np.ndarray, k: int, zero_rows) -> dict:
    return {
        "k": k,
        "probs": [[float(x) for x in row] for row in np.asarray(probs)],
        "zero_rows": sorted(int(i) for i in zero_rows),
    }


def centroids_digest(centroids: np.ndarray) -> str:
    data = np.ascontiguousarray(centroids, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


_CANONICAL_JSON = dict(sort_keys=True, indent=2, separators=(",", ": "), ensure_ascii=False, allow_nan=False)


def to_canonical_json(data: dict) -> str:
    return json.dumps(data, **_CANONICAL_JSON) + "\n"


@contextlib.contextmanager
def _atomic_text_file(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces ``path`` when the block ends, not before.

    It is written as a temp file in the same directory, renamed onto
    ``path`` on success and removed on failure.  Line ends are written as
    they are.  The file gets the mode ``open(path, "w")`` would give it:
    0666 less the umask.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 via a temp file in the same directory plus rename."""
    with _atomic_text_file(path) as fh:
        fh.write(text)


def save_artifact(artifact: RunArtifact, path: str) -> None:
    """Write ``to_canonical_json(artifact.to_dict())``, streamed: the text is never held whole."""
    with _atomic_text_file(path) as fh:
        json.dump(artifact.to_dict(), fh, **_CANONICAL_JSON)
        fh.write("\n")


def load_artifact(path: str) -> RunArtifact:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt artifact {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ArtifactError(f"corrupt artifact {path}: not an object")
    artifact = RunArtifact.from_dict(data)
    problem = _content_problem(artifact)
    if problem is not None:
        raise ArtifactError(f"corrupt artifact {path}: {problem}")
    return artifact


def _is_int(value) -> bool:
    return type(value) is int  # JSON booleans load as bool, a subclass of int


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _content_problem(artifact: RunArtifact) -> str | None:
    """What makes the clustering, matrix or path unreadable, or None if all can be read.

    Labels must be a list of integers, and representatives a map from decimal
    cluster ids to lists of integers.  The matrix must be k x k numbers with
    zero rows in range(k); the path's order a permutation of range(k), its
    log_prob a number or "-inf".
    """
    labels = artifact.labels
    if labels is not None and not (isinstance(labels, list) and all(map(_is_int, labels))):
        return "labels is not a list of integers"
    reps = artifact.representatives
    if reps is not None and not (
        isinstance(reps, dict)
        and all(
            key.isascii() and key.isdecimal() and isinstance(ids, list) and all(map(_is_int, ids))
            for key, ids in reps.items()
        )
    ):
        return "representatives is not a map from decimal cluster ids to lists of integers"
    k = None
    matrix = artifact.transition_matrix
    if matrix is not None:
        if not isinstance(matrix, dict) or not _is_int(matrix.get("k")) or matrix["k"] < 1:
            return "transition_matrix has no k >= 1"
        k = matrix["k"]
        probs = matrix.get("probs")
        if not isinstance(probs, list) or len(probs) != k or not all(
            isinstance(row, list) and len(row) == k and all(map(_is_number, row)) for row in probs
        ):
            return f"transition_matrix probs is not a {k} x {k} table of numbers"
        zero_rows = matrix.get("zero_rows")
        if not isinstance(zero_rows, list) or not all(_is_int(i) and 0 <= i < k for i in zero_rows):
            return f"transition_matrix zero_rows is not a list of rows in range({k})"
    path = artifact.path
    if path is not None:
        if not isinstance(path, dict) or not isinstance(path.get("order"), list):
            return "path has no order"
        order = path["order"]
        if not all(map(_is_int, order)):
            return "path order holds a non-integer"
        if k is not None and sorted(order) != list(range(k)):
            return f"path order {order} is not a permutation of range({k})"
        log_prob = path.get("log_prob")
        if not (_is_number(log_prob) or log_prob == "-inf"):
            return "path has no log_prob"
        if not isinstance(path.get("method"), str):
            return "path has no method"
    return None
