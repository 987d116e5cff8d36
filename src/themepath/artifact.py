"""The run artifact: one self-contained JSON document per pipeline run.

The serialization is canonical (sorted keys, fixed separators, repr-exact
floats, trailing newline) so identical runs produce byte-identical files
and golden-file tests stay stable.  Wall-clock timings are volatile by
nature and therefore live in a sidecar file, never in the canonical
artifact.  A log-probability of minus infinity is encoded as the string
"-inf" because JSON has no literal for it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import MISSING, Field, dataclass, field, fields

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
    chunks: list[dict] | None = None
    labels: list[int] | None = None
    centroids_digest: str | None = None
    representatives: dict[str, list[int]] | None = None
    transition_matrix: dict | None = None
    path: dict | None = None
    cluster_summaries: list[dict] | None = None
    eval_scores: dict | None = None
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
            elif f.default_factory is MISSING:  # ``notes`` may be absent: it has a default
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


def to_canonical_json(data: dict) -> str:
    return json.dumps(
        data, sort_keys=True, indent=2, separators=(",", ": "), ensure_ascii=False, allow_nan=False
    ) + "\n"


def write_atomic(path: str, data: str | bytes) -> None:
    """Write ``data`` (``str`` as UTF-8) via a temp file in the same directory plus rename."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_artifact(artifact: RunArtifact, path: str) -> None:
    write_atomic(path, to_canonical_json(artifact.to_dict()))


def load_artifact(path: str) -> RunArtifact:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt artifact {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ArtifactError(f"corrupt artifact {path}: not an object")
    return RunArtifact.from_dict(data)
