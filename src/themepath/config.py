"""Run configuration: a flat key = value file with ${ENV} interpolation.

Secrets never live in the file; values may reference environment variables
(e.g. ``llm.auth_token_env = LLM_TOKEN`` names the variable, while
``${VAR}`` splices a variable's value into any field at parse time).
The parsed config uses the spliced value, but ``RunConfig.snapshot`` records
the text as written, so no variable's value reaches the run artifact.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields

from .chunking import ChunkerConfig
from .embeddings import EmbeddingProviderConfig
from .errors import ConfigError
from .pathfinding import DP_HARD_CAP
from .summarize import LlmProviderConfig

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass
class RunConfig:
    chunker: ChunkerConfig = field(default_factory=ChunkerConfig)
    embedding: EmbeddingProviderConfig = field(default_factory=EmbeddingProviderConfig)
    llm: LlmProviderConfig = field(default_factory=LlmProviderConfig)
    k: int | None = None
    top_k: int = 5
    collapse_runs: bool = False
    path_cap: int = DP_HARD_CAP
    mode: str = "markov-cluster"
    seed: int = 0
    out_dir: str = "runs"
    # (section, field) -> (text as written, value parsed from it) for every
    # setting that spliced in an environment variable; "" is the top level.
    env_templates: dict[tuple[str, str], tuple[str, object]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.mode not in ("markov-cluster", "cluster-sum", "llm-full"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.path_cap < 1:
            raise ConfigError("path_cap must be >= 1")

    def snapshot(self) -> dict:
        """JSON-ready copy of every setting; contains no secret values."""

        def plain(obj) -> dict:
            return {f.name: getattr(obj, f.name) for f in fields(obj)}

        snap = {
            "chunker": plain(self.chunker),
            "embedding": plain(self.embedding),
            "llm": plain(self.llm),
            "k": self.k,
            "top_k": self.top_k,
            "collapse_runs": self.collapse_runs,
            "path_cap": self.path_cap,
            "mode": self.mode,
            "seed": self.seed,
            "out_dir": self.out_dir,
        }
        for (section, name), (template, parsed) in self.env_templates.items():
            target = snap[section] if section else snap
            if target[name] == parsed:  # not overridden since parsing
                target[name] = template
        return snap


class _Spliced(str):
    """A value with environment variables spliced in; ``template`` is the text as written."""

    template: str


def _interpolate(value: str) -> str:
    def repl(m: re.Match) -> str:
        name = m.group(1)
        if name not in os.environ:
            raise ConfigError(f"config references undefined environment variable {name}")
        return os.environ[name]

    if not _ENV_REF.search(value):
        return value
    spliced = _Spliced(_ENV_REF.sub(repl, value))
    spliced.template = value
    return spliced


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = _interpolate(value.strip())
    return values


def _to_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _to_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")


def _to_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}")


def config_from_mapping(values: dict[str, str]) -> RunConfig:
    """Build a RunConfig from flat dotted keys, applying defaults elsewhere."""
    kwargs: dict[str, dict] = {"chunker": {}, "embedding": {}, "llm": {}, "": {}}

    spec: dict[str, tuple[str, str, object]] = {
        "chunk_size": ("chunker", "chunk_size", int),
        "overlap": ("chunker", "overlap", int),
        "embedding.kind": ("embedding", "kind", str),
        "embedding.endpoint": ("embedding", "endpoint", str),
        "embedding.model_name": ("embedding", "model_name", str),
        "embedding.auth_token_env": ("embedding", "auth_token_env", str),
        "embedding.batch_size": ("embedding", "batch_size", int),
        "embedding.timeout": ("embedding", "timeout", float),
        "embedding.max_retries": ("embedding", "max_retries", int),
        "embedding.parallelism": ("embedding", "parallelism", int),
        "embedding.cache_dir": ("embedding", "cache_dir", str),
        "embedding.model_field": ("embedding", "model_field", str),
        "embedding.input_field": ("embedding", "input_field", str),
        "embedding.vectors_key": ("embedding", "vectors_key", str),
        "embedding.vector_field": ("embedding", "vector_field", str),
        "llm.kind": ("llm", "kind", str),
        "llm.endpoint": ("llm", "endpoint", str),
        "llm.model_name": ("llm", "model_name", str),
        "llm.auth_token_env": ("llm", "auth_token_env", str),
        "llm.temperature": ("llm", "temperature", float),
        "llm.max_output_tokens": ("llm", "max_output_tokens", int),
        "llm.timeout": ("llm", "timeout", float),
        "llm.max_retries": ("llm", "max_retries", int),
        "llm.parallelism": ("llm", "parallelism", int),
        "llm.context_limit": ("llm", "context_limit", int),
        "llm.context_margin": ("llm", "context_margin", int),
        "k": ("", "k", int),
        "top_k": ("", "top_k", int),
        "collapse_runs": ("", "collapse_runs", bool),
        "path_cap": ("", "path_cap", int),
        "mode": ("", "mode", str),
        "seed": ("", "seed", int),
        "out_dir": ("", "out_dir", str),
    }

    env_templates: dict[tuple[str, str], tuple[str, object]] = {}
    for key, raw in values.items():
        if key not in spec:
            raise ConfigError(f"unknown config key: {key!r}")
        section, name, kind = spec[key]
        if kind is int:
            value = _to_int(raw, key)
        elif kind is float:
            value = _to_float(raw, key)
        elif kind is bool:
            value = _to_bool(raw, key)
        else:
            value = str(raw)
        kwargs[section][name] = value
        if isinstance(raw, _Spliced):
            env_templates[(section, name)] = (raw.template, value)

    try:
        cfg = RunConfig(
            chunker=ChunkerConfig(**kwargs["chunker"]),
            embedding=EmbeddingProviderConfig(**kwargs["embedding"]),
            llm=LlmProviderConfig(**kwargs["llm"]),
            **kwargs[""],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.env_templates = env_templates
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))
