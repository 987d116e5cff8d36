"""Run configuration: a flat key = value file with ${ENV} interpolation.

The dataclasses are the schema: every constructor field is a key. Top-level
``RunConfig`` fields and chunker fields are bare keys (``seed``,
``chunk_size``); provider fields are ``embedding.<field>`` and
``llm.<field>`` (``llm.timeout``). A value is converted to its field's
annotated type (``int``, ``float``, ``bool``; ``str`` stays as given).

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
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .chunking import ChunkerConfig
from .embeddings import EmbeddingProviderConfig
from .errors import ConfigError
from .pathfinding import DP_HARD_CAP
from .summarize import LlmProviderConfig

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

MODES = ("markov-cluster", "cluster-sum", "llm-full")


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
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if not 1 <= self.path_cap <= DP_HARD_CAP:
            raise ConfigError(
                f"path_cap must satisfy 1 <= path_cap <= {DP_HARD_CAP}, got {self.path_cap}"
            )

    def snapshot(self) -> dict:
        """JSON-ready copy of every setting; contains no secret values."""

        def plain(value):
            if is_dataclass(value):
                return {f.name: getattr(value, f.name) for f in fields(value)}
            return value

        snap = {f.name: plain(getattr(self, f.name)) for f in fields(self) if f.init}
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


def _plain_type(hint) -> type:
    """The annotation's type with ``None`` stripped from a union: ``int | None`` -> ``int``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return hint


def _settable_fields(cls) -> list[tuple[str, type]]:
    """(name, type) of every field of dataclass ``cls`` that its constructor takes."""
    hints = typing.get_type_hints(cls)
    return [(f.name, _plain_type(hints[f.name])) for f in fields(cls) if f.init]


_CONVERTERS = {int: _to_int, float: _to_float, bool: _to_bool}


def config_from_mapping(values: dict[str, str]) -> RunConfig:
    """Build a RunConfig from flat keys, applying defaults elsewhere.

    The keys are derived from the dataclass fields by the rule in the module
    docstring; each maps to (section, field, type), "" being the top level.
    """
    sections: dict[str, type] = {}
    spec: dict[str, tuple[str, str, type]] = {}
    for top, kind in _settable_fields(RunConfig):
        if not is_dataclass(kind):
            spec[top] = ("", top, kind)
            continue
        sections[top] = kind
        prefix = "" if kind is ChunkerConfig else f"{top}."
        for name, field_kind in _settable_fields(kind):
            spec[prefix + name] = (top, name, field_kind)

    kwargs: dict[str, dict] = {section: {} for section in ["", *sections]}
    env_templates: dict[tuple[str, str], tuple[str, object]] = {}
    for key, raw in values.items():
        if key not in spec:
            raise ConfigError(f"unknown config key: {key!r}")
        section, name, kind = spec[key]
        convert = _CONVERTERS.get(kind)
        value = convert(raw, key) if convert else str(raw)
        kwargs[section][name] = value
        if isinstance(raw, _Spliced):
            env_templates[(section, name)] = (raw.template, value)

    try:
        cfg = RunConfig(
            **{section: cls(**kwargs[section]) for section, cls in sections.items()},
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
