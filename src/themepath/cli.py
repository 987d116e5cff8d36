"""Command-line interface: summarize, evaluate, inspect, bench.

Exit codes, decided in one place (``_Cli.invoke``): 0 success; 2 a usage or
input error (bad config, unreadable or non-UTF-8 file, bad artifact); 1 a
failed pipeline stage or any other package error.  Anything else is a bug
and keeps its traceback.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import time
from dataclasses import asdict

import click
import numpy as np

from . import pathfinding
from ._rng import Generator
from .artifact import (
    ArtifactError,
    RunArtifact,
    decode_log_prob,
    load_artifact,
    save_artifact,
    to_canonical_json,
    write_atomic,
)
from .config import MODES, load_config
from .errors import ConfigError, ThemepathError
from .evaluation import EvalReport, evaluate_corpus, render_table
from .markov import TransitionMatrix
from .pipeline import run_pipeline

USAGE_ERROR = 2
INTERNAL_ERROR = 1


class _Cli(click.Group):
    """Turns package errors into ``error: <message>`` and an exit code, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # stdout's reader is gone: click's main exits 1 without a message
        except (ConfigError, ArtifactError, ValueError, OSError) as exc:
            error, code = exc, USAGE_ERROR
        except ThemepathError as exc:  # PipelineStageError, TransportError, ...
            error, code = exc, INTERNAL_ERROR
        click.echo(f"error: {error}", err=True)
        ctx.exit(code)


@click.group(cls=_Cli)
def main() -> None:
    """Long-document summarization via thematic clustering and Markov path ordering."""


def _read_text(path: str) -> str:
    """The file at ``path`` decoded as UTF-8, line ends as written; ConfigError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


# ``--provider`` names a pair of provider kinds.
_PROVIDER_KINDS = {
    "remote": {"embedding.kind": "remote", "llm.kind": "remote-chat"},
    "mock": {"embedding.kind": "deterministic-test", "llm.kind": "mock-extractive"},
}


@main.command("summarize")
@click.argument("input_path")
@click.option("--config", "config_path", default=None, help="Flat key=value config file.")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--k", type=int, default=None, help="Explicit cluster count.")
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=None, help="Run directory for artifact and summary.")
@click.option("--provider", type=click.Choice(list(_PROVIDER_KINDS)), default=None)
def cmd_summarize(input_path, config_path, mode, k, seed, out_dir, provider):
    """Summarize a UTF-8 text document and write the run artifact.

    Each option given is the config key of the same name, laid over the
    config file's keys; ``--provider`` sets ``embedding.kind`` and ``llm.kind``.
    """
    flags = {"mode": mode, "k": k, "seed": seed, "out_dir": out_dir}
    overrides = {key: str(value) for key, value in flags.items() if value is not None}
    overrides.update(_PROVIDER_KINDS.get(provider, {}))
    cfg = load_config(config_path, overrides)
    document = _read_text(input_path)
    # An unusable out_dir or cache_dir fails here, before any paid stage.
    for directory in (cfg.out_dir, cfg.embedding.cache_dir):
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
    result = run_pipeline(
        document, cfg.mode, cfg, progress=lambda stage: click.echo(f"[stage] {stage}")
    )

    artifact_path = os.path.join(cfg.out_dir, "artifact.json")
    save_artifact(result, artifact_path)
    write_atomic(os.path.join(cfg.out_dir, "summary.txt"), result.final_summary + "\n")
    write_atomic(
        os.path.join(cfg.out_dir, "timings.json"),
        json.dumps(result.timings, indent=2, sort_keys=True) + "\n",
    )
    click.echo(f"artifact: {artifact_path}")


def _read_manifest(manifest_path: str) -> list[tuple[str, str, str]]:
    """TSV lines: candidate_path <TAB> reference_path [<TAB> mode]."""
    rows: list[tuple[str, str, str]] = []
    base = os.path.dirname(os.path.abspath(manifest_path))
    for lineno, raw in enumerate(_read_text(manifest_path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ConfigError(f"manifest line {lineno}: expected 2 or 3 tab-separated fields")
        candidate = os.path.join(base, parts[0])
        reference = os.path.join(base, parts[1])
        mode = parts[2] if len(parts) == 3 else "default"
        rows.append((candidate, reference, mode))
    return rows


@main.command("evaluate")
@click.argument("manifest_path")
@click.option("--config", "config_path", default=None)
@click.option("--out", "out_path", default=None, help="Report JSON path (default: stdout only).")
def cmd_evaluate(manifest_path, config_path, out_path):
    """Score candidate summaries against references per the manifest."""
    cfg = load_config(config_path)
    if out_path is not None:
        _check_report_path(out_path)
    entries = _read_manifest(manifest_path)
    if not entries:
        raise ConfigError("manifest is empty")
    pairs = [(_read_text(candidate), _read_text(reference)) for candidate, reference, _ in entries]
    modes = [mode for _, _, mode in entries]

    report = evaluate_corpus(pairs, cfg.embedding, modes)
    rendered = render_table(report)
    click.echo(rendered, nl=False)
    if out_path is not None:
        write_atomic(out_path, report_to_json(report))
        click.echo(f"report: {out_path}")


def _check_report_path(path: str) -> None:
    """An unusable ``--out`` path fails here, before any pair is scored or paid for."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write report {path}: it is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot write report {path}: cannot create directory {parent}: {exc.strerror}"
        ) from exc


def report_to_json(report: EvalReport) -> str:
    return to_canonical_json(asdict(report))


def _artifact_matrix(art: RunArtifact) -> TransitionMatrix:
    if art.transition_matrix is None:
        raise ArtifactError("artifact has no transition matrix (not a markov-cluster run)")
    data = art.transition_matrix
    return TransitionMatrix(
        probs=np.asarray(data["probs"], dtype=np.float64),
        k=data["k"],
        zero_rows=frozenset(data["zero_rows"]),
    )


@main.command("inspect")
@click.argument("artifact_path")
@click.option("--what", type=click.Choice(["matrix", "path", "clusters"]), required=True)
def cmd_inspect(artifact_path, what):
    """Pretty-print one facet of a run artifact."""
    art = load_artifact(artifact_path)
    if what == "matrix":
        matrix = _artifact_matrix(art)
        for i, row in enumerate(matrix.probs):
            cells = "  ".join(f"{x:.6f}" for x in row)
            note = "zero row" if i in matrix.zero_rows else f"sum={row.sum():.6f}"
            click.echo(f"row {i}: [{cells}]  ({note})")
    elif what == "path":
        if art.path is None:
            raise ArtifactError("artifact has no path (not a markov-cluster run)")
        order = art.path["order"]
        log_prob = decode_log_prob(art.path["log_prob"])
        matrix = _artifact_matrix(art)
        arrow = " → ".join(str(c) for c in order)
        prob = 0.0 if math.isinf(log_prob) else math.exp(log_prob)
        click.echo(f"{arrow}, p = {prob:g}")
        for a, b in zip(order, order[1:]):
            click.echo(f"  {a} → {b}: {matrix.probs[a][b]:.6f}")
        click.echo(f"method: {art.path['method']}")
    else:
        if art.labels is None or art.representatives is None:
            raise ArtifactError("artifact has no clustering data")
        from collections import Counter

        sizes = Counter(art.labels)
        for cluster in sorted(art.representatives, key=int):
            ids = art.representatives[cluster]
            click.echo(
                f"cluster {cluster}: size={sizes[int(cluster)]} representatives={ids}"
            )


@main.command("bench")
@click.option(
    "--max-k", type=click.IntRange(2, pathfinding.DP_HARD_CAP), default=20, show_default=True
)
@click.option("--trials", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--out", "out_path", default=None, help="CSV output path (default: stdout).")
def cmd_bench(max_k, trials, out_path):
    """Median DP solve time per k on random row-stochastic matrices."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "milliseconds"])
    writer.writerows(bench_rows(max_k, trials))
    text = buf.getvalue()
    if out_path is None:
        click.echo(text, nl=False)
    else:
        write_atomic(out_path, text)
        click.echo(f"bench: {out_path}")


def random_transition_matrix(k: int, seed: int) -> TransitionMatrix:
    rng = Generator(seed)
    # Row-major, as np.random.default_rng(seed).random((k, k)) fills it.
    probs = np.array([rng.random() for _ in range(k * k)]).reshape(k, k)
    probs /= probs.sum(axis=1, keepdims=True)
    return TransitionMatrix(probs=probs, k=k, zero_rows=frozenset())


def bench_rows(max_k: int, trials: int) -> list[tuple[int, float]]:
    rows = []
    for k in range(2, max_k + 1):
        times = []
        for trial in range(trials):
            matrix = random_transition_matrix(k, seed=1000 * k + trial)
            started = time.perf_counter()
            pathfinding.solve_dp(matrix)
            times.append((time.perf_counter() - started) * 1000.0)
        rows.append((k, round(statistics.median(times), 3)))
    return rows


if __name__ == "__main__":
    main()
