import dataclasses
import hashlib
import json
import os
import re
import tracemalloc

import pytest
from click.testing import CliRunner

from themepath.artifact import (
    RunArtifact,
    ArtifactError,
    decode_log_prob,
    encode_log_prob,
    load_artifact,
    save_artifact,
    to_canonical_json,
    write_atomic,
)
from themepath.cli import main
from themepath.config import RunConfig, config_from_mapping, load_config, parse_config_text
from themepath.errors import ConfigError


class TestConfigParsing:
    def test_flat_key_values_with_comments(self):
        text = "\n".join(
            [
                "# run settings",
                "chunk_size = 120",
                "",
                "overlap = 10",
                "mode = cluster-sum",
                "seed = 42",
                "collapse_runs = true",
                "llm.kind = mock-extractive",
            ]
        )
        cfg = config_from_mapping(parse_config_text(text))
        assert cfg.chunker.chunk_size == 120
        assert cfg.chunker.overlap == 10
        assert cfg.mode == "cluster-sum"
        assert cfg.seed == 42
        assert cfg.collapse_runs is True

    def test_defaults_match_stated_parameters(self):
        cfg = RunConfig()
        assert cfg.chunker.chunk_size == 500
        assert cfg.chunker.overlap == 20
        assert cfg.top_k == 5
        assert cfg.llm.temperature == 0.0
        assert cfg.embedding.parallelism == 4
        assert cfg.llm.parallelism == 22

    def test_env_interpolation(self, monkeypatch):
        monkeypatch.setenv("RUNS_ROOT", "/tmp/elsewhere")
        cfg = config_from_mapping(parse_config_text("out_dir = ${RUNS_ROOT}/books"))
        assert cfg.out_dir == "/tmp/elsewhere/books"

    def test_missing_env_variable_fails(self, monkeypatch):
        monkeypatch.delenv("NOT_SET_ANYWHERE", raising=False)
        with pytest.raises(ConfigError, match="NOT_SET_ANYWHERE"):
            parse_config_text("out_dir = ${NOT_SET_ANYWHERE}")

    def test_only_a_line_starting_with_hash_is_a_comment(self):
        text = "  # out_dir = ignored\nout_dir = runs/x  # where runs go\nllm.endpoint = https://h/v1#frag"
        assert parse_config_text(text) == {
            "out_dir": "runs/x  # where runs go",
            "llm.endpoint": "https://h/v1#frag",
        }

    def test_line_without_equals_sign_names_the_line(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got 'chunk_size 120'$"):
            parse_config_text("seed = 1\n  chunk_size 120\n")

    @pytest.mark.parametrize("raw", ["false", "no", "0", "off", "FALSE", "Off"])
    def test_false_spellings_parse_to_false(self, raw):
        assert config_from_mapping({"collapse_runs": raw}).collapse_runs is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"chunk_sise": "500"})

    def test_bad_integer_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"chunk_size": "many"})

    def test_invalid_component_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"chunk_size": "10", "overlap": "10"})

    @pytest.mark.parametrize("path_cap", [0, 23, 30])
    def test_path_cap_outside_solver_range_rejected(self, tmp_path, path_cap):
        """``path_cap`` is no key: the solver follows from k, so any value is refused."""
        path = tmp_path / "run.cfg"
        path.write_text(f"k = 26\npath_cap = {path_cap}\n")
        message = "unknown config key: 'path_cap'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ["embedding.kind = remote", "embedding.endpoint ="],
                "remote embedding provider requires an endpoint",
            ),
            (["llm.kind = remote-chat"], "remote-chat provider requires an endpoint"),
        ],
    )
    def test_remote_provider_without_endpoint_rejected(self, tmp_path, lines, message):
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("llm.parallelism = 0", "parallelism must be >= 1"),
            ("llm.parallelism = -3", "parallelism must be >= 1"),
            ("llm.max_retries = -1", "max_retries must be >= 0"),
            ("llm.max_retries = -4", "max_retries must be >= 0"),
            ("embedding.parallelism = 0", "parallelism must be >= 1"),
            ("embedding.parallelism = -3", "parallelism must be >= 1"),
            ("embedding.max_retries = -1", "max_retries must be >= 0"),
            ("embedding.max_retries = -4", "max_retries must be >= 0"),
            ("k = 0", "k must be >= 1, got 0"),
            ("k = -2", "k must be >= 1, got -2"),
            ("seed = -1", "seed must be >= 0, got -1"),
            ("embedding.timeout = 0", "timeout must be > 0, got 0.0"),
            ("embedding.timeout = -1", "timeout must be > 0, got -1.0"),
            ("llm.timeout = 0", "timeout must be > 0, got 0.0"),
            ("llm.timeout = -1", "timeout must be > 0, got -1.0"),
            ("llm.timeout = nan", "timeout must be > 0, got nan"),
            ("llm.timeout = inf", "timeout must be finite, got inf"),
            ("embedding.timeout = inf", "timeout must be finite, got inf"),
            ("embedding.timeout = nan", "timeout must be > 0, got nan"),
            ("llm.temperature = nan", "temperature must be finite and >= 0, got nan"),
            ("llm.temperature = inf", "temperature must be finite and >= 0, got inf"),
            ("llm.temperature = -0.5", "temperature must be finite and >= 0, got -0.5"),
            ("llm.context_margin = -5", "context_margin must be >= 0, got -5"),
            ("llm.context_limit = 1000", "context_limit must be > context_margin, got 1000 <= 1024"),
            (
                "llm.context_limit = 8\nllm.context_margin = 8",
                "context_limit must be > context_margin, got 8 <= 8",
            ),
        ],
    )
    def test_provider_call_limits_out_of_range_rejected(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path))

    def test_provider_call_limits_at_their_floor_accepted(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "llm.parallelism = 1\nllm.max_retries = 0\nembedding.parallelism = 1\nembedding.max_retries = 0\n"
            "llm.timeout = 0.001\nembedding.timeout = 0.001\nllm.context_margin = 0\nllm.context_limit = 1\n"
        )
        cfg = load_config(str(path))
        assert (cfg.llm.parallelism, cfg.llm.max_retries) == (1, 0)
        assert (cfg.embedding.parallelism, cfg.embedding.max_retries) == (1, 0)
        assert (cfg.llm.timeout, cfg.embedding.timeout) == (0.001, 0.001)
        assert (cfg.llm.context_margin, cfg.llm.context_limit) == (0, 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"mode": "???"})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "none.cfg"))

    def test_overrides_lay_over_the_file_before_validation(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 0\nseed = 4\n")
        cfg = load_config(str(path), {"k": "5"})
        assert (cfg.k, cfg.seed) == (5, 4)
        assert load_config() == RunConfig()
        assert load_config(None, {"seed": "9"}).seed == 9

    def test_snapshot_has_no_secret_values(self, monkeypatch):
        monkeypatch.setenv("SECRET_TOKEN", "do-not-leak")
        cfg = config_from_mapping({"llm.auth_token_env": "SECRET_TOKEN"})
        assert "do-not-leak" not in json.dumps(cfg.snapshot())

    def test_snapshot_records_text_before_interpolation(self, monkeypatch):
        monkeypatch.setenv("SECRET_K", "hunter2")
        monkeypatch.setenv("RUN_SEED", "7")
        text = "llm.endpoint = https://h/v1?key=${SECRET_K}\nseed = ${RUN_SEED}"
        cfg = config_from_mapping(parse_config_text(text))
        assert cfg.llm.endpoint == "https://h/v1?key=hunter2"
        assert type(cfg.llm.endpoint) is str
        assert cfg.seed == 7
        snap = cfg.snapshot()
        assert snap["llm"]["endpoint"] == "https://h/v1?key=${SECRET_K}"
        assert snap["seed"] == "${RUN_SEED}"
        assert "hunter2" not in json.dumps(snap)

    def test_snapshot_keeps_the_templates_through_dataclasses_replace(self, monkeypatch):
        monkeypatch.setenv("SECRET", "s3cr3t")
        cfg = config_from_mapping(parse_config_text("llm.endpoint = http://${SECRET}@h/v1"))
        copy = dataclasses.replace(cfg, seed=2)
        assert copy.llm.endpoint == "http://s3cr3t@h/v1"
        assert copy.snapshot()["llm"]["endpoint"] == cfg.snapshot()["llm"]["endpoint"] == "http://${SECRET}@h/v1"
        assert copy.snapshot()["seed"] == 2
        assert "s3cr3t" not in json.dumps(copy.snapshot())

    def test_snapshot_records_a_value_set_after_parsing(self, monkeypatch):
        monkeypatch.setenv("RUNS_ROOT", "/tmp/elsewhere")
        cfg = config_from_mapping(parse_config_text("out_dir = ${RUNS_ROOT}/books"))
        cfg.out_dir = "runs/override"
        assert cfg.snapshot()["out_dir"] == "runs/override"


# Every accepted key, set to a non-default value of its field's type.
ALL_KEYS = {
    "chunk_size": ("300", 300),
    "overlap": ("15", 15),
    "embedding.kind": ("remote", "remote"),
    "embedding.endpoint": ("http://e/v1", "http://e/v1"),
    "embedding.model_name": ("m-e", "m-e"),
    "embedding.auth_token_env": ("E_TOK", "E_TOK"),
    "embedding.batch_size": ("16", 16),
    "embedding.timeout": ("12.5", 12.5),
    "embedding.max_retries": ("2", 2),
    "embedding.parallelism": ("3", 3),
    "embedding.cache_dir": ("/c", "/c"),
    "llm.kind": ("remote-chat", "remote-chat"),
    "llm.endpoint": ("http://l/v1", "http://l/v1"),
    "llm.model_name": ("m-l", "m-l"),
    "llm.auth_token_env": ("L_TOK", "L_TOK"),
    "llm.temperature": ("0.25", 0.25),
    "llm.max_output_tokens": ("512", 512),
    "llm.timeout": ("45", 45.0),
    "llm.max_retries": ("1", 1),
    "llm.parallelism": ("2", 2),
    "llm.context_limit": ("8000", 8000),
    "llm.context_margin": ("500", 500),
    "k": ("9", 9),
    "top_k": ("4", 4),
    "collapse_runs": ("yes", True),
    "mode": ("cluster-sum", "cluster-sum"),
    "seed": ("11", 11),
    "out_dir": ("runs/x", "runs/x"),
}


def _setting(cfg: RunConfig, key: str):
    section, _, name = key.rpartition(".")
    if not section and name in ("chunk_size", "overlap"):
        section = "chunker"
    return getattr(getattr(cfg, section) if section else cfg, name)


class TestConfigKeys:
    def test_every_key_parses_to_its_field_type(self):
        assert len(ALL_KEYS) == 28
        cfg = config_from_mapping({key: raw for key, (raw, _) in ALL_KEYS.items()})
        for key, (_, expected) in ALL_KEYS.items():
            value = _setting(cfg, key)
            assert value == expected and type(value) is type(expected), key

    def test_keys_cover_every_snapshot_setting(self):
        keys = set()
        for name, value in RunConfig().snapshot().items():
            if isinstance(value, dict):
                prefix = "" if name == "chunker" else f"{name}."
                keys.update(prefix + field for field in value)
            else:
                keys.add(name)
        assert keys == set(ALL_KEYS)

    @pytest.mark.parametrize(
        "key",
        [
            "chunker",
            "embedding",
            "llm",
            "env_templates",
            "chunker.chunk_size",
            "llm.k",
            "embedding.seed",
            # The embedding wire contract is fixed in code: these were keys once.
            "embedding.model_field",
            "embedding.input_field",
            "embedding.vectors_key",
            "embedding.vector_field",
        ],
    )
    def test_keys_outside_the_schema_rejected(self, key):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key: {key!r}")):
            config_from_mapping({key: "1"})

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("llm.context_limit", "many", "llm.context_limit: expected an integer, got 'many'"),
            ("embedding.timeout", "soon", "embedding.timeout: expected a number, got 'soon'"),
            ("collapse_runs", "maybe", "collapse_runs: expected a boolean, got 'maybe'"),
        ],
    )
    def test_bad_value_names_key_and_type(self, key, raw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_mapping({key: raw})


def sample_artifact() -> RunArtifact:
    return RunArtifact(
        mode="markov-cluster",
        seed=3,
        config=RunConfig().snapshot(),
        final_summary="A summary.",
        document_sha256=hashlib.sha256(b"A").hexdigest(),
        chunks=[{"byte_span": [0, 1], "token_span": [0, 1]}],
        labels=[0],
        centroids_digest="ab" * 32,
        representatives={"0": [0]},
        transition_matrix={"k": 1, "probs": [[0.0]], "zero_rows": [0]},
        path={"order": [0], "log_prob": 0.0, "method": "dp"},
        cluster_summaries=[
            {
                "cluster_id": 0,
                "representative_chunk_ids": [0],
                "summary_text": "A summary.",
                "provider_metadata": {"model": "mock-extractive"},
            }
        ],
    )


class TestArtifact:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        save_artifact(sample_artifact(), path)
        with open(path, "rb") as fh:
            first = fh.read()
        save_artifact(load_artifact(path), path)
        with open(path, "rb") as fh:
            assert fh.read() == first

    def test_neg_inf_log_prob_round_trips(self, tmp_path):
        art = sample_artifact()
        art.path = {"order": [0], "log_prob": encode_log_prob(float("-inf")), "method": "dp"}
        path = str(tmp_path / "artifact.json")
        save_artifact(art, path)
        loaded = load_artifact(path)
        assert decode_log_prob(loaded.path["log_prob"]) == float("-inf")

    def test_canonical_json_sorted_and_newline_terminated(self):
        text = to_canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        save_artifact(sample_artifact(), path)
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_saved_bytes_are_the_canonical_json(self, tmp_path):
        art = sample_artifact()
        art.final_summary = "Caf\u00e9 \u2014 line one\r\nline two \U0001f600"
        art.chunks = [{"byte_span": [i, i + 1], "token_span": [i, i + 1]} for i in range(50)]
        path = str(tmp_path / "artifact.json")
        save_artifact(art, path)
        with open(path, "rb") as fh:
            assert fh.read() == to_canonical_json(art.to_dict()).encode("utf-8")

    def test_saving_streams_the_text(self, tmp_path):
        # About 2 MB of JSON: held whole, as a str and its UTF-8 bytes, it
        # would trace over twice that.
        art = sample_artifact()
        art.chunks = [{"byte_span": [i, i + 1], "token_span": [i, i + 1]} for i in range(20_000)]
        size = len(to_canonical_json(art.to_dict()))
        tracemalloc.start()
        try:
            save_artifact(art, str(tmp_path / "artifact.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert os.path.getsize(tmp_path / "artifact.json") == size
        assert peak < size / 8

    def test_a_save_that_fails_midway_leaves_neither_file(self, tmp_path):
        art = sample_artifact()
        art.chunks = [{"byte_span": [i, i + 1], "token_span": [i, i + 1]} for i in range(5_000)]
        art.path = {"order": [0], "log_prob": float("nan"), "method": "dp"}  # sorts after "chunks"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            save_artifact(art, str(tmp_path / "artifact.json"))
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_neither_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_atomic(str(tmp_path / "summary.txt"), "lone surrogate \ud800")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_written_file_has_the_mode_open_gives(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_atomic(str(tmp_path / "written.txt"), "x")
            with open(tmp_path / "opened.txt", "w") as fh:
                fh.write("x")
        finally:
            os.umask(previous)
        modes = {os.stat(tmp_path / name).st_mode & 0o777 for name in ("written.txt", "opened.txt")}
        assert modes == {0o666 & ~umask}

    def test_corrupt_artifact_rejected(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        with open(path, "w") as fh:
            fh.write("{ not json")
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_artifact_that_is_not_an_object_rejected(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        with open(path, "w") as fh:
            fh.write("[]")
        with pytest.raises(ArtifactError, match=f"^corrupt artifact {re.escape(path)}: not an object$"):
            load_artifact(path)

    def test_missing_artifact_rejected(self, tmp_path):
        path = str(tmp_path / "ghost.json")
        with pytest.raises(ArtifactError, match=f"^cannot read artifact {re.escape(path)}: "):
            load_artifact(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        data = json.loads(to_canonical_json(sample_artifact().to_dict()))
        data["format_version"] = 99
        write_atomic(path, json.dumps(data))
        with pytest.raises(ArtifactError):
            load_artifact(path)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("transition_matrix", [[1.0]], "transition_matrix has no k >= 1"),
            (
                "transition_matrix",
                {"k": 0, "probs": [], "zero_rows": []},
                "transition_matrix has no k >= 1",
            ),
            (
                "transition_matrix",
                {"k": 1, "probs": [[0.0, 1.0]], "zero_rows": []},
                "transition_matrix probs is not a 1 x 1 table of numbers",
            ),
            (
                "transition_matrix",
                {"k": 1, "probs": [["0"]], "zero_rows": []},
                "transition_matrix probs is not a 1 x 1 table of numbers",
            ),
            (
                "transition_matrix",
                {"k": 1, "probs": [[0.0]], "zero_rows": [1]},
                "transition_matrix zero_rows is not a list of rows in range(1)",
            ),
            ("path", [0], "path has no order"),
            (
                "path",
                {"order": [True], "log_prob": 0.0, "method": "dp"},
                "path order holds a non-integer",
            ),
            (
                "path",
                {"order": [0, 0], "log_prob": 0.0, "method": "dp"},
                "path order [0, 0] is not a permutation of range(1)",
            ),
            ("path", {"order": [0], "log_prob": "-1", "method": "dp"}, "path has no log_prob"),
            ("path", {"order": [0], "log_prob": 0.0}, "path has no method"),
        ],
    )
    def test_unreadable_matrix_or_path_is_corrupt(self, tmp_path, field, value, problem):
        path = str(tmp_path / "artifact.json")
        data = sample_artifact().to_dict()
        data[field] = value
        write_atomic(path, json.dumps(data))
        message = f"corrupt artifact {path}: {problem}"
        with pytest.raises(ArtifactError, match=f"^{re.escape(message)}$"):
            load_artifact(path)

    def test_timings_never_serialized(self):
        art = sample_artifact()
        art.timings = {"chunk": 0.5}
        assert "timings" not in art.to_dict()

    def test_missing_required_field_named(self):
        data = sample_artifact().to_dict()
        del data["labels"]
        with pytest.raises(ArtifactError, match=re.escape("artifact missing field 'labels'")):
            RunArtifact.from_dict(data)

    def test_missing_notes_loads_empty(self):
        data = sample_artifact().to_dict()
        del data["notes"]
        assert RunArtifact.from_dict(data).notes == {}

    def test_artifact_in_the_earlier_format_loads_and_inspects(self, tmp_path):
        """Chunk records with their text, an ``eval_scores`` key, and no document digest."""
        data = sample_artifact().to_dict()
        del data["document_sha256"]
        data["chunks"] = [{"index": 0, "text": "A", "token_count": 1, "byte_span": [0, 1], "token_span": [0, 1]}]
        data["eval_scores"] = None
        path = str(tmp_path / "artifact.json")
        write_atomic(path, to_canonical_json(data))
        loaded = load_artifact(path)
        assert loaded.document_sha256 is None
        assert loaded.chunks == data["chunks"]
        result = CliRunner().invoke(main, ["inspect", path, "--what", "path"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "0, p = 1"
