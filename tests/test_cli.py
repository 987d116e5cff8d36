import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_topic_document, tokens_per_chunk
import themepath
from themepath.artifact import RunArtifact, matrix_to_dict, save_artifact
from themepath.chunking import split_tokens
from themepath.cli import main
from themepath.config import RunConfig
from themepath.markov import build_transition_matrix
from themepath.pathfinding import solve_dp


@pytest.fixture(autouse=True)
def _cwd_in_tmp_path(tmp_path, monkeypatch):
    """Runs without ``--out-dir`` create the default ``runs`` here, not in the checkout."""
    monkeypatch.chdir(tmp_path)


def console(*args: str, **kwargs) -> subprocess.Popen:
    """``themepath *args`` in a fresh interpreter, outside CliRunner, on this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(themepath.__file__))}
    return subprocess.Popen([sys.executable, "-m", "themepath.cli", *args], env=env, **kwargs)


def error_lines(result) -> list[str]:
    return [line for line in result.output.splitlines() if line.startswith("error: ")]


def write_config(path, chunk_size=None, overlap=None, extra=()):
    lines = ["llm.kind = mock-extractive", "embedding.kind = deterministic-test"]
    if chunk_size is not None:
        lines.append(f"chunk_size = {chunk_size}")
    if overlap is not None:
        lines.append(f"overlap = {overlap}")
    lines.extend(extra)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_summarize(tmp_path, runner, out_name, mode="markov-cluster", seed=0, config=None, extra=()):
    """``summarize`` on a three-topic document; ``config`` defaults to a mock k = 3 file."""
    document = make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"])
    doc_path = tmp_path / "doc.txt"
    doc_path.write_text(document)
    if config is None:
        config = tmp_path / "run.cfg"
        write_config(config, chunk_size=tokens_per_chunk(), overlap=0, extra=["k = 3"])
    out_dir = tmp_path / out_name
    args = ["summarize", str(doc_path), "--config", str(config), "--mode", mode, "--seed", str(seed)]
    args += ["--out-dir", str(out_dir), *extra]
    return runner.invoke(main, args), out_dir


class TestSummarizeCommand:
    def test_missing_input_exits_2_naming_path(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["summarize", str(tmp_path / "ghost.txt")])
        assert result.exit_code == 2
        assert "ghost.txt" in result.output

    def test_happy_path_writes_artifact_and_summary(self, tmp_path):
        runner = CliRunner()
        result, out_dir = run_summarize(tmp_path, runner, "run1")
        assert result.exit_code == 0, result.output
        artifact = json.loads((out_dir / "artifact.json").read_text())
        assert artifact["mode"] == "markov-cluster"
        assert artifact["path"] is not None
        assert (out_dir / "summary.txt").read_text().strip() == artifact["final_summary"]
        assert (out_dir / "timings.json").exists()
        assert "[stage] chunk" in result.output

    def test_deterministic_across_invocations(self, tmp_path):
        # identical config (including out_dir) must reproduce identical bytes
        runner = CliRunner()
        _, out_dir = run_summarize(tmp_path, runner, "run1")
        first = (out_dir / "artifact.json").read_bytes()
        _, out_dir = run_summarize(tmp_path, runner, "run1")
        assert (out_dir / "artifact.json").read_bytes() == first

    def test_env_secret_never_reaches_the_run_directory(self, tmp_path, monkeypatch):
        secret = "hunter2-b9f1c0"
        monkeypatch.setenv("SECRET_K", secret)
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text(make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"]))
        cfg_path = tmp_path / "run.cfg"
        write_config(
            cfg_path,
            chunk_size=tokens_per_chunk(),
            overlap=0,
            extra=["k = 3", "llm.endpoint = https://h/v1?key=${SECRET_K}"],
        )
        out_dir = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["summarize", str(doc_path), "--config", str(cfg_path), "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        artifact_bytes = (out_dir / "artifact.json").read_bytes()
        assert b"key=${SECRET_K}" in artifact_bytes
        for written in out_dir.iterdir():
            assert secret.encode() not in written.read_bytes(), written.name

    def test_spans_and_digest_index_the_file_as_written(self, tmp_path):
        """CRLF line ends stay in the text, so each byte span re-cuts its chunk from the file."""
        lines = make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"]).split(". ")
        file_bytes = ".\r\n".join(lines).encode("utf-8")
        doc_path = tmp_path / "crlf.txt"
        doc_path.write_bytes(file_bytes)
        config = tmp_path / "run.cfg"
        write_config(config, chunk_size=tokens_per_chunk(), overlap=5, extra=["k = 3"])
        out_dir = tmp_path / "out"
        result = CliRunner().invoke(
            main, ["summarize", str(doc_path), "--config", str(config), "--out-dir", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        artifact = json.loads((out_dir / "artifact.json").read_text())
        tokens = split_tokens(file_bytes.decode("utf-8"))
        assert len(artifact["chunks"]) > 1
        for chunk in artifact["chunks"]:
            (a, b), (start, end) = chunk["byte_span"], chunk["token_span"]
            assert split_tokens(file_bytes[a:b].decode("utf-8")) == tokens[start:end]
        assert artifact["document_sha256"] == hashlib.sha256(file_bytes).hexdigest()

    def test_cluster_sum_artifact_has_no_path(self, tmp_path):
        runner = CliRunner()
        result, out_dir = run_summarize(tmp_path, runner, "run-cs", mode="cluster-sum")
        assert result.exit_code == 0, result.output
        artifact = json.loads((out_dir / "artifact.json").read_text())
        assert artifact["path"] is None
        assert artifact["transition_matrix"] is None

    def test_empty_document_exits_2(self, tmp_path):
        runner = CliRunner()
        doc = tmp_path / "empty.txt"
        doc.write_text("   ")
        result = runner.invoke(main, ["summarize", str(doc), "--provider", "mock"])
        assert result.exit_code == 2

    def test_stage_failure_exits_1_with_stage_tag(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        cfg_path = tmp_path / "run.cfg"
        write_config(
            cfg_path,
            extra=[
                "embedding.kind = remote",
                "embedding.endpoint = http://127.0.0.1:1/nowhere",
                "embedding.max_retries = 0",
            ],
        )
        runner = CliRunner()
        result = runner.invoke(main, ["summarize", str(doc), "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert "stage 'embed'" in result.output

    def test_non_finite_usage_from_the_chat_provider_still_saves_the_artifact(
        self, tmp_path, stub_server
    ):
        # The stub writes the bare literal NaN, which the client's JSON decoder accepts.
        reply = {
            "choices": [{"message": {"content": "A summary."}}],
            "usage": {"prompt_tokens": float("nan"), "completion_tokens": 5, "total": 5.0},
        }
        server, url = stub_server([(200, reply)])
        cfg_path = tmp_path / "run.cfg"
        write_config(
            cfg_path,
            chunk_size=tokens_per_chunk(),
            overlap=0,
            extra=["k = 3", "llm.kind = remote-chat", f"llm.endpoint = {url}"],
        )
        result, out_dir = run_summarize(tmp_path, CliRunner(), "run", config=cfg_path)
        assert result.exit_code == 0, result.output
        assert len(server.requests) == 4  # three cluster summaries and the aggregation
        artifact = json.loads((out_dir / "artifact.json").read_text())
        usages = [s["provider_metadata"]["usage"] for s in artifact["cluster_summaries"]]
        assert usages == [{"completion_tokens": 5}] * 3
        assert (out_dir / "summary.txt").read_text().strip() == "A summary."

    def test_remote_provider_without_endpoint_exits_2_before_any_stage(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        result = CliRunner().invoke(main, ["summarize", str(doc), "--provider", "remote"])
        assert result.exit_code == 2
        assert "error: remote embedding provider requires an endpoint" in result.output
        assert "[stage]" not in result.output

    def test_k_below_one_exits_2_before_any_stage(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        args = ["summarize", str(doc), "--provider", "mock", "--k", "0"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "error: k must be >= 1, got 0" in result.output
        assert "[stage]" not in result.output

    def test_negative_seed_exits_2_before_any_stage(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        args = ["summarize", str(doc), "--provider", "mock", "--seed", "-1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert error_lines(result) == ["error: seed must be >= 0, got -1"]
        assert "[stage]" not in result.output

    def test_flag_replaces_the_file_value_before_validation(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, chunk_size=tokens_per_chunk(), overlap=0, extra=["k = 0"])
        result, out_dir = run_summarize(tmp_path, CliRunner(), "out", config=cfg_path, extra=["--k", "5"])
        assert result.exit_code == 0, result.output
        artifact = json.loads((out_dir / "artifact.json").read_text())
        assert artifact["config"]["k"] == 5

    def test_provider_mock_over_a_remote_config_without_endpoints_runs(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("embedding.kind = remote\nllm.kind = remote-chat\n")
        extra = ["--provider", "mock"]
        result, out_dir = run_summarize(tmp_path, CliRunner(), "out", config=cfg_path, extra=extra)
        assert result.exit_code == 0, result.output
        config = json.loads((out_dir / "artifact.json").read_text())["config"]
        kinds = (config["embedding"]["kind"], config["llm"]["kind"])
        assert kinds == ("deterministic-test", "mock-extractive")

    def test_flag_equal_to_a_spliced_value_is_recorded_as_given(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RUN_DIR", str(tmp_path / "out"))
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, extra=["k = 3", "out_dir = ${RUN_DIR}"])
        result, out_dir = run_summarize(tmp_path, CliRunner(), "out", config=cfg_path)
        assert result.exit_code == 0, result.output
        assert json.loads((out_dir / "artifact.json").read_text())["config"]["out_dir"] == str(out_dir)

    def test_non_utf8_input_exits_2_naming_path(self, tmp_path):
        doc = tmp_path / "latin1.txt"
        doc.write_bytes("caf\u00e9 au lait. Encore.".encode("latin-1"))
        result = CliRunner().invoke(main, ["summarize", str(doc), "--provider", "mock"])
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1
        assert error_lines(result)[0].startswith(f"error: cannot read {doc}: ")
        assert "[stage]" not in result.output

    def test_non_utf8_config_exits_2_naming_path(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"out_dir = caf\xe9\n")
        result = CliRunner().invoke(main, ["summarize", str(doc), "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert error_lines(result)[0].startswith(f"error: cannot read config {cfg_path}: ")

    def test_out_dir_that_is_a_file_exits_2_before_any_stage(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        args = ["summarize", str(doc), "--provider", "mock", "--out-dir", str(taken)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1 and str(taken) in error_lines(result)[0]
        assert "[stage]" not in result.output
        assert taken.read_text() == "not a directory\n"

    def test_cache_dir_that_is_a_file_exits_2_before_any_stage(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Some document. With sentences.")
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        config = tmp_path / "run.cfg"
        write_config(config, extra=[f"embedding.cache_dir = {taken}"])
        args = ["summarize", str(doc), "--config", str(config), "--out-dir", str(tmp_path / "run")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1 and str(taken) in error_lines(result)[0]
        assert "[stage]" not in result.output
        assert taken.read_text() == "not a directory\n"

    def test_console_entry_point_prints_one_error_line_and_no_traceback(self, tmp_path):
        ghost = tmp_path / "ghost.txt"
        proc = console("summarize", str(ghost), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert stderr.decode().startswith(f"error: cannot read {ghost}: ")
        assert len(stderr.splitlines()) == 1
        assert b"Traceback" not in stderr + stdout


def fixture_artifact(tmp_path) -> str:
    """Artifact built around the k=3 pathfinding fixture and markov example."""
    matrix = np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.2, 0.8, 0.0]])
    from themepath.markov import TransitionMatrix

    tm = TransitionMatrix(matrix, 3, frozenset())
    path = solve_dp(tm)
    art = RunArtifact(
        mode="markov-cluster",
        seed=0,
        config=RunConfig().snapshot(),
        final_summary="s",
        chunks=None,
        labels=[0, 0, 1, 2, 1],
        centroids_digest=None,
        representatives={"0": [0, 1], "1": [2, 4], "2": [3]},
        transition_matrix=matrix_to_dict(tm.probs, 3, tm.zero_rows),
        path={"order": path.order, "log_prob": path.log_prob, "method": path.method},
        cluster_summaries=None,
    )
    out = str(tmp_path / "artifact.json")
    save_artifact(art, out)
    return out


class TestInspectCommand:
    def test_inspect_path_shows_order_and_probability(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["inspect", fixture_artifact(tmp_path), "--what", "path"])
        assert result.exit_code == 0, result.output
        assert "0 → 2 → 1, p = 0.56" in result.output

    def test_inspect_matrix_matches_hand_count(self, tmp_path):
        runner = CliRunner()
        art = fixture_artifact(tmp_path)
        # overwrite matrix with the hand-counted example for S=[0,0,1,2,1]
        m = build_transition_matrix([0, 0, 1, 2, 1], 3)
        with open(art) as fh:
            data = json.load(fh)
        data["transition_matrix"] = matrix_to_dict(m.probs, 3, m.zero_rows)
        with open(art, "w") as fh:
            json.dump(data, fh)
        result = runner.invoke(main, ["inspect", art, "--what", "matrix"])
        assert result.exit_code == 0
        assert "row 0: [0.500000  0.500000  0.000000]" in result.output
        assert "sum=1.000000" in result.output

    def test_inspect_clusters_reports_sizes_and_reps(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["inspect", fixture_artifact(tmp_path), "--what", "clusters"])
        assert result.exit_code == 0
        assert "cluster 0: size=2 representatives=[0, 1]" in result.output

    def test_corrupt_artifact_exits_2(self, tmp_path):
        runner = CliRunner()
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = runner.invoke(main, ["inspect", str(bad), "--what", "path"])
        assert result.exit_code == 2

    def test_non_utf8_artifact_exits_2_as_corrupt(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"mode": "caf\xe9"}')
        result = CliRunner().invoke(main, ["inspect", str(bad), "--what", "path"])
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1
        assert error_lines(result)[0].startswith(f"error: corrupt artifact {bad}: ")

    @pytest.mark.parametrize(
        "mode, what, message",
        [
            ("cluster-sum", "matrix", "artifact has no transition matrix (not a markov-cluster run)"),
            ("llm-full", "clusters", "artifact has no clustering data"),
        ],
    )
    def test_facet_the_mode_does_not_record_exits_2(self, tmp_path, mode, what, message):
        result, out_dir = run_summarize(tmp_path, CliRunner(), "run", mode=mode)
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(main, ["inspect", str(out_dir / "artifact.json"), "--what", what])
        assert result.exit_code == 2
        assert error_lines(result) == [f"error: {message}"]

    def test_artifact_without_a_path_exits_2(self, tmp_path):
        art = fixture_artifact(tmp_path)
        with open(art) as fh:
            data = json.load(fh)
        data["path"] = None
        with open(art, "w") as fh:
            json.dump(data, fh)
        result = CliRunner().invoke(main, ["inspect", art, "--what", "path"])
        assert result.exit_code == 2
        assert error_lines(result) == ["error: artifact has no path (not a markov-cluster run)"]

    @pytest.mark.parametrize(
        "field, edit, problem",
        [
            ("path", lambda path: path.pop("order"), "path has no order"),
            (
                "path",
                lambda path: path.update(order=[0, 99, 1]),
                "path order [0, 99, 1] is not a permutation of range(3)",
            ),
            (
                "transition_matrix",
                lambda matrix: matrix.pop("k"),
                "transition_matrix has no k >= 1",
            ),
        ],
        ids=["path-without-order", "order-names-cluster-99", "matrix-without-k"],
    )
    def test_artifact_with_an_unusable_path_or_matrix_exits_2_as_corrupt(
        self, tmp_path, field, edit, problem
    ):
        art = fixture_artifact(tmp_path)
        with open(art) as fh:
            data = json.load(fh)
        edit(data[field])
        with open(art, "w") as fh:
            json.dump(data, fh)
        for what in ("path", "matrix"):
            result = CliRunner().invoke(main, ["inspect", art, "--what", what])
            assert result.exit_code == 2
            assert error_lines(result) == [f"error: corrupt artifact {art}: {problem}"]
            assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("labels", 5, "labels is not a list of integers"),
            (
                "representatives",
                [[1, 2]],
                "representatives is not a map from decimal cluster ids to lists of integers",
            ),
            (
                "representatives",
                {"x": [1]},
                "representatives is not a map from decimal cluster ids to lists of integers",
            ),
        ],
        ids=["labels-not-a-list", "representatives-not-a-map", "representatives-key-not-decimal"],
    )
    def test_artifact_with_unusable_clusters_exits_2_as_corrupt(self, tmp_path, field, value, problem):
        art = fixture_artifact(tmp_path)
        with open(art) as fh:
            data = json.load(fh)
        data[field] = value
        with open(art, "w") as fh:
            json.dump(data, fh)
        result = CliRunner().invoke(main, ["inspect", art, "--what", "clusters"])
        assert result.exit_code == 2
        assert error_lines(result) == [f"error: corrupt artifact {art}: {problem}"]
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestEvaluateCommand:
    def test_identical_pair_scores_one(self, tmp_path):
        (tmp_path / "cand.txt").write_text("The fox jumps. The dog sleeps.")
        (tmp_path / "ref.txt").write_text("The fox jumps. The dog sleeps.")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("cand.txt\tref.txt\tmarkov-cluster\n")
        out = tmp_path / "report.json"
        runner = CliRunner()
        result = runner.invoke(main, ["evaluate", str(manifest), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "100.00" in result.output
        report = json.loads(out.read_text())
        assert report["aggregates"]["markov-cluster"]["rouge1_f1"]["mean"] == 1.0

    def test_empty_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# nothing here\n")
        runner = CliRunner()
        result = runner.invoke(main, ["evaluate", str(manifest)])
        assert result.exit_code == 2

    def test_missing_candidate_file_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("nope.txt\talso-nope.txt\n")
        runner = CliRunner()
        result = runner.invoke(main, ["evaluate", str(manifest)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", ["cand.txt", "ref.txt"])
    def test_non_utf8_summary_file_exits_2_naming_it(self, tmp_path, bad):
        (tmp_path / "cand.txt").write_text("The fox jumps. The dog sleeps.")
        (tmp_path / "ref.txt").write_text("The fox jumps. The dog sleeps.")
        (tmp_path / bad).write_bytes("caf\u00e9. Fin.".encode("latin-1"))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("cand.txt\tref.txt\n")
        result = CliRunner().invoke(main, ["evaluate", str(manifest)])
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1
        assert error_lines(result)[0].startswith(f"error: cannot read {tmp_path / bad}: ")

    def test_non_utf8_manifest_exits_2_naming_it(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"caf\xe9.txt\tref.txt\n")
        result = CliRunner().invoke(main, ["evaluate", str(manifest)])
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1
        assert error_lines(result)[0].startswith(f"error: cannot read {manifest}: ")

    def test_unreachable_embedding_provider_exits_1_with_one_error_line(self, tmp_path):
        (tmp_path / "cand.txt").write_text("The fox jumps. The dog sleeps.")
        (tmp_path / "ref.txt").write_text("The fox jumps. The dog sleeps.")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("cand.txt\tref.txt\n")
        cfg_path = tmp_path / "run.cfg"
        write_config(
            cfg_path,
            extra=[
                "embedding.kind = remote",
                "embedding.endpoint = http://127.0.0.1:1/nowhere",
                "embedding.max_retries = 0",
            ],
        )
        result = CliRunner().invoke(main, ["evaluate", str(manifest), "--config", str(cfg_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert len(error_lines(result)) == 1 and "unreachable" in error_lines(result)[0]
        assert "Traceback" not in result.output


    @staticmethod
    def remote_pair(tmp_path, stub_server):
        """A one-pair manifest and a remote embedding config on a stub that records each call."""
        (tmp_path / "cand.txt").write_text("The fox jumps. The dog sleeps. The cat naps.")
        (tmp_path / "ref.txt").write_text("The fox jumps. The dog sleeps.")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("cand.txt\tref.txt\n")
        server, url = stub_server(
            lambda body: (200, {"data": [{"embedding": [1.0, float(len(t))]} for t in body["input"]]})
        )
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, extra=["embedding.kind = remote", f"embedding.endpoint = {url}"])
        return manifest, cfg_path, server

    @pytest.mark.parametrize("bad", ["cand.txt", "cand.txt\tref.txt\tmarkov-cluster\tmore"])
    def test_manifest_line_with_the_wrong_field_count_exits_2_before_scoring(
        self, tmp_path, stub_server, bad
    ):
        manifest, cfg_path, server = self.remote_pair(tmp_path, stub_server)
        manifest.write_text(f"cand.txt\tref.txt\n{bad}\n")
        result = CliRunner().invoke(main, ["evaluate", str(manifest), "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert error_lines(result) == ["error: manifest line 2: expected 2 or 3 tab-separated fields"]
        assert server.requests == []

    def test_report_path_that_is_a_directory_exits_2_before_any_embedding_call(
        self, tmp_path, stub_server
    ):
        manifest, cfg_path, server = self.remote_pair(tmp_path, stub_server)
        args = ["evaluate", str(manifest), "--config", str(cfg_path), "--out"]
        written = CliRunner().invoke(main, [*args, str(tmp_path / "report.json")])
        assert written.exit_code == 0, written.output
        assert len(server.requests) > 0
        server.requests.clear()

        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        result = CliRunner().invoke(main, [*args, str(out_dir)])
        assert result.exit_code == 2
        assert error_lines(result) == [f"error: cannot write report {out_dir}: it is a directory"]
        assert result.output == error_lines(result)[0] + "\n"  # no table
        assert server.requests == []
        assert os.listdir(out_dir) == []

    def test_report_path_whose_directory_cannot_be_made_exits_2_before_scoring(
        self, tmp_path, stub_server
    ):
        manifest, cfg_path, server = self.remote_pair(tmp_path, stub_server)
        (tmp_path / "plain.txt").write_text("a file, not a directory\n")
        out = tmp_path / "plain.txt" / "report.json"
        result = CliRunner().invoke(
            main, ["evaluate", str(manifest), "--config", str(cfg_path), "--out", str(out)]
        )
        assert result.exit_code == 2
        assert len(error_lines(result)) == 1
        assert error_lines(result)[0].startswith(f"error: cannot write report {out}: ")
        assert ".tmp" not in result.output and "Approach" not in result.output
        assert server.requests == []


class TestBenchCommand:
    def test_csv_schema_and_row_count(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["bench", "--max-k", "12", "--trials", "1"])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes.startswith(b"k,milliseconds\n2,")
        assert result.stdout_bytes.count(b"\n") == 12 and b"\r" not in result.stdout_bytes
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "milliseconds"]
        assert len(rows) == 1 + 11  # header + k = 2..12
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(2, 13)]
        assert all(float(r[1]) >= 0 for r in rows[1:])

    def test_max_k_beyond_cap_exits_2(self):
        runner = CliRunner()
        assert runner.invoke(main, ["bench", "--max-k", "23"]).exit_code == 2

    @pytest.mark.parametrize(
        "args, name", [(["--max-k", "1"], "--max-k"), (["--trials", "0"], "--trials")]
    )
    def test_limits_below_their_floor_exit_2(self, args, name):
        result = CliRunner().invoke(main, ["bench", *args])
        assert result.exit_code == 2
        assert f"Invalid value for '{name}'" in result.output

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "bench.csv"
        runner = CliRunner()
        result = runner.invoke(main, ["bench", "--max-k", "3", "--trials", "1", "--out", str(out)])
        assert result.exit_code == 0
        raw = out.read_bytes()
        assert raw.startswith(b"k,milliseconds\n2,")
        assert raw.count(b"\n") == 3 and b"\r" not in raw

    def test_closed_stdout_exits_1_without_an_error_line(self):
        args = ["bench", "--max-k", "3", "--trials", "1"]
        proc = console(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the command writes its table
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"error:" not in stderr and b"Traceback" not in stderr
