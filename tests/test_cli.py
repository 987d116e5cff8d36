import csv
import io
import json
import math
import os

import numpy as np
from click.testing import CliRunner

from conftest import make_topic_document, tokens_per_chunk
from themepath.artifact import RunArtifact, matrix_to_dict, save_artifact
from themepath.cli import main
from themepath.config import RunConfig
from themepath.markov import build_transition_matrix
from themepath.pathfinding import solve_dp


def write_config(path, chunk_size=None, overlap=None, extra=()):
    lines = ["llm.kind = mock-extractive", "embedding.kind = deterministic-test"]
    if chunk_size is not None:
        lines.append(f"chunk_size = {chunk_size}")
    if overlap is not None:
        lines.append(f"overlap = {overlap}")
    lines.extend(extra)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_summarize(tmp_path, runner, out_name, mode="markov-cluster", seed=0):
    document = make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"])
    doc_path = tmp_path / "doc.txt"
    doc_path.write_text(document)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, chunk_size=tokens_per_chunk(), overlap=0, extra=["k = 3"])
    out_dir = tmp_path / out_name
    result = runner.invoke(
        main,
        [
            "summarize",
            str(doc_path),
            "--config",
            str(cfg_path),
            "--mode",
            mode,
            "--seed",
            str(seed),
            "--out-dir",
            str(out_dir),
        ],
    )
    return result, out_dir


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


class TestBenchCommand:
    def test_csv_schema_and_row_count(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["bench", "--max-k", "12", "--trials", "1"])
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "milliseconds"]
        assert len(rows) == 1 + 11  # header + k = 2..12
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(2, 13)]
        assert all(float(r[1]) >= 0 for r in rows[1:])

    def test_compare_mode_times_each_backend(self):
        runner = CliRunner()
        result = runner.invoke(main, ["bench", "--max-k", "4", "--trials", "1", "--compare"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["k", "backend", "milliseconds"]
        backends = {r[1] for r in rows[1:]}
        assert "pure" in backends

    def test_max_k_beyond_cap_exits_2(self):
        runner = CliRunner()
        assert runner.invoke(main, ["bench", "--max-k", "23"]).exit_code == 2

    def test_out_file_written(self, tmp_path):
        out = tmp_path / "bench.csv"
        runner = CliRunner()
        result = runner.invoke(main, ["bench", "--max-k", "3", "--trials", "1", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("k,milliseconds")
