import dataclasses
import hashlib
import threading
import time

import numpy as np
import pytest

from conftest import make_topic_document, tokens_per_chunk
from themepath import pipeline, summarize
from themepath.artifact import decode_log_prob, to_canonical_json
from themepath.chunking import ChunkerConfig, chunk_document, count_tokens
from themepath.config import RunConfig
from themepath.errors import PipelineStageError, ProtocolError
from themepath.markov import TransitionMatrix
from themepath.pathfinding import DP_HARD_CAP, solve_greedy
from themepath.pipeline import run_pipeline
from themepath.summarize import (
    ClusterSummary,
    LlmProviderConfig,
    SECTION_DELIMITER,
    _load_template,
    aggregate_final,
    summarize_cluster,
    summarize_full_document,
)


def mock_cfg(**kwargs) -> LlmProviderConfig:
    return LlmProviderConfig(kind="mock-extractive", **kwargs)


def pipeline_config(seed=0, mode="markov-cluster", k=3) -> RunConfig:
    return RunConfig(
        chunker=ChunkerConfig(chunk_size=tokens_per_chunk(), overlap=0),
        llm=LlmProviderConfig(),
        k=k,
        seed=seed,
        mode=mode,
    )


def _record_counts(monkeypatch) -> list[str]:
    """Every text the summarize module hands to count_tokens, in call order."""
    counted = []
    monkeypatch.setattr(summarize, "count_tokens", lambda text: counted.append(text) or count_tokens(text))
    return counted


class TestMockProvider:
    def test_first_sentences_joined(self):
        summary = summarize_cluster(["A b. C d.", "E f."], mock_cfg())
        assert summary.summary_text == "A b. E f."

    def test_single_sentence_identity(self):
        assert summarize_cluster(["Only sentence here."], mock_cfg()).summary_text == (
            "Only sentence here."
        )

    def test_metadata_records_model_and_usage(self):
        summary = summarize_cluster(["A b. C d."], mock_cfg(), cluster_id=2, rep_ids=[5, 9])
        assert summary.cluster_id == 2
        assert summary.representative_chunk_ids == [5, 9]
        assert summary.provider_metadata["model"] == "mock-extractive"
        assert summary.provider_metadata["usage"]["prompt_tokens"] > 0

    def test_empty_rep_texts_rejected(self):
        with pytest.raises(ValueError):
            summarize_cluster([], mock_cfg())

    def test_aggregate_preserves_input_order(self):
        a = summarize_cluster(["X marks one."], mock_cfg(), cluster_id=1)
        b = summarize_cluster(["Y marks two."], mock_cfg(), cluster_id=0)
        final = aggregate_final([b, a], mock_cfg())
        assert final == "Y marks two." + SECTION_DELIMITER + "X marks one."

    def test_aggregate_single_summary(self):
        only = summarize_cluster(["Solo text."], mock_cfg())
        assert aggregate_final([only], mock_cfg()) == "Solo text."

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_final([], mock_cfg())

    def test_aggregate_counts_the_summaries_the_mock_did_not_write(self, monkeypatch):
        counted = _record_counts(monkeypatch)
        remote = {"model": "gpt-4o-mini", "usage": {"completion_tokens": 9}}
        mock = {"model": "mock-extractive", "usage": {"completion_tokens": 3}}
        summaries = [
            ClusterSummary(0, [0], "Made elsewhere.", remote),
            ClusterSummary(1, [1], "Made here.", mock),
            ClusterSummary(2, [2], "No metadata."),
        ]
        final = aggregate_final(summaries, mock_cfg())
        assert counted == ["Made elsewhere.", "No metadata.", final]


def _chat_payload(text):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }


class TestRemoteChatProvider:
    def test_canned_summary_verbatim(self, stub_server, no_sleep):
        server, url = stub_server([(200, _chat_payload("Canned cluster summary."))])
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url)
        summary = summarize_cluster(["anything at all"], cfg)
        assert summary.summary_text == "Canned cluster summary."
        body = server.requests[0]["body"]
        assert body["model"] == "gpt-4o-mini"
        assert body["temperature"] == 0.0
        assert body["messages"][0]["role"] == "system"
        assert "anything at all" in body["messages"][1]["content"]

    def test_retry_then_success(self, stub_server, no_sleep):
        server, url = stub_server([(503, {}), (200, _chat_payload("ok"))])
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url, max_retries=2)
        assert summarize_cluster(["text"], cfg).summary_text == "ok"
        assert len(server.requests) == 2

    def test_empty_completion_is_protocol_error(self, stub_server, no_sleep):
        server, url = stub_server([(200, _chat_payload("   "))])
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url)
        with pytest.raises(ProtocolError):
            summarize_cluster(["text"], cfg)

    def test_reply_without_a_completion_is_protocol_error(self, stub_server, no_sleep):
        server, url = stub_server([(200, {"choices": []})])
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url)
        with pytest.raises(ProtocolError, match=r"missing choices\[0\]\.message\.content"):
            summarize_cluster(["text"], cfg)

    def test_bearer_token_sent(self, stub_server, no_sleep, monkeypatch):
        monkeypatch.setenv("LLM_TOKEN", "hunter2")
        server, url = stub_server([(200, _chat_payload("fine"))])
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url, auth_token_env="LLM_TOKEN")
        summarize_cluster(["text"], cfg)
        assert server.requests[0]["headers"].get("Authorization") == "Bearer hunter2"

    def test_aggregate_uses_final_template(self, stub_server, no_sleep):
        server, url = stub_server([(200, _chat_payload("Fused."))])
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url)
        part = summarize_cluster(["One part."], mock_cfg())
        assert aggregate_final([part], cfg) == "Fused."
        assert "ordered section summaries" in server.requests[0]["body"]["messages"][1]["content"]


class TestFullDocumentBaseline:
    def test_mock_returns_first_sentence(self):
        text, stitched = summarize_full_document("First thing. Second thing.", mock_cfg())
        assert text == "First thing." and stitched is False

    def test_stitching_triggers_beyond_context_limit(self):
        doc = " ".join(f"Sentence number {i} ends." for i in range(40))
        cfg = mock_cfg(context_limit=60, context_margin=10)
        text, stitched = summarize_full_document(doc, cfg)
        assert stitched is True
        assert text.startswith("Sentence number 0 ends.")

    def test_remote_sends_document_in_one_request(self, stub_server, no_sleep):
        server, url = stub_server([(200, _chat_payload("Whole-book summary."))])
        doc = "First thing. Second thing."
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url)
        assert summarize_full_document(doc, cfg) == ("Whole-book summary.", False)
        assert [r["body"]["messages"][1]["content"] for r in server.requests] == [
            _load_template("document_summary").format(sections=doc)
        ]

    @pytest.mark.parametrize("n_tokens,stitched", [(50, False), (51, True)])
    def test_stitching_starts_one_token_past_the_budget(
        self, stub_server, no_sleep, n_tokens, stitched
    ):
        server, url = stub_server([(200, _chat_payload("Summary."))])
        doc = "\n " + " ".join(f"w{i}" for i in range(n_tokens)) + " \n"
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url, context_limit=60, context_margin=10)
        assert summarize_full_document(doc, cfg) == ("Summary.", stitched)
        prompts = [r["body"]["messages"][1]["content"] for r in server.requests]
        template = _load_template("document_summary")
        if stitched:
            pieces = [" ".join(f"w{i}" for i in range(50)), "w50"]
            assert sorted(prompts[:-1]) == sorted(template.format(sections=p) for p in pieces)
            assert prompts[-1] == template.format(sections=SECTION_DELIMITER.join(["Summary."] * 2))
        else:
            # Within the budget the document goes out as it is, whitespace and all.
            assert prompts == [template.format(sections=doc)]

    def test_remote_stitching_summarizes_pieces_then_their_replies(self, stub_server, no_sleep):
        def answer(prompt):
            return f"Reply {hashlib.sha256(prompt.encode('utf-8')).hexdigest()[:8]}."

        spans = []

        def reply(body):
            started = time.perf_counter()
            time.sleep(0.05)
            spans.append((started, time.perf_counter()))
            return 200, _chat_payload(answer(body["messages"][1]["content"]))

        server, url = stub_server(reply)
        doc = " ".join(f"Sentence number {i} ends." for i in range(40))
        cfg = LlmProviderConfig(
            kind="remote-chat", endpoint=url, context_limit=60, context_margin=10, parallelism=4
        )
        text, stitched = summarize_full_document(doc, cfg)

        pieces = chunk_document(doc, ChunkerConfig(chunk_size=50, overlap=0))
        assert len(pieces) > 1
        template = _load_template("document_summary")
        piece_prompts = [template.format(sections=p.text) for p in pieces]
        prompts = [r["body"]["messages"][1]["content"] for r in server.requests]
        assert sorted(prompts[:-1]) == sorted(piece_prompts)  # sent in any order
        piece_replies = [answer(p) for p in piece_prompts]
        assert prompts[-1] == template.format(sections=SECTION_DELIMITER.join(piece_replies))
        assert (text, stitched) == (answer(prompts[-1]), True)
        piece_spans = spans[:-1]
        assert any(
            a_start < b_end and b_start < a_end
            for i, (a_start, a_end) in enumerate(piece_spans)
            for b_start, b_end in piece_spans[i + 1 :]
        ), "no two piece requests were in flight at once"


class _Waves:
    """A chat stub that holds the first ``calls`` requests in waves of ``size``.

    The n-th request is held until ceil(n / size) * size requests have
    arrived (or all ``calls`` have), and ``most`` records the most held or
    answering at once.  A wave that never fills waits out the 10 s timeout
    and sets ``timed_out``, so a passing test does not depend on timing.
    When the waves are smaller than the run, the first one is held a further
    0.2 s once full: a client with more calls in flight would send one more
    in that time and raise ``most``.  Later requests (the aggregate, the
    stitch) are answered at once.
    """

    def __init__(self, calls: int, size: int):
        self.calls, self.size = calls, size
        self.cond = threading.Condition()
        self.arrived = self.in_flight = self.most = 0
        self.timed_out = False

    def __call__(self, body):
        with self.cond:
            self.arrived += 1
            n = self.arrived
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
            self.cond.notify_all()
            if n <= self.calls:
                wave_end = min(self.calls, -(-n // self.size) * self.size)
                if not self.cond.wait_for(lambda: self.arrived >= wave_end, timeout=10):
                    self.timed_out = True
                if n <= self.size < self.calls:
                    self.cond.wait_for(lambda: self.arrived > self.size, timeout=0.2)
            self.in_flight -= 1
        return 200, _chat_payload(f"Reply {n}.")


class TestOneWave:
    """By default every cluster summary, and every stitched piece, is in flight at once."""

    # 24 chunks of random words: 24 distinct vectors, so k = DP_HARD_CAP stands.
    DOCUMENT = make_topic_document(seed=6, topic_order=["beta", "gamma", "alpha", "delta"], chunks_per_topic=6)

    def _cluster_sum(self, stub_server, k: int, waves: _Waves, **llm) -> None:
        server, url = stub_server(waves)
        cfg = pipeline_config(seed=6, mode="cluster-sum", k=k)
        cfg.llm = LlmProviderConfig(kind="remote-chat", endpoint=url, **llm)
        result = run_pipeline(self.DOCUMENT, "cluster-sum", cfg)
        assert len(result.cluster_summaries) == k
        assert len(server.requests) == k + 1  # one call per cluster, then the aggregate

    @pytest.mark.parametrize("k", [12, DP_HARD_CAP])
    def test_the_default_sends_every_cluster_summary_at_once(self, stub_server, no_sleep, k):
        assert LlmProviderConfig().parallelism == DP_HARD_CAP
        waves = _Waves(calls=k, size=k)
        self._cluster_sum(stub_server, k, waves)
        assert not waves.timed_out, f"fewer than {k} summaries were in flight at once"
        assert waves.most == k

    def test_a_lower_parallelism_caps_the_calls_in_flight(self, stub_server, no_sleep):
        waves = _Waves(calls=12, size=2)
        self._cluster_sum(stub_server, 12, waves, parallelism=2)
        assert not waves.timed_out
        assert waves.most == 2

    def test_the_default_sends_every_stitched_piece_at_once(self, stub_server, no_sleep):
        waves = _Waves(calls=5, size=5)
        server, url = stub_server(waves)
        doc = " ".join(f"w{i}" for i in range(250))  # five pieces of 50 tokens
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url, context_limit=60, context_margin=10)
        assert summarize_full_document(doc, cfg) == ("Reply 6.", True)
        assert len(server.requests) == 5 + 1
        assert not waves.timed_out, "fewer than 5 pieces were in flight at once"
        assert waves.most == 5


class TestRunPipeline:
    def test_markov_cluster_mode_orders_by_path(self):
        document = make_topic_document(seed=1, topic_order=["alpha", "beta", "gamma"])
        result = run_pipeline(document, "markov-cluster", pipeline_config(seed=1))
        assert result.path is not None
        order = result.path["order"]
        assert [s["cluster_id"] for s in result.cluster_summaries] == order
        assert decode_log_prob(result.path["log_prob"]) <= 0.0
        assert result.final_summary == SECTION_DELIMITER.join(
            s["summary_text"] for s in result.cluster_summaries
        )

    def test_cluster_sum_mode_orders_by_first_appearance(self):
        document = make_topic_document(seed=2, topic_order=["beta", "alpha", "gamma"])
        result = run_pipeline(document, "cluster-sum", pipeline_config(seed=2, mode="cluster-sum"))
        assert result.path is None
        assert result.transition_matrix is None
        assert list(dict.fromkeys(result.labels)) == [0, 1, 2]
        assert [s["cluster_id"] for s in result.cluster_summaries] == [0, 1, 2]

    def test_every_cluster_summarized_exactly_once(self):
        document = make_topic_document(seed=3, topic_order=["alpha", "gamma", "beta"])
        result = run_pipeline(document, "markov-cluster", pipeline_config(seed=3))
        ids = sorted(s["cluster_id"] for s in result.cluster_summaries)
        assert ids == list(range(len(set(result.labels))))

    def test_bit_identical_across_runs(self):
        document = make_topic_document(seed=4, topic_order=["gamma", "alpha", "beta"])
        first = run_pipeline(document, "markov-cluster", pipeline_config(seed=4))
        second = run_pipeline(document, "markov-cluster", pipeline_config(seed=4))
        assert to_canonical_json(first.to_dict()) == to_canonical_json(second.to_dict())

    def test_the_mock_counts_each_text_once(self, monkeypatch):
        """Chunks bring their token counts and summaries their own, so only each new summary is counted."""
        counted = _record_counts(monkeypatch)
        document = make_topic_document(seed=6, topic_order=["alpha", "beta", "gamma", "delta"])
        result = run_pipeline(document, "markov-cluster", pipeline_config(seed=6, k=4))
        texts = [s["summary_text"] for s in result.cluster_summaries]
        assert len(counted) == len(texts) + 1  # each cluster summary, then the final one
        assert sorted(counted) == sorted([*texts, result.final_summary])
        # The usage is what counting every text would give.
        chunks = chunk_document(document, pipeline_config().chunker)
        for summary in result.cluster_summaries:
            usage = summary["provider_metadata"]["usage"]
            reps = [chunks[i].text for i in summary["representative_chunk_ids"]]
            assert usage == {
                "prompt_tokens": sum(map(count_tokens, reps)),
                "completion_tokens": count_tokens(summary["summary_text"]),
            }

    def test_single_chunk_degenerate_document(self):
        cfg = pipeline_config(seed=0, k=1)
        result = run_pipeline("Tiny document. Second sentence.", "markov-cluster", cfg)
        assert result.labels == [0]
        assert result.path["order"] == [0]
        assert decode_log_prob(result.path["log_prob"]) == 0.0
        assert result.final_summary == result.cluster_summaries[0]["summary_text"]

    def test_llm_full_mode_mock_passthrough(self):
        cfg = pipeline_config(seed=0, mode="llm-full")
        result = run_pipeline("Tiny document. Second sentence.", "llm-full", cfg)
        assert result.final_summary == "Tiny document."
        assert result.chunks is None and result.path is None
        assert result.notes == {"llm_full_stitched": False}

    def test_llm_full_stitch_recorded_in_notes(self):
        cfg = pipeline_config(seed=0, mode="llm-full")
        cfg.llm = LlmProviderConfig(context_limit=30, context_margin=5)
        doc = " ".join(f"Sentence number {i} ends." for i in range(30))
        result = run_pipeline(doc, "llm-full", cfg)
        assert result.notes == {"llm_full_stitched": True}

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline("   ", "markov-cluster", pipeline_config())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown mode: 'markov'$"):
            run_pipeline("Some document.", "markov", pipeline_config())

    def test_stage_errors_carry_stage_name(self):
        cfg = pipeline_config()
        cfg.embedding.kind = "remote"
        cfg.embedding.endpoint = "http://127.0.0.1:1/does-not-exist"
        cfg.embedding.max_retries = 0
        with pytest.raises(PipelineStageError) as err:
            run_pipeline("Some document. More text here.", "markov-cluster", cfg)
        assert err.value.stage == "embed"

    def test_collapse_runs_flag_removes_self_transitions(self):
        document = make_topic_document(seed=7, topic_order=["alpha", "beta", "gamma"])
        cfg = pipeline_config(seed=7)
        cfg.collapse_runs = True
        result = run_pipeline(document, "markov-cluster", cfg)
        probs = result.transition_matrix["probs"]
        assert all(probs[i][i] == 0.0 for i in range(len(probs)))

    def test_parallel_cluster_summaries_match_serial(self, stub_server, no_sleep):
        def reply(body):
            # Each reply is derived from its prompt and takes 0-20 ms, so
            # concurrent calls finish out of input order.
            digest = hashlib.sha256(body["messages"][1]["content"].encode("utf-8")).digest()
            time.sleep(digest[0] / 255 * 0.02)
            return 200, _chat_payload(f"Summary {digest[:6].hex()}.")

        server, url = stub_server(reply)
        document = make_topic_document(seed=6, topic_order=["beta", "gamma", "alpha", "delta"])
        runs = {}
        for parallelism in (1, 4):
            cfg = pipeline_config(seed=6, k=4)
            cfg.llm = LlmProviderConfig(kind="remote-chat", endpoint=url, parallelism=parallelism)
            server.requests.clear()
            runs[parallelism] = run_pipeline(document, "markov-cluster", cfg)
            assert len(server.requests) == 4 + 1  # one call per cluster, then the aggregate
        serial, parallel = runs[1], runs[4]
        assert len({s["summary_text"] for s in serial.cluster_summaries}) == 4
        assert parallel.cluster_summaries == serial.cluster_summaries
        assert parallel.final_summary == serial.final_summary

    def test_path_cap_below_k_takes_the_greedy_branch(self, monkeypatch):
        """The exact solver runs up to k = DP_HARD_CAP, the greedy one beyond it."""
        # 24 chunks of random words: 24 distinct vectors, so k = 23 and 22 stand.
        document = make_topic_document(
            seed=6, topic_order=["beta", "gamma", "alpha", "delta"], chunks_per_topic=6
        )
        cfg = pipeline_config(seed=6, k=DP_HARD_CAP + 1)
        greedy = run_pipeline(document, "markov-cluster", cfg)
        data = greedy.transition_matrix
        assert (data["k"], greedy.path["method"]) == (DP_HARD_CAP + 1, "greedy")
        matrix = TransitionMatrix(np.array(data["probs"]), data["k"], frozenset(data["zero_rows"]))
        # The pipeline solves the matrix as built, its clusters numbered by first appearance.
        assert list(dict.fromkeys(greedy.labels)) == list(range(DP_HARD_CAP + 1))
        assert greedy.path["order"] == solve_greedy(matrix).order

        # At the cap the pipeline calls solve_dp; a stand-in spares the 2^22-cell table.
        solved = []
        monkeypatch.setattr(pipeline, "solve_dp", lambda m: solved.append(m.k) or solve_greedy(m))
        run_pipeline(document, "markov-cluster", pipeline_config(seed=6, k=DP_HARD_CAP))
        assert solved == [DP_HARD_CAP]

    def test_order_without_a_positive_path_is_first_appearance(self, monkeypatch):
        """When every order crosses a zero edge, the tie goes to document order."""
        # A hub (0) between three excursions (1, 2, 3): every path puts two excursions side by side.
        labels = [0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 0]
        document = make_topic_document(seed=4, topic_order=["alpha", "beta"], chunks_per_topic=7)
        kmeans = pipeline.kmeans
        monkeypatch.setattr(
            pipeline,
            "kmeans",
            lambda *args, **kwargs: dataclasses.replace(kmeans(*args, **kwargs), labels=np.array(labels)),
        )
        result = run_pipeline(document, "markov-cluster", pipeline_config(seed=4, k=4))
        assert result.labels == labels
        assert decode_log_prob(result.path["log_prob"]) == float("-inf")
        assert result.path["order"] == [0, 1, 2, 3]

    def test_hub_document_without_a_positive_path_summarizes_in_document_order(self):
        """The same hub, clustered by the real kmeans from a document of four topics."""
        topics = ["alpha", "beta", "alpha", "gamma", "alpha", "delta", "alpha"]
        document = make_topic_document(seed=4, topic_order=topics, chunks_per_topic=2)
        result = run_pipeline(document, "markov-cluster", pipeline_config(seed=4, k=4))
        assert result.labels == [0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 0]
        assert decode_log_prob(result.path["log_prob"]) == float("-inf")
        assert result.path["order"] == [0, 1, 2, 3]
        themes = [s["summary_text"].split()[0].rstrip("0123456789") for s in result.cluster_summaries]
        assert themes == ["alpha", "beta", "gamma", "delta"]

    @pytest.mark.parametrize("mode", ["cluster-sum", "llm-full"])
    def test_artifact_config_records_the_mode_that_ran(self, mode):
        document = make_topic_document(seed=2, topic_order=["beta", "alpha", "gamma"])
        result = run_pipeline(document, mode, pipeline_config(seed=2))
        assert result.mode == result.config["mode"] == mode

    def test_progress_callback_sees_stages(self):
        stages = []
        document = make_topic_document(seed=5, topic_order=["alpha", "beta", "gamma"])
        run_pipeline(document, "markov-cluster", pipeline_config(seed=5), progress=stages.append)
        assert stages == [
            "chunk",
            "embed",
            "cluster",
            "representatives",
            "markov",
            "path",
            "summarize_clusters",
            "aggregate",
        ]
