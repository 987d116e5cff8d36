import hashlib
import time

import pytest

from conftest import make_topic_document, tokens_per_chunk
from themepath.artifact import decode_log_prob, to_canonical_json
from themepath.chunking import ChunkerConfig, chunk_document
from themepath.config import RunConfig
from themepath.errors import PipelineStageError, ProtocolError
from themepath.pipeline import first_appearance_order, run_pipeline
from themepath.summarize import (
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

    def test_remote_stitching_summarizes_pieces_then_their_replies(self, stub_server, no_sleep):
        def answer(prompt):
            return f"Reply {hashlib.sha256(prompt.encode('utf-8')).hexdigest()[:8]}."

        server, url = stub_server(
            lambda body: (200, _chat_payload(answer(body["messages"][1]["content"])))
        )
        doc = " ".join(f"Sentence number {i} ends." for i in range(40))
        cfg = LlmProviderConfig(kind="remote-chat", endpoint=url, context_limit=60, context_margin=10)
        text, stitched = summarize_full_document(doc, cfg)

        pieces = chunk_document(doc, ChunkerConfig(chunk_size=50, overlap=0))
        assert len(pieces) > 1
        template = _load_template("document_summary")
        prompts = [r["body"]["messages"][1]["content"] for r in server.requests]
        assert prompts[:-1] == [template.format(sections=p.text) for p in pieces]
        piece_replies = [answer(p) for p in prompts[:-1]]
        assert prompts[-1] == template.format(sections=SECTION_DELIMITER.join(piece_replies))
        assert (text, stitched) == (answer(prompts[-1]), True)


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
        expected = first_appearance_order(result.labels)
        assert [s["cluster_id"] for s in result.cluster_summaries] == expected

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
