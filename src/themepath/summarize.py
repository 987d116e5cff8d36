"""LLM providers and the summary calls of the pipeline.

Two providers implement the same three semantic calls (cluster summary,
final aggregation, whole-document summary):

* ``mock-extractive`` is fully deterministic and offline: the first
  sentence of each input text, joined in order.  Golden-file tests and the
  reproducibility guarantees rest on it.
* ``remote-chat`` posts a chat-completion request (system + user message,
  model, temperature) and reads choices[0].message.content.

Prompt templates are versioned data files under ``prompts/``; the version
tag travels in provider metadata so runs can be compared across template
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .chunking import count_tokens
from .errors import ProtocolError
from .evaluation import first_sentence
from .transport import post_json

PROMPT_VERSION = "v1"
SECTION_DELIMITER = "\n\n"

_SYSTEM_PROMPT = "You are a careful assistant that summarizes book sections faithfully."


@dataclass
class LlmProviderConfig:
    kind: str = "mock-extractive"  # or "remote-chat"
    endpoint: str = ""
    model_name: str = "gpt-4o-mini"
    auth_token_env: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout: float = 60.0
    max_retries: int = 3
    parallelism: int = 8  # cluster summaries in flight at once
    # llm-full baseline: documents beyond context_limit - context_margin
    # tokens are split, summarized piecewise, and stitched once.
    context_limit: int | None = None
    context_margin: int = 1024

    def __post_init__(self):
        if self.kind not in ("mock-extractive", "remote-chat"):
            raise ValueError(f"unknown llm provider kind: {self.kind!r}")
        if self.kind == "remote-chat" and not self.endpoint:
            raise ValueError("remote-chat provider requires an endpoint")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class ClusterSummary:
    cluster_id: int
    representative_chunk_ids: list[int]
    summary_text: str
    provider_metadata: dict = field(default_factory=dict)


def _load_template(name: str) -> str:
    path = resources.files("themepath").joinpath(f"prompts/{name}_{PROMPT_VERSION}.txt")
    return path.read_text(encoding="utf-8")


class MockExtractiveProvider:
    """First-sentence extraction; pure function of its inputs."""

    def __init__(self, cfg: LlmProviderConfig):
        self.cfg = cfg

    def _respond(self, inputs: list[str], text: str) -> tuple[str, dict]:
        meta = {
            "model": "mock-extractive",
            "prompt_version": PROMPT_VERSION,
            "usage": {
                "prompt_tokens": sum(count_tokens(t) for t in inputs),
                "completion_tokens": count_tokens(text),
            },
        }
        return text, meta

    def summarize_cluster(self, rep_texts: list[str]) -> tuple[str, dict]:
        text = " ".join(first_sentence(t) for t in rep_texts)
        return self._respond(rep_texts, text)

    def aggregate(self, ordered_summaries: list[str]) -> tuple[str, dict]:
        return self._respond(ordered_summaries, SECTION_DELIMITER.join(ordered_summaries))

    def summarize_document(self, text: str) -> tuple[str, dict]:
        return self._respond([text], first_sentence(text))


class RemoteChatProvider:
    """Chat-completion HTTP contract with retry and bearer-token auth."""

    def __init__(self, cfg: LlmProviderConfig):
        self.cfg = cfg

    def _complete(self, user_prompt: str) -> tuple[str, dict]:
        cfg = self.cfg
        payload = {
            "model": cfg.model_name,
            "messages": [
                {"role": "system", "content": _SYSTEM_PROMPT},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
        }
        data = post_json(
            cfg.endpoint,
            payload,
            auth_token_env=cfg.auth_token_env,
            timeout=cfg.timeout,
            max_retries=cfg.max_retries,
        )
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise ProtocolError("chat response missing choices[0].message.content")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("chat provider returned an empty completion")
        meta = {
            "model": cfg.model_name,
            "prompt_version": PROMPT_VERSION,
            "usage": data.get("usage", {}),
        }
        return text, meta

    def summarize_cluster(self, rep_texts: list[str]) -> tuple[str, dict]:
        prompt = _load_template("cluster_summary").format(
            sections=SECTION_DELIMITER.join(rep_texts)
        )
        return self._complete(prompt)

    def aggregate(self, ordered_summaries: list[str]) -> tuple[str, dict]:
        prompt = _load_template("final_summary").format(
            sections=SECTION_DELIMITER.join(ordered_summaries)
        )
        return self._complete(prompt)

    def summarize_document(self, text: str) -> tuple[str, dict]:
        prompt = _load_template("document_summary").format(sections=text)
        return self._complete(prompt)


def make_provider(cfg: LlmProviderConfig):
    if cfg.kind == "mock-extractive":
        return MockExtractiveProvider(cfg)
    return RemoteChatProvider(cfg)


def summarize_cluster(
    rep_texts: list[str], cfg: LlmProviderConfig, cluster_id: int = 0, rep_ids: list[int] | None = None
) -> ClusterSummary:
    """One summary for one cluster's representative chunk texts."""
    if not rep_texts:
        raise ValueError("summarize_cluster requires at least one representative text")
    text, meta = make_provider(cfg).summarize_cluster(rep_texts)
    return ClusterSummary(
        cluster_id=cluster_id,
        representative_chunk_ids=rep_ids if rep_ids is not None else list(range(len(rep_texts))),
        summary_text=text,
        provider_metadata=meta,
    )


def aggregate_final(ordered_summaries: list[ClusterSummary], cfg: LlmProviderConfig) -> str:
    """Fuse cluster summaries, in the given order, into the final text."""
    if not ordered_summaries:
        raise ValueError("aggregate_final requires at least one summary")
    text, _ = make_provider(cfg).aggregate([s.summary_text for s in ordered_summaries])
    return text


def summarize_full_document(document: str, cfg: LlmProviderConfig) -> tuple[str, bool]:
    """Whole-document baseline; returns (summary, stitched_flag).

    When the document exceeds context_limit - context_margin tokens it is
    split into token windows, each window is summarized, and the joined
    piece summaries are summarized once more (a single recursion level).
    """
    provider = make_provider(cfg)
    if cfg.context_limit is not None:
        budget = max(1, cfg.context_limit - cfg.context_margin)
        if count_tokens(document) > budget:
            from .chunking import ChunkerConfig, chunk_document

            pieces = chunk_document(document, ChunkerConfig(chunk_size=budget, overlap=0))
            piece_summaries = [provider.summarize_document(p.text)[0] for p in pieces]
            text, _ = provider.summarize_document(SECTION_DELIMITER.join(piece_summaries))
            return text, True
    text, _ = provider.summarize_document(document)
    return text, False
