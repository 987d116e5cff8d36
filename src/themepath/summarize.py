"""The LLM calls of the pipeline: cluster summaries, final aggregation and
the whole-document baseline.

Every call goes through ``_complete(template, texts, cfg)``, where
``template`` names the prompt template the call fills:

* ``mock-extractive`` answers offline from a table keyed by template:
  ``cluster_summary`` joins the first sentence of each text with a space,
  ``final_summary`` joins the texts with ``SECTION_DELIMITER``, and
  ``document_summary`` is the first sentence of that join.  It is fully
  deterministic; golden-file tests and the reproducibility guarantees rest
  on it.
* ``remote-chat`` fills the template with the texts joined by
  ``SECTION_DELIMITER``, posts a chat-completion request (system + user
  message, model, temperature) and reads choices[0].message.content.

Prompt templates are versioned data files under ``prompts/``; the version
tag travels in provider metadata so runs can be compared across template
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

from .chunking import Chunk, ChunkerConfig, chunk_document, count_tokens
from .errors import ProtocolError
from .evaluation import first_sentence
from .pathfinding import DP_HARD_CAP
from .transport import Remote, map_ordered, post_json

PROMPT_VERSION = "v1"
SECTION_DELIMITER = "\n\n"

_SYSTEM_PROMPT = "You are a careful assistant that summarizes book sections faithfully."


@dataclass
class LlmProviderConfig(Remote):
    kind: str = "mock-extractive"  # or "remote-chat"
    model_name: str = "gpt-4o-mini"
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout: float = 60.0
    # Cluster summaries or llm-full pieces in flight at once.  choose_k gives
    # at most DP_HARD_CAP clusters, so by default every summary is sent in one
    # wave; lower it for a provider that rate-limits bursts.
    parallelism: int = DP_HARD_CAP
    # llm-full baseline: documents beyond context_limit - context_margin
    # tokens are split, summarized piecewise, and stitched once.
    context_limit: int | None = None
    context_margin: int = 1024

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("mock-extractive", "remote-chat"):
            raise ValueError(f"unknown llm provider kind: {self.kind!r}")
        if self.kind == "remote-chat" and not self.endpoint:
            raise ValueError("remote-chat provider requires an endpoint")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.context_margin < 0:
            raise ValueError(f"context_margin must be >= 0, got {self.context_margin}")
        if self.context_limit is not None and self.context_limit <= self.context_margin:
            raise ValueError(
                "context_limit must be > context_margin, "
                f"got {self.context_limit} <= {self.context_margin}"
            )


@dataclass
class ClusterSummary:
    cluster_id: int
    representative_chunk_ids: list[int]
    summary_text: str
    provider_metadata: dict = field(default_factory=dict)


def _load_template(name: str) -> str:
    path = resources.files("themepath").joinpath(f"prompts/{name}_{PROMPT_VERSION}.txt")
    return path.read_text(encoding="utf-8")


# The mock provider's answer for each template: a pure function of the texts.
_MOCK_ANSWERS = {
    "cluster_summary": lambda texts: " ".join(first_sentence(t) for t in texts),
    "final_summary": SECTION_DELIMITER.join,
    "document_summary": lambda texts: first_sentence(SECTION_DELIMITER.join(texts)),
}


def _complete(
    template: str, texts: list[str], cfg: LlmProviderConfig, token_counts: list[int | None] | None = None
) -> tuple[str, dict]:
    """One provider call on prompt ``template`` over ``texts``; returns (text, metadata).

    ``token_counts`` may give a text's ``count_tokens`` when the caller
    already knows it (None where it does not); the mock then counts only the
    rest.
    """
    if cfg.kind == "mock-extractive":
        text = _MOCK_ANSWERS[template](texts)
        counts = token_counts or [None] * len(texts)
        prompt_tokens = sum(count_tokens(t) if n is None else n for t, n in zip(texts, counts, strict=True))
        usage = {"prompt_tokens": prompt_tokens, "completion_tokens": count_tokens(text)}
        return text, {"model": "mock-extractive", "prompt_version": PROMPT_VERSION, "usage": usage}

    prompt = _load_template(template).format(sections=SECTION_DELIMITER.join(texts))
    payload = {
        "model": cfg.model_name,
        "messages": [
            {"role": "system", "content": _SYSTEM_PROMPT},
            {"role": "user", "content": prompt},
        ],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }
    data = post_json(cfg, payload)
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ProtocolError("chat response missing choices[0].message.content")
    if not isinstance(text, str) or not text.strip():
        raise ProtocolError("chat provider returned an empty completion")
    # Only integer counts are kept: the JSON decoder accepts NaN and Infinity,
    # which the artifact, written as strict JSON, cannot hold.
    usage = data.get("usage")
    usage = {k: v for k, v in usage.items() if type(v) is int} if isinstance(usage, dict) else {}
    return text, {"model": cfg.model_name, "prompt_version": PROMPT_VERSION, "usage": usage}


def _map_calls(fn, items: list, cfg: LlmProviderConfig) -> list:
    """``[fn(x) for x in items]`` for independent provider calls, run through ``map_ordered``."""
    # The mock provider does no I/O, so threads would only take turns holding the GIL.
    return map_ordered(fn, items, cfg.parallelism if cfg.kind == "remote-chat" else 1)


def summarize_cluster(
    rep_texts: list[str],
    cfg: LlmProviderConfig,
    cluster_id: int = 0,
    rep_ids: list[int] | None = None,
    rep_tokens: list[int] | None = None,
) -> ClusterSummary:
    """One summary for one cluster's representative chunk texts.

    ``rep_tokens``, when given, holds each text's token count, so the mock
    provider need not count the texts again.
    """
    if not rep_texts:
        raise ValueError("summarize_cluster requires at least one representative text")
    text, meta = _complete("cluster_summary", rep_texts, cfg, rep_tokens)
    return ClusterSummary(
        cluster_id=cluster_id,
        representative_chunk_ids=rep_ids if rep_ids is not None else list(range(len(rep_texts))),
        summary_text=text,
        provider_metadata=meta,
    )


def summarize_clusters(
    reps: dict[int, list[int]], chunks: list[Chunk], cfg: LlmProviderConfig
) -> dict[int, ClusterSummary]:
    """Summarize every cluster from its representative chunks; keyed by cluster id."""

    def one(cluster_id: int) -> ClusterSummary:
        rep_ids = reps[cluster_id]
        rep_chunks = [chunks[i] for i in rep_ids]
        return summarize_cluster(
            [c.text for c in rep_chunks],
            cfg,
            cluster_id=cluster_id,
            rep_ids=rep_ids,
            rep_tokens=[c.token_count for c in rep_chunks],
        )

    return {summary.cluster_id: summary for summary in _map_calls(one, sorted(reps), cfg)}


def aggregate_final(ordered_summaries: list[ClusterSummary], cfg: LlmProviderConfig) -> str:
    """Fuse cluster summaries, in the given order, into the final text."""
    if not ordered_summaries:
        raise ValueError("aggregate_final requires at least one summary")
    texts = [s.summary_text for s in ordered_summaries]
    text, _ = _complete("final_summary", texts, cfg, [_mock_count(s) for s in ordered_summaries])
    return text


def _mock_count(summary: ClusterSummary) -> int | None:
    """A summary's token count when the mock wrote it: its usage then holds ``count_tokens``'s."""
    meta = summary.provider_metadata
    if meta.get("model") != "mock-extractive":
        return None
    return meta.get("usage", {}).get("completion_tokens")


def summarize_full_document(document: str, cfg: LlmProviderConfig) -> tuple[str, bool]:
    """Whole-document baseline; returns (summary, stitched_flag).

    When the document exceeds context_limit - context_margin tokens it is
    split into token windows, each window is summarized (concurrently, as
    cluster summaries are), and the piece summaries, joined in piece order,
    are summarized once more (a single recursion level).
    """
    if cfg.context_limit is not None:
        budget = cfg.context_limit - cfg.context_margin
        pieces = chunk_document(document, ChunkerConfig(chunk_size=budget, overlap=0))
        if len(pieces) > 1:
            piece_summaries = _map_calls(
                lambda piece: _complete("document_summary", [piece.text], cfg)[0], pieces, cfg
            )
            return _complete("document_summary", piece_summaries, cfg)[0], True
    # A document within the budget is sent as it is, surrounding whitespace included.
    return _complete("document_summary", [document], cfg)[0], False
