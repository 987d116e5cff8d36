"""Summary quality metrics: ROUGE-N overlap and embedding-based coherence.

ROUGE uses multiset-clipped n-gram counting over the package tokenizer,
lowercased, with punctuation tokens excluded; no stemming or stopword
removal.  Coherence embeds sentences through the same provider interface
as the pipeline and averages cosine similarity at offsets one and two.

The sentence splitter is intentionally simple (terminator followed by
whitespace or end of text) and does not handle abbreviations.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import asdict, dataclass, field

from .chunking import LETTER_RUN
from .embeddings import EmbeddingProviderConfig, cosine_similarity, embed_batch

_SENTENCE_END = re.compile(r"[.!?]+(?=\s|$)")
# The tokenizer's letter/digit runs; its other marks are not metric tokens.
_WORD = re.compile(LETTER_RUN)


@dataclass
class RougeScore:
    precision: float
    recall: float
    f1: float
    n: int
    defined: bool = True


@dataclass
class CoherenceScore:
    first_order: float | None
    second_order: float | None
    sentence_count: int


@dataclass
class EvalReport:
    per_document: list[dict]
    aggregates: dict[str, dict[str, dict]]
    failure_counts: dict[str, int] = field(default_factory=dict)


def _metric_tokens(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram precision/recall/F1 of candidate against reference.

    A candidate n-gram is credited at most as often as it occurs in the
    reference.  A reference with no n-grams makes the score undefined
    (defined=False) rather than zero.
    """
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    ref_counts = _ngrams(_metric_tokens(reference), n)
    cand_counts = _ngrams(_metric_tokens(candidate), n)
    ref_total = sum(ref_counts.values())
    cand_total = sum(cand_counts.values())
    if ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0, n, defined=False)
    matches = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
    recall = matches / ref_total
    precision = matches / cand_total if cand_total > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeScore(precision, recall, f1, n)


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end; trims pieces."""
    sentences = []
    start = 0
    for m in _SENTENCE_END.finditer(text):
        piece = text[start : m.end()].strip()
        if piece:
            sentences.append(piece)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def first_sentence(text: str) -> str:
    """split_sentences(text)[0], or "" when it has none, read up to the first sentence end.

    The first piece is never empty, since it holds the terminator.
    """
    end = _SENTENCE_END.search(text)
    return (text[: end.end()] if end else text).strip()


def coherence(text: str, embed_cfg: EmbeddingProviderConfig) -> CoherenceScore:
    """Mean cosine similarity between sentence embeddings one and two apart.

    Fields are None (undefined) when the text has fewer than 2 or 3
    sentences respectively.
    """
    sentences = split_sentences(text)
    count = len(sentences)
    if count < 2:
        return CoherenceScore(None, None, count)
    vectors = embed_batch(sentences, embed_cfg)

    def mean_at(offset: int) -> float | None:
        if count <= offset:
            return None
        sims = [cosine_similarity(vectors[i], vectors[i + offset]) for i in range(count - offset)]
        return sum(sims) / len(sims)

    return CoherenceScore(mean_at(1), mean_at(2), count)


# The report's metrics, in table order: (name, column header, shown as percent).
# Each document scores the first four; the last two are reserved slots for
# externally computed semantic scores, so their means stay None (shown "-").
_COLUMNS = (
    ("rouge1_f1", "R-1", True),
    ("rouge2_f1", "R-2", True),
    ("coherence_first", "1st-O", False),
    ("coherence_second", "2nd-O", False),
    ("bert_f1", "BF1", False),
    ("bleurt", "BLRT", False),
)


def evaluate_corpus(
    pairs: list[tuple[str, str]],
    embed_cfg: EmbeddingProviderConfig,
    modes: list[str] | None = None,
) -> EvalReport:
    """Score (candidate, reference) pairs and aggregate means per mode.

    Undefined metrics (empty reference, too few sentences) are recorded,
    excluded from the means, and counted in failure_counts.
    """
    if not pairs:
        raise ValueError("evaluate_corpus requires at least one pair")
    if modes is None:
        modes = ["default"] * len(pairs)
    if len(modes) != len(pairs):
        raise ValueError("modes must align with pairs")

    per_document: list[dict] = []
    failures: dict[str, int] = {}
    buckets: dict[str, dict[str, list[float]]] = {}
    for (candidate, reference), mode in zip(pairs, modes):
        r1 = rouge_n(candidate, reference, 1)
        r2 = rouge_n(candidate, reference, 2)
        coh = coherence(candidate, embed_cfg)
        row = {
            "mode": mode,
            "rouge1": {"precision": r1.precision, "recall": r1.recall, "f1": r1.f1, "defined": r1.defined},
            "rouge2": {"precision": r2.precision, "recall": r2.recall, "f1": r2.f1, "defined": r2.defined},
            "coherence": asdict(coh),
        }
        per_document.append(row)
        # One value per scored metric, None when undefined.
        scores = (
            r1.f1 if r1.defined else None,
            r2.f1 if r2.defined else None,
            coh.first_order,
            coh.second_order,
        )
        bucket = buckets.setdefault(mode, {name: [] for name, _, _ in _COLUMNS})
        for (name, _, _), value in zip(_COLUMNS, scores):
            failures.setdefault(name, 0)
            if value is None:
                failures[name] += 1
            else:
                bucket[name].append(value)

    aggregates = {
        mode: {
            name: {"mean": sum(values) / len(values) if values else None, "count": len(values)}
            for name, values in bucket.items()
        }
        for mode, bucket in buckets.items()
    }
    return EvalReport(per_document=per_document, aggregates=aggregates, failure_counts=failures)


def _cell(mean: float | None, percent: bool) -> str:
    if mean is None:
        return "-"
    return f"{mean * 100:.2f}" if percent else f"{mean:.3f}"


def render_table(report: EvalReport) -> str:
    """Aligned-column table of the per-mode means (ROUGE shown as percent)."""
    headers = ["Approach", *(header for _, header, _ in _COLUMNS)]
    rows = [
        [mode, *(_cell(report.aggregates[mode][name]["mean"], percent) for name, _, percent in _COLUMNS)]
        for mode in sorted(report.aggregates)
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines) + "\n"
