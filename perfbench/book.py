"""Seeded synthetic book with planted themes and a recurring main plot.

The book alternates a "main plot" theme with excursions, one per theme, in
a fixed planted order: M E1 M E2 M ... Em M.  Every theme has its own
vocabulary of pseudo-words, disjoint from all others, and all themes share
a set of function words.  Because an excursion is only ever entered from
and left to the main plot, no Hamiltonian path over the themes has every
transition positive, which is the regime where the path solver's order is
hardest to get right.

The same seed gives the same bytes.  The token count is fixed whatever
the seed (sections are rescaled to it), so the chunk count is fixed too.
"""

from __future__ import annotations

import itertools
import math
import random

TOTAL_TOKENS = 400_000
EXCURSIONS = 11
VOCAB_PER_THEME = 80
MAIN_PLOT_SHARE = 0.4
LAYOUT_SEED = 20250622
# Lengths of the default chunker (500 tokens, 20 overlap) for the recorded chunk count.
CHUNK_SIZE = 500
CHUNK_OVERLAP = 20

FUNCTION_WORDS = [
    "the", "a", "and", "of", "to", "in", "was", "that", "with", "for",
    "as", "on", "at", "by", "from", "her", "his", "it", "they", "but",
]
_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "gr", "th"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]


def _vocabularies(rng: random.Random, themes: int) -> list[list[str]]:
    """Disjoint pseudo-word vocabularies, one per theme."""
    taken = set(FUNCTION_WORDS)
    vocabs = []
    for _ in range(themes):
        words: list[str] = []
        while len(words) < VOCAB_PER_THEME:
            word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4)))
            if word not in taken:
                taken.add(word)
                words.append(word)
        vocabs.append(words)
    return vocabs


def _section_lengths(rng: random.Random, sequence: list[int], total: int) -> list[int]:
    """Token budget per section: main plot gets MAIN_PLOT_SHARE, jittered, summing to total."""
    main_sections = sequence.count(0)
    raw = []
    for theme in sequence:
        share = MAIN_PLOT_SHARE / main_sections if theme == 0 else (1 - MAIN_PLOT_SHARE) / EXCURSIONS
        raw.append(share * rng.uniform(0.7, 1.3))
    scale = total / sum(raw)
    lengths = [int(r * scale) for r in raw]
    lengths[-1] += total - sum(lengths)
    return lengths


def _sentence(rng: random.Random, vocab: list[str], cum_weights: list[float]) -> list[str]:
    n = rng.randint(8, 16)
    content = rng.choices(vocab, cum_weights=cum_weights, k=n)
    function = rng.choices(FUNCTION_WORDS, k=n)
    words = [f if rng.random() < 0.35 else c for c, f in zip(content, function)]
    words[0] = words[0].capitalize()
    return words + ["."]


def chunk_count(tokens: int) -> int:
    stride = CHUNK_SIZE - CHUNK_OVERLAP
    return 1 + math.ceil(max(0, tokens - CHUNK_SIZE) / stride)


def generate(seed: int, total_tokens: int = TOTAL_TOKENS) -> tuple[str, dict]:
    """Return (text, meta); meta holds the planted order and each section's token span.

    Tokens are words and "." marks, exactly as themepath's tokenizer splits
    them, so a chunk's token_span can be mapped back onto sections.
    """
    # The layout (vocabularies, section lengths) is the workload and stays
    # fixed; the seed draws the words.  Books of different seeds then differ
    # in every sentence but not in how hard they are to cluster.
    layout = random.Random(LAYOUT_SEED)
    rng = random.Random(seed)
    themes = 1 + EXCURSIONS
    vocabs = _vocabularies(layout, themes)
    # Zipf-like word frequencies, as in natural text.
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(VOCAB_PER_THEME)))
    sequence = [0]
    for excursion in range(1, themes):
        sequence += [excursion, 0]

    paragraphs = []
    sections = []
    cursor = 0
    for theme, budget in zip(sequence, _section_lengths(layout, sequence, total_tokens)):
        tokens: list[str] = []
        while len(tokens) < budget:
            tokens += _sentence(rng, vocabs[theme], cum_weights)
        del tokens[budget:]
        tokens[-1] = "."
        sentences = " ".join(tokens).replace(" .", ".")
        paragraphs.append(sentences)
        sections.append({"theme": theme, "token_span": [cursor, cursor + budget]})
        cursor += budget

    meta = {
        "seed": seed,
        "tokens": cursor,
        "chunks": chunk_count(cursor),
        "themes": themes,
        "planted_order": list(range(themes)),
        "sections": sections,
    }
    return "\n\n".join(paragraphs) + "\n", meta


def chunk_themes(meta: dict, token_spans: list[list[int]]) -> list[int]:
    """Majority planted theme of each chunk, given the chunks' token spans."""
    sections = meta["sections"]
    out = []
    for start, end in token_spans:
        overlap: dict[int, int] = {}
        for section in sections:
            s, e = section["token_span"]
            covered = min(e, end) - max(s, start)
            if covered > 0:
                overlap[section["theme"]] = overlap.get(section["theme"], 0) + covered
        out.append(min(overlap, key=lambda t: (-overlap[t], t)))
    return out


def write(seed: int, path: str) -> dict:
    """Write the book for ``seed`` to ``path``; returns its metadata."""
    text, meta = generate(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return meta

