"""Sliding-window token chunker.

Tokenization is a deterministic Unicode word tokenizer: maximal runs of
letters/digits form one token, every other non-whitespace character is its
own token.  The pipeline only depends on token counts and chunk boundaries,
not on any particular subword vocabulary.  One regex split yields the tokens
and the whitespace between them, so chunks are cut and their byte spans
measured without a per-token offset table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

# One capture group: split() returns gap, token, gap, ..., token, gap, so
# token t is parts[2t + 1]; findall() returns the tokens alone.
_TOKEN_RE = re.compile(r"([^\W_]+|[^\w\s]|_)")


@dataclass
class TokenSequence:
    """Tokens of a document plus their (byte_start, byte_end) spans.

    Offsets index into the UTF-8 encoding of the source text; slicing the
    encoded text at an offset pair and decoding reproduces the token.
    """

    tokens: list[str]
    offsets: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ChunkerConfig:
    chunk_size: int = 500
    overlap: int = 20

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not 0 <= self.overlap < self.chunk_size:
            raise ValueError(
                f"overlap must satisfy 0 <= overlap < chunk_size, got {self.overlap}"
            )


@dataclass
class Chunk:
    """A contiguous token span of the source document."""

    index: int
    text: str
    token_count: int
    byte_span: tuple[int, int]
    token_span: tuple[int, int]


def tokenize(text: str) -> TokenSequence:
    """Split text into tokens with exact UTF-8 byte offsets.

    Every non-whitespace character of the input lands in exactly one token.
    Empty input yields an empty sequence.
    """
    parts = _TOKEN_RE.split(text)
    bounds = list(accumulate(len(p.encode("utf-8")) for p in parts))
    return TokenSequence(parts[1::2], list(zip(bounds[0::2], bounds[1::2])))


def split_tokens(text: str) -> list[str]:
    """The tokens of text, as tokenize() splits them, without offsets."""
    return _TOKEN_RE.findall(text)


def count_tokens(text: str) -> int:
    return len(split_tokens(text))


def chunk_document(text: str, cfg: ChunkerConfig = ChunkerConfig()) -> list[Chunk]:
    """Cut text into fixed-size token windows with fixed overlap.

    Chunk i starts at token i * (chunk_size - overlap).  Every chunk except
    possibly the last has exactly chunk_size tokens; the last one is emitted
    even when short so no token is dropped.  A document with no tokens
    yields no chunks.
    """
    parts = _TOKEN_RE.split(text)
    total = len(parts) // 2
    chunks: list[Chunk] = []
    # byte_start is the UTF-8 offset of parts[cursor]; it advances from one
    # chunk start to the next, so only the text between them is re-encoded.
    cursor = byte_start = 0
    for start in range(0, total, cfg.chunk_size - cfg.overlap):
        end = min(start + cfg.chunk_size, total)
        byte_start += len("".join(parts[cursor : 2 * start + 1]).encode("utf-8"))
        cursor = 2 * start + 1
        body = "".join(parts[cursor : 2 * end])
        byte_span = (byte_start, byte_start + len(body.encode("utf-8")))
        chunks.append(Chunk(len(chunks), body, end - start, byte_span, (start, end)))
        if end == total:
            break
    return chunks
