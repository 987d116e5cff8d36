"""Sliding-window token chunker.

Tokenization is a deterministic Unicode word tokenizer: maximal runs of
letters/digits form one token, every other non-whitespace character is its
own token.  The pipeline only depends on token counts and offsets, not on
any particular subword vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_", re.UNICODE)


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
    """Split text into tokens with exact byte offsets.

    Every non-whitespace character of the input lands in exactly one token.
    Empty input yields an empty sequence.
    """
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []
    if text.isascii():
        for m in _TOKEN_RE.finditer(text):
            tokens.append(m.group())
            offsets.append(m.span())
    else:
        # Track the char -> byte cursor incrementally; offsets are UTF-8 byte
        # positions even when the regex works in code points.
        char_pos = 0
        byte_pos = 0
        for m in _TOKEN_RE.finditer(text):
            byte_pos += len(text[char_pos : m.start()].encode("utf-8"))
            token = m.group()
            token_bytes = len(token.encode("utf-8"))
            tokens.append(token)
            offsets.append((byte_pos, byte_pos + token_bytes))
            byte_pos += token_bytes
            char_pos = m.end()
    return TokenSequence(tokens=tokens, offsets=offsets)


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
    seq = tokenize(text)
    total = len(seq)
    if total == 0:
        return []

    encoded = text.encode("utf-8")
    stride = cfg.chunk_size - cfg.overlap
    chunks: list[Chunk] = []
    index = 0
    start = 0
    while True:
        end = min(start + cfg.chunk_size, total)
        byte_start = seq.offsets[start][0]
        byte_end = seq.offsets[end - 1][1]
        chunks.append(
            Chunk(
                index=index,
                text=encoded[byte_start:byte_end].decode("utf-8"),
                token_count=end - start,
                byte_span=(byte_start, byte_end),
                token_span=(start, end),
            )
        )
        if end >= total:
            return chunks
        index += 1
        start = index * stride
