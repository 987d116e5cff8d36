"""Sliding-window token chunker.

Tokenization is a deterministic Unicode word tokenizer: maximal runs of
letters/digits form one token, every other non-whitespace character is its
own token.  The pipeline only depends on token counts and chunk boundaries,
not on any particular subword vocabulary.

``chunk_document`` and ``count_tokens`` walk the text in blocks of about
``_BLOCK_CHARS`` characters, each ending at a whitespace character, so no
token is cut.  Besides its output, a call holds one block's tokens at a
time: memory is bounded by one block plus the longest run of text without
whitespace, not by the length of the document.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

# One capture group: split() returns gap, token, gap, ..., token, gap, so
# token t is parts[2t + 1]; findall() returns the tokens alone.
_TOKEN_RE = re.compile(r"([^\W_]+|[^\w\s]|_)")
_SPACE_RE = re.compile(r"\s")
# Characters per block of the walk; a block runs on to its next whitespace.
_BLOCK_CHARS = 1 << 16


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


def _blocks(text: str):
    """(start, end) character ranges that tile text without cutting a token.

    Each range runs from its start to the first whitespace character at or
    after ``_BLOCK_CHARS`` characters on, or to the end of text.  No token
    holds whitespace, so the ranges' tokens, in turn, are the tokens of text.
    """
    start = 0
    while start < len(text):
        space = _SPACE_RE.search(text, start + _BLOCK_CHARS)
        end = space.start() if space else len(text)
        yield start, end
        start = end


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def count_tokens(text: str) -> int:
    return sum(len(_TOKEN_RE.findall(text, start, end)) for start, end in _blocks(text))


def chunk_document(text: str, cfg: ChunkerConfig = ChunkerConfig()) -> list[Chunk]:
    """Cut text into fixed-size token windows with fixed overlap.

    Chunk i starts at token i * (chunk_size - overlap).  Every chunk except
    possibly the last has exactly chunk_size tokens; the last one is emitted
    even when short so no token is dropped.  A document with no tokens
    yields no chunks.

    The text is split one block at a time.  A chunk opens at its first
    token, recording that token's index, character offset and UTF-8 offset,
    and closes at its last token, taking its text as one slice of the
    document; the overlap keeps up to ceil(chunk_size / stride) open at once.
    """
    size, stride = cfg.chunk_size, cfg.chunk_size - cfg.overlap
    chunks: list[Chunk] = []
    opened: deque[tuple[int, int, int]] = deque()  # (token, char, byte) of each open chunk
    total = 0  # tokens in the blocks before this one
    last_end = 0  # character offset just past the last token seen
    # byte_pos is the UTF-8 offset of character byte_char; it moves from one
    # chunk start to the next, so only the text between them is re-encoded.
    byte_char = byte_pos = 0

    def close(end_token: int, end_char: int) -> None:
        start_token, start_char, start_byte = opened.popleft()
        body = text[start_char:end_char]
        byte_span = (start_byte, start_byte + _utf8_len(body))
        token_span = (start_token, end_token)
        chunks.append(Chunk(len(chunks), body, end_token - start_token, byte_span, token_span))

    for start, end in _blocks(text):
        parts = _TOKEN_RE.split(text[start:end])
        part, pos = 0, start  # pos is the character offset of parts[part]
        while True:
            # Token t of the document is parts[2 * (t - total) + 1].  The next
            # chunk opens at the start of its first token (an odd part index),
            # the oldest open one closes just past its last token (an even
            # one), so the two never fall on the same index.
            next_open = 2 * ((len(chunks) + len(opened)) * stride - total) + 1
            next_close = 2 * (opened[0][0] + size - 1 - total) + 2 if opened else next_open + 1
            target = min(next_open, next_close)
            if target >= len(parts):
                break
            pos += sum(map(len, parts[part:target]))
            part = target
            if target == next_open:
                byte_pos += _utf8_len(text[byte_char:pos])
                byte_char = pos
                opened.append((total + target // 2, pos, byte_pos))
            else:
                close(total + target // 2, pos)
        count = len(parts) // 2
        if count:
            total += count
            last_end = end - len(parts[-1])
    # The chunks still open run past the last token.  The oldest of them is
    # the short last chunk, unless a chunk already ended at the last token.
    if opened and not (chunks and chunks[-1].token_span[1] == total):
        close(total, last_end)
    return chunks
