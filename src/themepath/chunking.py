"""Sliding-window token chunker.

Tokenization is a deterministic Unicode word tokenizer: maximal runs of
letters/digits form one token, every other non-whitespace character is its
own token.  The pipeline only depends on token counts and chunk boundaries,
not on any particular subword vocabulary.

``_walk`` steps over tokens inside the regex engine: one anchored match of
a possessive counted repeat passes from one chunk boundary to the next,
and makes no Python object for the tokens between.  A possessive repeat
keeps no engine state per repetition, so a call's match state does not
grow with the skip, whatever the whitespace.  Where the text runs out,
``_count`` counts the tokens left in matches of 1, 2, 4, ... tokens and
then of halving sizes.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

# The grammar, in two parts: a token is a letter run or one other mark.
LETTER_RUN = r"[^\W_]+"
OTHER_MARK = r"[^\w\s]|_"
_TOKEN = f"{LETTER_RUN}|{OTHER_MARK}"
# One capture group: split() returns gap, token, gap, ..., token, gap, so
# token t is parts[2t + 1]; findall() returns the tokens alone.
_TOKEN_RE = re.compile(f"({_TOKEN})")


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


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


@lru_cache(maxsize=None)
def _skip_re(n: int) -> re.Pattern:
    """A pattern that passes n tokens, then matches the next as group "token".

    Every non-whitespace character lands in a token, so the gaps between
    tokens are exactly runs of \\s.  The letter run is possessive, so the
    repeat never splits a run into several tokens to reach its count.  The
    repeat is possessive too, so the engine keeps no state per repetition.
    """
    atom = rf"\s*+(?:{LETTER_RUN}+|{OTHER_MARK})"
    return re.compile(rf"(?:{atom}){{{n}}}+\s*+(?P<token>{_TOKEN})")


def _count(text: str, pos: int) -> tuple[int, int]:
    """Count the tokens from character pos on.

    Returns (tokens, character offset just past the last, or pos if there
    is none).  Matches of 1, 2, 4, ... tokens pass while they fit, then
    matches of halving sizes pass what is left: about two passes over the
    text, in 2 log2(tokens + 1) + 1 matches at most.
    """
    tokens, size = 0, 1
    while match := _skip_re(size - 1).match(text, pos):
        tokens, pos, size = tokens + size, match.end(), 2 * size
    while size > 1:
        size //= 2
        if match := _skip_re(size - 1).match(text, pos):
            tokens, pos = tokens + size, match.end()
    return tokens, pos


def _walk(text: str, pos: int, n: int) -> tuple[int, int, re.Match | None]:
    """Pass n tokens from character pos on, then match the next one.

    Returns (tokens walked, character offset just past the last, the match):
    n + 1 tokens in one match.  If the text runs out first, the match is
    None, and the count and offset are ``_count``'s, over every token from
    pos on.  n + 1 tokens need n + 1 characters, so a larger n is counted
    without a match: sre refuses a count of 2^32 - 1 or more.
    """
    if n < len(text) - pos and (match := _skip_re(n).match(text, pos)):
        return n + 1, match.end(), match
    return (*_count(text, pos), None)


def count_tokens(text: str) -> int:
    """How many tokens text has, counted by ``_count``."""
    return _count(text, 0)[0]


def chunk_document(text: str, cfg: ChunkerConfig = ChunkerConfig()) -> list[Chunk]:
    """Cut text into fixed-size token windows with fixed overlap.

    Chunk i starts at token i * (chunk_size - overlap).  Every chunk except
    possibly the last has exactly chunk_size tokens; the last one is emitted
    even when short so no token is dropped.  A document with no tokens
    yields no chunks.

    Counted matches (``_walk``) step from each chunk boundary to the next,
    each anchored where the previous one ended.  A chunk opens at its first
    token, recording that token's index, character offset and UTF-8 offset,
    and closes at its last token, taking its text as one slice of the
    document; the overlap keeps up to ceil(chunk_size / stride) open at
    once.
    """
    size, stride = cfg.chunk_size, cfg.chunk_size - cfg.overlap
    chunks: list[Chunk] = []
    opened: deque[tuple[int, int, int]] = deque()  # (token, char, byte) of each open chunk
    total = 0  # tokens walked
    last_end = 0  # character offset just past the last token walked
    # byte_pos is the UTF-8 offset of character byte_char; it moves from one
    # chunk start to the next, so only the text between them is re-encoded.
    byte_char = byte_pos = 0

    def close(end_token: int, end_char: int) -> None:
        start_token, start_char, start_byte = opened.popleft()
        body = text[start_char:end_char]
        byte_span = (start_byte, start_byte + _utf8_len(body))
        token_span = (start_token, end_token)
        chunks.append(Chunk(len(chunks), body, end_token - start_token, byte_span, token_span))

    while True:
        # The next token to stop at: the first token of the next chunk or the
        # last token of the oldest open one.  With chunk_size 1 they are the
        # same token, and a chunk may open where an older one closes.
        next_open = (len(chunks) + len(opened)) * stride
        target = min(next_open, opened[0][0] + size - 1) if opened else next_open
        passed, last_end, match = _walk(text, last_end, target - total)
        total += passed
        if match is None:
            break
        if target == next_open:
            byte_pos += _utf8_len(text[byte_char : match.start("token")])
            byte_char = match.start("token")
            opened.append((target, byte_char, byte_pos))
        if opened[0][0] + size - 1 == target:
            close(total, last_end)
    # The walk ran out and counted every token.  The chunks still open run
    # past the last one.  The oldest of them is the short last chunk,
    # unless a chunk already ended at the last token.
    if opened and not (chunks and chunks[-1].token_span[1] == total):
        close(total, last_end)
    return chunks
