"""Sliding-window token chunker.

Tokenization is a deterministic Unicode word tokenizer: maximal runs of
letters/digits form one token, every other non-whitespace character is its
own token.  The pipeline only depends on token counts and chunk boundaries,
not on any particular subword vocabulary.

``_walk`` steps over tokens inside the regex engine: one anchored match of
a counted repeat passes from one chunk boundary to the next, and makes no
Python object for the tokens between.  A skip longer than ``_PIECE``
tokens is cut into several matches, since the engine keeps state for
every repetition until a match returns; where the text runs out, the
fewer than a piece left are counted match by match.
Besides its output, a call so holds at most one piece's match state,
whatever the whitespace: memory does not grow with the length of the
document, of its runs without whitespace or of a chunk.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice

# The grammar, in two parts: a token is a letter run or one other mark.
LETTER_RUN = r"[^\W_]+"
OTHER_MARK = r"[^\w\s]|_"
_TOKEN = f"{LETTER_RUN}|{OTHER_MARK}"
# One capture group: split() returns gap, token, gap, ..., token, gap, so
# token t is parts[2t + 1]; findall() returns the tokens alone.
_TOKEN_RE = re.compile(f"({_TOKEN})")

# The most tokens one counted match passes.  sre keeps about 230 bytes per
# repetition until the match returns: 0.23 MB here, over 20 MB for a skip
# of 100k tokens.
_PIECE = 1024


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
    tokens are exactly runs of \\s.  The lookahead and backreference make a
    letter run atomic; without them the repeat could split a run into
    several tokens to reach its count.  Atomic groups and possessive
    quantifiers would do the same, but need Python 3.11.
    """
    atom = rf"(?=(?P<run>{LETTER_RUN}))(?P=run)|{OTHER_MARK}"
    return re.compile(rf"(?:\s*(?:{atom})){{{n}}}\s*(?P<token>{_TOKEN})")


def _walk(text: str, pos: int, n: int) -> tuple[int, int, re.Match | None]:
    """Pass n tokens from character pos on, then match the next one.

    Returns (tokens walked, character offset just past the last, the match):
    n + 1 tokens, in whole pieces of one match each and then one more.  If
    the text runs out first, the match is None, and what the pieces left,
    fewer than a piece, is counted match by match, so the count and offset
    cover every token from pos on (the offset is pos if there is none).
    """
    passed = 0
    while n - passed >= _PIECE:
        piece = _skip_re(_PIECE - 1).match(text, pos)
        if piece is None:
            break
        passed, pos = passed + _PIECE, piece.end()
    else:  # every piece matched
        match = _skip_re(n - passed).match(text, pos)
        if match is not None:
            return n + 1, match.end(), match
    last = deque(enumerate(_TOKEN_RE.finditer(text, pos), 1), maxlen=1)
    if last:
        passed, pos = passed + last[0][0], last[0][1].end()
    return passed, pos, None


def count_tokens(text: str) -> int:
    """How many tokens text has.

    The first piece is walked match by match, so a shorter text (each one
    the mock chat provider counts) is walked once.  ``_walk`` counts the
    rest, asked to pass as many tokens as there are characters left.
    """
    head = deque(enumerate(islice(_TOKEN_RE.finditer(text), _PIECE), 1), maxlen=1)
    count, last = head[0] if head else (0, None)
    if count < _PIECE:
        return count
    return count + _walk(text, last.end(), len(text) - last.end())[0]


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
