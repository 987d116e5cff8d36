import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from oracles import oracle_chunk_document, oracle_tokenize
from themepath import chunking
from themepath.chunking import (
    Chunk,
    ChunkerConfig,
    chunk_document,
    count_tokens,
    split_tokens,
    tokenize,
)


def make_doc(n_tokens: int) -> str:
    return " ".join(f"w{i}" for i in range(n_tokens))


# Multi-byte letters and symbols (2, 3 and 4 UTF-8 bytes), "İ" (whose
# lowercase is two code points), "_", digits, punctuation and mixed whitespace,
# plus any character UTF-8 can encode (a document is read as UTF-8).
unicode_text = st.text(
    alphabet=st.sampled_from(list("aZ9_,.'é€你İß😀 \t\n\u00a0\u3000"))
    | st.characters(codec="utf-8"),
    max_size=60,
)

# Pieces whose joins put tabs, CRLF, the ideographic space and 2-, 3- and
# 4-byte characters next to each other and to every kind of token.
seam_text = st.lists(
    st.sampled_from(["a", "Z9", "_", ",", "é", "€", "你好", "😀", " ", "\t", "\r\n", "\u3000", "\u00a0"]),
    max_size=40,
).map("".join)


class TestTokenize:
    def test_empty_text(self):
        seq = tokenize("")
        assert seq.tokens == [] and seq.offsets == []

    def test_simple_words(self):
        seq = tokenize("a b a")
        assert seq.tokens == ["a", "b", "a"]
        assert seq.offsets == [(0, 1), (2, 3), (4, 5)]

    def test_punctuation_split(self):
        assert tokenize("Hello, world.").tokens == ["Hello", ",", "world", "."]

    def test_underscore_is_its_own_token(self):
        assert tokenize("a_b").tokens == ["a", "_", "b"]

    def test_offsets_reproduce_tokens_utf8(self):
        text = "café au lait, 3 €! 你好吗"
        seq = tokenize(text)
        encoded = text.encode("utf-8")
        for token, (start, end) in zip(seq.tokens, seq.offsets):
            assert encoded[start:end].decode("utf-8") == token

    @given(st.text(max_size=200))
    def test_tokens_cover_all_non_whitespace(self, text):
        seq = tokenize(text)
        assert "".join(seq.tokens) == "".join(text.split())
        # offsets strictly increasing and non-overlapping
        for (s1, e1), (s2, e2) in zip(seq.offsets, seq.offsets[1:]):
            assert s1 < e1 <= s2 < e2


class TestSplitTokens:
    @pytest.mark.parametrize(
        "text",
        ["Hello, world. It's 3 p.m.", "café au lait, 3 €! 你好吗 İstanbul", "a_b", "", " \t\n "],
    )
    def test_same_tokens_as_tokenize(self, text):
        assert split_tokens(text) == tokenize(text).tokens

    @given(st.text(max_size=200))
    def test_same_tokens_as_tokenize_on_any_text(self, text):
        assert split_tokens(text) == tokenize(text).tokens


class TestChunkerConfig:
    def test_defaults_match_pipeline_parameters(self):
        cfg = ChunkerConfig()
        assert cfg.chunk_size == 500 and cfg.overlap == 20

    @pytest.mark.parametrize("size,overlap", [(500, 500), (500, 501), (10, -1), (0, 0)])
    def test_invalid_configs_rejected(self, size, overlap):
        with pytest.raises(ValueError):
            ChunkerConfig(chunk_size=size, overlap=overlap)


class TestChunkDocument:
    @given(
        st.text(max_size=40),
        st.characters(codec="utf-8").filter(lambda c: not c.isspace()),
        st.text(max_size=40),
        st.integers(1, 8),
    )
    @example("\x1c\x85\u2028", "\u200b", "\u3000\x1f", 1)
    def test_text_with_a_non_whitespace_character_has_a_chunk(self, before, char, after, size):
        # run_pipeline accepts any document that survives strip() and relies on this
        text = before + char + after
        assert text.strip()
        assert chunk_document(text, ChunkerConfig(size, 0))

    def test_exact_fit_single_chunk(self):
        chunks = chunk_document(make_doc(500), ChunkerConfig(500, 20))
        assert len(chunks) == 1
        assert chunks[0].token_span == (0, 500)
        assert chunks[0].token_count == 500

    def test_980_tokens_two_chunks(self):
        chunks = chunk_document(make_doc(980), ChunkerConfig(500, 20))
        assert [c.token_span for c in chunks] == [(0, 500), (480, 980)]

    def test_1000_tokens_three_chunks_short_tail(self):
        chunks = chunk_document(make_doc(1000), ChunkerConfig(500, 20))
        assert [c.token_span for c in chunks] == [(0, 500), (480, 980), (960, 1000)]
        assert chunks[-1].token_count == 40

    def test_short_document_single_chunk(self):
        chunks = chunk_document(make_doc(7), ChunkerConfig(500, 20))
        assert len(chunks) == 1 and chunks[0].token_count == 7

    def test_empty_document_no_chunks(self):
        assert chunk_document("", ChunkerConfig(500, 20)) == []
        assert chunk_document("   \n\t ", ChunkerConfig(500, 20)) == []

    def test_indexes_consecutive_and_text_matches_source(self):
        text = make_doc(977)
        chunks = chunk_document(text, ChunkerConfig(100, 10))
        assert [c.index for c in chunks] == list(range(len(chunks)))
        encoded = text.encode("utf-8")
        for c in chunks:
            assert encoded[c.byte_span[0] : c.byte_span[1]].decode("utf-8") == c.text
            assert count_tokens(c.text) == c.token_count

    @given(seam_text | unicode_text)
    @example("")
    @example(" \t\n \u3000 ")
    @example("İstanbul_ΣΊΣΥΦΟΣ, straße! 3 € 你好吗\n\tend_")
    @example("ab\tcd\r\nef\u3000gh 你好 😀é")
    def test_matches_oracle_on_unicode_for_every_small_config(self, text):
        assert tokenize(text) == oracle_tokenize(text)
        assert count_tokens(text) == len(oracle_tokenize(text))
        for chunk_size in range(1, 13):
            for overlap in range(chunk_size):
                cfg = ChunkerConfig(chunk_size, overlap)
                assert chunk_document(text, cfg) == oracle_chunk_document(text, cfg)

    def test_peak_memory_bounded_per_token(self):
        n_tokens = 100_000
        text = make_doc(n_tokens)
        tracemalloc.start()
        try:
            chunks = chunk_document(text, ChunkerConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks[-1].token_span[1] == n_tokens
        # A per-token offset table alone costs over 100 bytes per token.
        assert peak < 100 * n_tokens

    @given(
        n_tokens=st.integers(min_value=1, max_value=2500),
        chunk_size=st.integers(min_value=2, max_value=600),
        data=st.data(),
    )
    def test_stride_coverage_overlap_invariants(self, n_tokens, chunk_size, data):
        overlap = data.draw(st.integers(min_value=0, max_value=chunk_size - 1))
        cfg = ChunkerConfig(chunk_size, overlap)
        chunks = chunk_document(make_doc(n_tokens), cfg)
        stride = chunk_size - overlap

        assert chunks[0].token_span[0] == 0
        assert chunks[-1].token_span[1] == n_tokens
        covered = set()
        for i, c in enumerate(chunks):
            start, end = c.token_span
            assert start == i * stride
            assert c.token_count == end - start <= chunk_size
            if i < len(chunks) - 1:
                assert c.token_count == chunk_size
            covered.update(range(start, end))
        assert covered == set(range(n_tokens))

        # consecutive chunks share exactly the configured overlap
        for a, b in zip(chunks, chunks[1:]):
            shared = range(max(a.token_span[0], b.token_span[0]), min(a.token_span[1], b.token_span[1]))
            assert len(shared) == overlap

        # joining each chunk's novel tokens reproduces the token sequence
        novel = []
        prev_end = 0
        for c in chunks:
            novel.extend(range(max(c.token_span[0], prev_end), c.token_span[1]))
            prev_end = c.token_span[1]
        assert novel == list(range(n_tokens))


# 400k tokens each: words between spaces, and words and commas with no whitespace at all.
LONG_TEXTS = {
    "spaced": make_doc(400_000),
    "whitespace-free": "".join(f"w{i}," for i in range(200_000)),
}


class TestMatchWalk:
    """chunk_document and count_tokens pass the tokens in counted regex matches.

    ``_walk`` passes a skip in one match; ``_count`` counts what is left in
    matches of rising, then halving sizes, and takes both paths on any text
    of two tokens or more.
    """

    @given(seam_text | unicode_text)
    @example("ab cd ef")
    # A whitespace run after the last token: a possessive repeat that stops
    # partway through its last repetition must still end at that token.
    @example("ab  ")
    @example("a , \t")
    def test_walk_matches_token_n_or_counts_every_token(self, text):
        seq = oracle_tokenize(text)
        data = text.encode("utf-8")
        ends = [len(data[:end].decode("utf-8")) for _, end in seq.offsets]
        for n in range(len(seq) + 3):
            walked, end, match = chunking._walk(text, 0, n)
            if n < len(seq):
                assert (walked, end, match.group("token")) == (n + 1, ends[n], seq.tokens[n])
            else:
                # Past the end the walk counts every token.
                assert (walked, end, match) == (len(seq), ends[-1] if ends else 0, None)

    @given(seam_text | unicode_text)
    @example("abc de\u3000fgh, ij")
    @example("ab cdef")
    def test_short_texts_match_the_oracle(self, text):
        assert count_tokens(text) == len(oracle_tokenize(text))
        for chunk_size in range(1, 9):
            for overlap in range(chunk_size):
                cfg = ChunkerConfig(chunk_size, overlap)
                assert chunk_document(text, cfg) == oracle_chunk_document(text, cfg)

    def test_the_pattern_cache_stays_logarithmic(self):
        chunking._skip_re.cache_clear()
        for n in range(3001):
            assert count_tokens(make_doc(n)) == n
        # Matches of 1, 2, 4, ..., 2,048 tokens: one pattern per power of two.
        assert chunking._skip_re.cache_info().currsize <= 12

    @pytest.mark.parametrize("size", [2**32 - 1, 2**32, 2**40])
    @pytest.mark.parametrize("text", ["a b c", "abcdefghij", "caf\u00e9 \u4f60\u597d, \U0001f600 "])
    def test_windows_beyond_the_repeat_limit_match_the_oracle(self, text, size):
        # sre refuses a repeat count of 2^32 - 1 or more.
        cfg = ChunkerConfig(size, 3)
        assert chunk_document(text, cfg) == oracle_chunk_document(text, cfg)

    def test_a_letter_run_at_the_end_is_never_split(self):
        # A counted repeat that may backtrack into a letter run reaches its
        # count by cutting "cdef" or the last run of b into several tokens.
        assert count_tokens("abcdef") == 1
        chunks = chunk_document("ab cdef", ChunkerConfig(3, 0))
        assert [(c.text, c.token_span) for c in chunks] == [("ab cdef", (0, 2))]
        text = "a " * 1500 + "b" * 3000
        cfg = ChunkerConfig(2000, 0)
        assert count_tokens(text) == 1501
        assert chunk_document(text, cfg) == oracle_chunk_document(text, cfg)

    @pytest.mark.parametrize(
        "text",
        [
            "ab" + " \t\r\n\u3000" * 9 + "cd, ef",  # a long whitespace run
            "x" + "é€你😀_9," * 9 + " y z",  # a long run without whitespace
            "\r\n" * 30,
            "😀é\u3000" * 15,
        ],
        ids=["whitespace-run", "no-whitespace-run", "crlf-only", "multibyte"],
    )
    @pytest.mark.parametrize("chunk_size", [1, 3, 5])
    def test_long_runs_match_the_oracle_at_every_overlap(self, text, chunk_size):
        assert count_tokens(text) == len(oracle_tokenize(text))
        for overlap in range(chunk_size):
            cfg = ChunkerConfig(chunk_size, overlap)
            assert chunk_document(text, cfg) == oracle_chunk_document(text, cfg)

    def test_runs_of_over_a_hundred_thousand_characters(self):
        run = 1 << 16
        text = "a" + " " * (2 * run) + "b" * (3 * run) + "\tc" + "\r\n" * run + "d"
        cfg = ChunkerConfig(2, 1)
        assert count_tokens(text) == 4
        assert chunk_document(text, cfg) == oracle_chunk_document(text, cfg)

    @pytest.mark.parametrize("cfg", [ChunkerConfig(), ChunkerConfig(130_000, 0)], ids=["default", "130k"])
    @pytest.mark.parametrize("kind", LONG_TEXTS)
    def test_memory_beyond_the_chunks_stays_under_2_mb(self, kind, cfg):
        text = LONG_TEXTS[kind]
        tracemalloc.start()
        try:
            chunks = chunk_document(text, cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunks[-1].token_span[1] == 400_000
        # Splitting the whole text at once holds about 25 MB beyond the chunks,
        # and splitting it at whitespace 17.8 MB on the whitespace-free text.
        # A counted repeat that is not possessive keeps state per repetition:
        # 26-32 MB over a 130k-token skip, and 8.4 MB as an atomic group.
        assert peak - retained < 2_000_000

    @pytest.mark.parametrize("kind", LONG_TEXTS)
    def test_count_tokens_memory_stays_under_2_mb(self, kind):
        text = LONG_TEXTS[kind]
        tracemalloc.start()
        try:
            count = count_tokens(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 400_000
        # A list of every token takes about 22 MB, and a list per stretch
        # between whitespace 14.4 MB on the whitespace-free text.  A counted
        # repeat that is not possessive holds about 98 MB over 400k tokens.
        assert peak < 2_000_000
