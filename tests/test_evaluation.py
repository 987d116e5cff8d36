import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from themepath.chunking import split_tokens
from themepath.embeddings import EmbeddingProviderConfig, cosine_similarity, embed_batch
from themepath.evaluation import (
    _metric_tokens,
    coherence,
    evaluate_corpus,
    first_sentence,
    render_table,
    rouge_n,
    split_sentences,
)

EMBED_CFG = EmbeddingProviderConfig()

words = st.lists(
    st.sampled_from(["red", "blue", "fox", "dog", "jumps", "runs", "fast", "slow"]),
    min_size=0,
    max_size=30,
).map(" ".join)

# Terminator runs, a terminator inside a word, and several kinds of whitespace.
sentence_text = st.lists(
    st.sampled_from(["Ab", "c", ".", "!?", "..", " ", "\n", "\t", "\u3000", "x.y"]), max_size=20
).map("".join)


class TestRougeN:
    def test_identity_scores_one(self):
        for n in (1, 2):
            score = rouge_n("the cat sat down", "the cat sat down", n)
            assert score.precision == score.recall == score.f1 == 1.0
            assert score.defined

    def test_disjoint_scores_zero(self):
        score = rouge_n("aa bb cc", "dd ee ff", 1)
        assert score.precision == score.recall == score.f1 == 0.0

    def test_hand_counted_bigram_case(self):
        score = rouge_n("a b c", "a b d", 2)
        assert score.precision == 0.5
        assert score.recall == 0.5
        assert score.f1 == 0.5

    def test_clipped_counting(self):
        # candidate repeats "a" three times but the reference holds only one
        score = rouge_n("a a a", "a b", 1)
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)

    def test_case_and_punctuation_insensitive(self):
        assert rouge_n("Hello, world!", "hello world", 1).f1 == 1.0

    def test_empty_reference_flagged_undefined(self):
        score = rouge_n("something", "", 1)
        assert not score.defined

    def test_reference_shorter_than_n_flagged(self):
        assert not rouge_n("a b", "a", 2).defined

    def test_empty_candidate_scores_zero_but_defined(self):
        score = rouge_n("", "a b", 1)
        assert score.defined and score.f1 == 0.0

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            rouge_n("a", "a", 3)

    @given(words, words)
    def test_scores_bounded(self, candidate, reference):
        for n in (1, 2):
            score = rouge_n(candidate, reference, n)
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= 1.0

    @given(words.filter(lambda t: t), words.filter(lambda t: t))
    def test_f1_symmetric_under_swap(self, a, b):
        fwd = rouge_n(a, b, 1)
        rev = rouge_n(b, a, 1)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision
        assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)

    @given(words.filter(lambda t: t))
    def test_self_f1_is_one(self, text):
        assert rouge_n(text, text, 1).f1 == 1.0


class TestMetricTokens:
    @given(st.text(max_size=200))
    @example("İstanbul_ΣΊΣΥΦΟΣ, STRASSE straße! a_b 3.5 € 你好吗")
    def test_word_tokens_of_the_package_tokenizer(self, text):
        words = [t for t in split_tokens(text.lower()) if re.fullmatch(r"[^\W_]+", t)]
        assert _metric_tokens(text) == words


class TestSplitSentences:
    def test_basic_split(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_empty(self):
        assert split_sentences("") == []

    def test_no_terminator(self):
        assert split_sentences("One sentence") == ["One sentence"]

    def test_mixed_terminators(self):
        assert split_sentences("Really?! Yes. Wow") == ["Really?!", "Yes.", "Wow"]

    def test_terminator_inside_token_does_not_split(self):
        assert split_sentences("See example.com now. Done.") == ["See example.com now.", "Done."]

    @given(st.text(max_size=80) | sentence_text)
    @example("")
    @example(" \n ")
    @example("  ... Next one. Last")
    @example("No end at all")
    def test_first_sentence_is_the_first_piece(self, text):
        assert first_sentence(text) == (split_sentences(text) or [""])[0]


class TestCoherence:
    def test_repeated_sentence_scores_one(self):
        text = "The same sentence here. " * 5
        score = coherence(text.strip(), EMBED_CFG)
        assert score.first_order == pytest.approx(1.0, abs=1e-6)
        assert score.second_order == pytest.approx(1.0, abs=1e-6)

    def test_single_sentence_undefined(self):
        score = coherence("Just one sentence.", EMBED_CFG)
        assert score.first_order is None and score.second_order is None
        assert score.sentence_count == 1

    def test_two_sentences_second_order_undefined(self):
        score = coherence("First one. Second one.", EMBED_CFG)
        assert score.first_order is not None
        assert score.second_order is None

    def test_three_sentences_match_hand_computed_means(self):
        sentences = ["alpha words here.", "beta words there.", "alpha words again."]
        vectors = embed_batch(sentences, EMBED_CFG)
        expected_first = (
            cosine_similarity(vectors[0], vectors[1])
            + cosine_similarity(vectors[1], vectors[2])
        ) / 2
        expected_second = cosine_similarity(vectors[0], vectors[2])
        score = coherence(" ".join(sentences), EMBED_CFG)
        assert score.first_order == pytest.approx(expected_first, abs=1e-12)
        assert score.second_order == pytest.approx(expected_second, abs=1e-12)

    def test_values_in_range(self):
        text = "Red fox runs. Blue dog sleeps. Green cat jumps. Cold rain falls."
        score = coherence(text, EMBED_CFG)
        assert -1.0 <= score.first_order <= 1.0
        assert -1.0 <= score.second_order <= 1.0


class TestEvaluateCorpus:
    def test_identical_pair_means_one(self):
        text = "The fox jumped over the dog. The dog slept on."
        report = evaluate_corpus([(text, text)], EMBED_CFG)
        agg = report.aggregates["default"]
        assert agg["rouge1_f1"]["mean"] == 1.0
        assert agg["rouge2_f1"]["mean"] == 1.0

    def test_means_are_arithmetic_averages(self):
        pairs = [("a b c", "a b c"), ("a b c", "x y z")]
        report = evaluate_corpus(pairs, EMBED_CFG)
        r1 = [d["rouge1"]["f1"] for d in report.per_document]
        assert report.aggregates["default"]["rouge1_f1"]["mean"] == pytest.approx(
            sum(r1) / len(r1)
        )

    def test_modes_bucketed_separately(self):
        pairs = [("a b", "a b"), ("x y", "a b")]
        report = evaluate_corpus(pairs, EMBED_CFG, modes=["good", "bad"])
        assert report.aggregates["good"]["rouge1_f1"]["mean"] == 1.0
        assert report.aggregates["bad"]["rouge1_f1"]["mean"] == 0.0

    def test_failures_excluded_and_counted(self):
        pairs = [("a b", "a b"), ("a b", "")]
        report = evaluate_corpus(pairs, EMBED_CFG)
        assert report.failure_counts["rouge1_f1"] == 1
        assert report.aggregates["default"]["rouge1_f1"]["count"] == 1
        assert report.aggregates["default"]["rouge1_f1"]["mean"] == 1.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            evaluate_corpus([], EMBED_CFG)

    def test_report_reserves_semantic_columns(self):
        report = evaluate_corpus([("a b", "a b")], EMBED_CFG)
        agg = report.aggregates["default"]
        assert agg["bert_f1"] == {"mean": None, "count": 0}
        assert agg["bleurt"] == {"mean": None, "count": 0}

    def test_render_table_layout(self):
        text = "One sentence here. Another sentence there. A third one closes."
        report = evaluate_corpus([(text, text)], EMBED_CFG, modes=["markov-cluster"])
        table = render_table(report)
        lines = table.strip().splitlines()
        assert lines[0].split() == ["Approach", "R-1", "R-2", "1st-O", "2nd-O", "BF1", "BLRT"]
        assert lines[2].startswith("markov-cluster")
        assert "100.00" in lines[2]

    def test_render_table_bytes_with_undefined_cells(self):
        # "llm-full" has only an empty reference, so both its ROUGE means are
        # undefined; no "markov-cluster" candidate has three sentences, so
        # its second-order mean is undefined.  Rows sort by mode, columns
        # pad to the widest cell, and the last column keeps its padding.
        pairs = [
            ("The fox runs. The fox runs.", "the fox runs"),
            ("A b c", "x y z"),
            ("Red fox. Red fox. Red fox.", ""),
        ]
        modes = ["markov-cluster", "markov-cluster", "llm-full"]
        report = evaluate_corpus(pairs, EMBED_CFG, modes)
        assert render_table(report) == (
            "Approach        R-1    R-2    1st-O  2nd-O  BF1  BLRT\n"
            "--------------  -----  -----  -----  -----  ---  ----\n"
            "llm-full        -      -      1.000  1.000  -    -   \n"
            "markov-cluster  33.33  28.57  1.000  -      -    -   \n"
        )
        assert report.failure_counts == {
            "rouge1_f1": 1,
            "rouge2_f1": 1,
            "coherence_first": 1,
            "coherence_second": 2,
        }
