import numpy as np
import pytest
from hypothesis import given, strategies as st

from themepath.markov import (
    TransitionMatrix,
    build_transition_matrix,
    collapse_runs,
    validate_row_stochastic,
)


def count_oracle(labels, k):
    """Independent pair counting for cross-checks."""
    counts = np.zeros((k, k))
    for a, b in zip(labels, labels[1:]):
        counts[a][b] += 1
    return counts


class TestBuild:
    def test_single_label_zero_matrix(self):
        m = build_transition_matrix([0], 1)
        assert np.array_equal(m.probs, [[0.0]])
        assert m.zero_rows == frozenset({0})

    def test_hand_counted_example(self):
        m = build_transition_matrix([0, 0, 1, 2, 1], 3)
        assert np.array_equal(m.probs, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert m.zero_rows == frozenset()

    def test_alternating_sequence(self):
        m = build_transition_matrix([0, 1, 0, 1], 2)
        assert np.array_equal(m.probs, [[0.0, 1.0], [1.0, 0.0]])

    def test_terminal_state_gets_zero_row(self):
        m = build_transition_matrix([0, 0, 1, 2], 3)
        assert m.zero_rows == frozenset({2})
        assert np.array_equal(m.probs[2], [0.0, 0.0, 0.0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_transition_matrix([0, 3], 3)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            build_transition_matrix([], 2)

    def test_collapse_runs_preprocessing(self):
        assert collapse_runs([0, 0, 1, 1, 0]) == [0, 1, 0]
        m = build_transition_matrix([0, 0, 0, 1, 1, 2], 3, collapse=True)
        assert np.array_equal(m.probs, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        assert np.diagonal(m.probs).sum() == 0.0


label_sequences = st.integers(min_value=2, max_value=8).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=60),
    )
)


class TestProperties:
    @given(label_sequences)
    def test_counts_recoverable_and_total_is_pairs(self, case):
        k, labels = case
        m = build_transition_matrix(labels, k)
        oracle = count_oracle(labels, k)
        totals = oracle.sum(axis=1)
        recovered = m.probs * totals[:, None]
        assert np.allclose(recovered, oracle, atol=1e-9)
        assert oracle.sum() == len(labels) - 1

    @given(label_sequences)
    def test_reversing_labels_transposes_counts(self, case):
        k, labels = case
        assert np.array_equal(count_oracle(labels, k), count_oracle(labels[::-1], k).T)

    @given(label_sequences)
    def test_build_output_always_validates(self, case):
        k, labels = case
        assert validate_row_stochastic(build_transition_matrix(labels, k))


class TestValidate:
    def test_identity_single_state(self):
        assert validate_row_stochastic(TransitionMatrix(np.array([[1.0]]), 1, frozenset()))

    def test_short_row_not_flagged_fails(self):
        bad = TransitionMatrix(np.array([[0.4, 0.5], [0.5, 0.5]]), 2, frozenset())
        assert not validate_row_stochastic(bad)

    def test_zero_row_must_be_flagged(self):
        probs = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert validate_row_stochastic(TransitionMatrix(probs, 2, frozenset({0})))
        assert not validate_row_stochastic(TransitionMatrix(probs, 2, frozenset()))

    def test_non_finite_entry_fails(self):
        # A NaN passes the range and row-sum comparisons, so only the finite check rejects it.
        bad = TransitionMatrix(np.array([[0.5, np.nan], [0.5, 0.5]]), 2, frozenset())
        assert not validate_row_stochastic(bad)

    def test_entry_above_one_fails(self):
        bad = TransitionMatrix(np.array([[1.5, 0.0], [0.5, 0.5]]), 2, frozenset())
        assert not validate_row_stochastic(bad)

    def test_flagged_zero_row_with_a_nonzero_sum_fails(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert not validate_row_stochastic(TransitionMatrix(probs, 2, frozenset({0})))

    def test_negative_or_above_one_fails(self):
        assert not validate_row_stochastic(
            TransitionMatrix(np.array([[-0.5, 1.5], [0.5, 0.5]]), 2, frozenset())
        )
