"""The package's k-means++ stream against numpy's ``default_rng``."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_topic_document, tokens_per_chunk
import themepath
from themepath._rng import Generator
from themepath.cli import random_transition_matrix

P4 = np.array([0.1, 0.0, 0.3, 0.6])

# integers(834), random(), choice(4, P4), integers(2**31 + 1), integers(7),
# random(), as numpy 2.4's default_rng drew them.
RECORDED = {
    0: (709, 0.2697867137638703, 0, 161576974, 0, 0.8132702392002724),
    1: (394, 0.9504636963259353, 2, 1767258089, 6, 0.31183145201048545),
    2: (698, 0.2984911434141233, 3, 969095166, 0, 0.600100525965654),
    3: (676, 0.2368105065960997, 3, 183930185, 6, 0.09412864224039919),
}


def recorded_draws(rng, choice):
    return (
        int(rng.integers(834)),
        rng.random(),
        int(choice(rng, 4, P4)),
        int(rng.integers(2**31 + 1)),
        int(rng.integers(7)),
        rng.random(),
    )


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_the_stream_is_pinned_for_seeds_0_to_3(seed):
    assert recorded_draws(Generator(seed), lambda g, n, p: g.choice(n, p)) == RECORDED[seed]


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_the_recorded_draws_are_numpys(seed):
    rng = np.random.default_rng(seed)
    assert recorded_draws(rng, lambda g, n, p: g.choice(n, p=p)) == RECORDED[seed]


_bounds = st.one_of(st.integers(1, 2**32 - 1), st.integers(2**31, 2**32 - 1), st.integers(1, 40))
_weights = st.lists(st.integers(0, 1000), min_size=1, max_size=40).filter(any)
_draws = st.lists(
    st.one_of(
        st.just(("random", None)),
        st.tuples(st.just("integers"), _bounds),
        st.tuples(st.just("choice"), _weights),
    ),
    max_size=60,
)


@given(seed=st.integers(0, 2**128 - 1), draws=_draws)
def test_interleaved_draws_equal_numpys(seed, draws):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for kind, arg in draws:
        if kind == "random":
            assert ours.random() == theirs.random()
        elif kind == "integers":
            assert ours.integers(arg) == int(theirs.integers(arg))
        else:
            p = np.array(arg, dtype=np.float64)
            p /= p.sum()
            assert ours.choice(len(p), p) == int(theirs.choice(len(p), p=p))


@pytest.mark.parametrize("seed", [2**32 - 1, 2**32, 2**64 + 5, 10**30, 2**128 - 1, 2**160 + 3])
def test_seeds_of_many_words_equal_numpys(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert ours.integers(2**32 - 5) == int(theirs.integers(2**32 - 5))
        assert ours.random() == theirs.random()


def test_the_rejection_loop_and_the_kept_half_word_equal_numpys():
    # At n just above 2^31 nearly half of the 32-bit draws are rejected.
    ours, theirs = Generator(5), np.random.default_rng(5)
    n = 2**31 + 1
    for _ in range(2000):
        assert ours.integers(n) == int(theirs.integers(n))
    assert ours.random() == theirs.random()


def test_a_one_value_range_draws_nothing():
    ours, theirs = Generator(2), np.random.default_rng(2)
    assert ours.integers(1) == int(theirs.integers(1)) == 0
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("n", [0, -3, 2**32, 2**40])
def test_integers_refuses_n_outside_1_to_2_to_the_32(n):
    with pytest.raises(ValueError, match=r"n must be in \[1, 2\*\*32\)"):
        Generator(0).integers(n)


def raised(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_a_negative_seed_raises_numpys_error():
    assert raised(lambda: Generator(-1)) == raised(lambda: np.random.default_rng(-1))


@pytest.mark.parametrize(
    "p",
    [[0.5, float("nan"), 0.5], [0.5, -0.25, 0.75], [0.5, 0.25, 0.2], [0.5, 0.5, 1e-6]],
    ids=["nan", "negative", "sum-low", "sum-high"],
)
def test_bad_probabilities_raise_numpys_error(p):
    p = np.array(p)
    ours, theirs = Generator(0), np.random.default_rng(0)
    assert raised(lambda: ours.choice(3, p)) == raised(lambda: theirs.choice(3, p=p))
    # a refused draw consumes nothing
    assert ours.random() == theirs.random()


def test_probabilities_of_the_wrong_size_are_refused():
    with pytest.raises(ValueError, match="a and p must have same size"):
        Generator(0).choice(2, P4)


@pytest.mark.parametrize("k", range(2, 23))
def test_bench_matrices_are_the_bytes_numpy_draws(k):
    for seed in (1000 * k, 1000 * k + 4):
        probs = np.random.default_rng(seed).random((k, k))
        probs /= probs.sum(axis=1, keepdims=True)
        assert random_transition_matrix(k, seed).probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("command", ["summarize", "bench"])
def test_a_run_leaves_numpy_random_unloaded(tmp_path, command):
    if command == "summarize":
        doc = tmp_path / "doc.txt"
        doc.write_text(make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"]))
        config = tmp_path / "run.cfg"
        config.write_text(f"chunk_size = {tokens_per_chunk()}\noverlap = 0\nk = 3\n")
        args = ["summarize", str(doc), "--provider", "mock", "--config", str(config), "--out-dir", str(tmp_path / "run")]
    else:
        args = ["bench", "--max-k", "4", "--trials", "1"]
    code = (
        "import sys\n"
        "from themepath.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print('numpy.random' in sys.modules, 'themepath.clustering' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(themepath.__file__))}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False True"
