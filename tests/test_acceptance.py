"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test is tagged with the ``acceptance`` marker; a hook in conftest
prints one "[acceptance] <label>: PASS/FAIL" line per criterion.
"""

import csv
import io
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import TOPIC_VOCABS, make_topic_document, tokens_per_chunk
from oracles import solve_brute_force
from themepath.artifact import to_canonical_json
from themepath.chunking import ChunkerConfig, chunk_document
from themepath.cli import main as cli_main
from themepath.clustering import kmeans
from themepath.config import RunConfig
from themepath.embeddings import EmbeddingProviderConfig
from themepath.evaluation import coherence, evaluate_corpus, rouge_n
from themepath.markov import TransitionMatrix, build_transition_matrix, validate_row_stochastic
from themepath.pathfinding import solve_dp
from themepath.pipeline import run_pipeline
from themepath.summarize import LlmProviderConfig


def random_matrix(k: int, seed: int) -> TransitionMatrix:
    rng = np.random.default_rng(seed)
    probs = rng.random((k, k))
    probs /= probs.sum(axis=1, keepdims=True)
    return TransitionMatrix(probs=probs, k=k, zero_rows=frozenset())


@pytest.mark.acceptance("C1 dp/brute oracle equivalence, 200 seeds, < 10 s")
def test_c1_oracle_equivalence_200_instances():
    started = time.perf_counter()
    for seed in range(200):
        k = 2 + seed % 7  # k in [2, 8]
        matrix = random_matrix(k, seed=seed)
        dp = solve_dp(matrix)
        brute = solve_brute_force(matrix)
        assert abs(dp.log_prob - brute.log_prob) <= 1e-9
        assert dp.order == brute.order
    assert time.perf_counter() - started < 10.0


@pytest.mark.acceptance("C2 three-cluster fixture: order [0,2,1], p = 0.56")
def test_c2_fixture_path_and_probability():
    matrix = TransitionMatrix(
        probs=np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.2, 0.8, 0.0]]),
        k=3,
        zero_rows=frozenset(),
    )
    dp = solve_dp(matrix)
    brute = solve_brute_force(matrix)
    assert dp.order == [0, 2, 1]
    assert abs(math.exp(dp.log_prob) - 0.56) <= 1e-12
    assert brute.order == dp.order
    assert abs(brute.log_prob - dp.log_prob) <= 1e-12


@pytest.mark.acceptance("C3 transition estimate exact + 1000-case fuzz")
def test_c3_transition_matrix_exactness_and_fuzz():
    matrix = build_transition_matrix([0, 0, 1, 2, 1], 3)
    assert np.array_equal(
        matrix.probs, np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    )
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        length = int(rng.integers(1, 80))
        labels = rng.integers(0, k, size=length).tolist()
        assert validate_row_stochastic(build_transition_matrix(labels, k))


@pytest.mark.acceptance("C4 bench: k=20 median < 10 s, k=16 median < 1 s")
def test_c4_dp_solve_time_bounds():
    runner = CliRunner()
    result = runner.invoke(cli_main, ["bench", "--max-k", "20", "--trials", "3"])
    assert result.exit_code == 0, result.output
    rows = {int(r["k"]): float(r["milliseconds"]) for r in csv.DictReader(io.StringIO(result.output))}
    assert rows[16] < 1000.0
    assert rows[20] < 10000.0


@pytest.mark.acceptance("C5 chunker contract: 980 tokens -> [0,500) and [480,980)")
@given(
    n_tokens=st.integers(min_value=1, max_value=3000),
    chunk_size=st.integers(min_value=2, max_value=700),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_c5_chunker_contract(n_tokens, chunk_size, data):
    fixed = chunk_document(" ".join(f"w{i}" for i in range(980)), ChunkerConfig(500, 20))
    assert [c.token_span for c in fixed] == [(0, 500), (480, 980)]

    overlap = data.draw(st.integers(min_value=0, max_value=chunk_size - 1))
    chunks = chunk_document(" ".join(f"w{i}" for i in range(n_tokens)), ChunkerConfig(chunk_size, overlap))
    stride = chunk_size - overlap
    covered: set[int] = set()
    for i, c in enumerate(chunks):
        start, end = c.token_span
        assert start == i * stride
        if i < len(chunks) - 1:
            assert c.token_count == chunk_size
        covered.update(range(start, end))
    assert covered == set(range(n_tokens))
    for a, b in zip(chunks, chunks[1:]):
        assert a.token_span[1] - b.token_span[0] == overlap


def _best_two_partition_inertia(points: np.ndarray) -> float:
    n = len(points)
    best = np.inf
    for mask in range(1, (1 << n) - 1):
        left = points[[i for i in range(n) if mask >> i & 1]]
        right = points[[i for i in range(n) if not mask >> i & 1]]
        inertia = float(((left - left.mean(0)) ** 2).sum() + ((right - right.mean(0)) ** 2).sum())
        best = min(best, inertia)
    return best


@pytest.mark.acceptance("C6 k-means: monotone inertia, line split, 1.05x optimum on >= 90%")
def test_c6_kmeans_properties():
    outer = np.random.default_rng(7)
    for seed in range(100):
        points = outer.normal(size=(24, 4))
        result = kmeans(points, 4, seed=seed)
        history = result.inertia_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    line = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    result = kmeans(line, 2, seed=0)
    groups = {frozenset(np.flatnonzero(result.labels == c).tolist()) for c in range(2)}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    hits = 0
    gen = np.random.default_rng(11)
    for seed in range(100):
        points = gen.normal(size=(8, 2))
        result = kmeans(points, 2, seed=seed)
        if result.inertia <= 1.05 * _best_two_partition_inertia(points) + 1e-12:
            hits += 1
    assert hits >= 90


def _pipeline_config(mode: str) -> RunConfig:
    return RunConfig(
        chunker=ChunkerConfig(chunk_size=tokens_per_chunk(), overlap=0),
        embedding=EmbeddingProviderConfig(kind="deterministic-test"),
        llm=LlmProviderConfig(kind="mock-extractive"),
        k=3,
        seed=13,
        mode=mode,
    )


@pytest.mark.acceptance("C7 byte-identical artifact; summary order matches mode rule")
def test_c7_end_to_end_determinism_and_order_contracts():
    document = make_topic_document(seed=13, topic_order=["beta", "gamma", "alpha"])

    first = run_pipeline(document, "markov-cluster", _pipeline_config("markov-cluster"))
    second = run_pipeline(document, "markov-cluster", _pipeline_config("markov-cluster"))
    assert to_canonical_json(first.to_dict()) == to_canonical_json(second.to_dict())

    # summary order provably equals the solved path order: re-solve from the
    # artifact's own transition matrix and compare
    matrix = TransitionMatrix(
        probs=np.asarray(first.transition_matrix["probs"]),
        k=first.transition_matrix["k"],
        zero_rows=frozenset(first.transition_matrix["zero_rows"]),
    )
    assert first.path["order"] == solve_dp(matrix).order
    assert [s["cluster_id"] for s in first.cluster_summaries] == first.path["order"]

    cluster_sum = run_pipeline(document, "cluster-sum", _pipeline_config("cluster-sum"))
    assert cluster_sum.path is None
    # cluster ids are numbered by first appearance, and cluster-sum goes in id order
    assert list(dict.fromkeys(cluster_sum.labels)) == [0, 1, 2]
    assert [s["cluster_id"] for s in cluster_sum.cluster_summaries] == [0, 1, 2]


rouge_words = st.lists(
    st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"]), min_size=0, max_size=25
).map(" ".join)


@pytest.mark.acceptance("C8 ROUGE: identity 1.0, disjoint 0.0, bigram 0.5, bounded")
@given(candidate=rouge_words, reference=rouge_words)
@settings(max_examples=200, deadline=None)
def test_c8_rouge_unit_suite(candidate, reference):
    identical = rouge_n("w x y z", "w x y z", 1)
    assert identical.f1 == 1.0
    assert rouge_n("aa bb cc", "dd ee ff", 1).f1 == 0.0
    bigram = rouge_n("a b c", "a b d", 2)
    assert bigram.f1 == 0.5

    for n in (1, 2):
        score = rouge_n(candidate, reference, n)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0
        assert 0.0 <= score.f1 <= 1.0


@pytest.mark.acceptance("C9 coherence: repeated text 1.0, short text undefined")
def test_c9_coherence_bounds_and_undefined_flags():
    cfg = EmbeddingProviderConfig(kind="deterministic-test")
    repeated = " ".join(["The very same sentence appears."] * 6)
    score = coherence(repeated, cfg)
    assert abs(score.first_order - 1.0) <= 1e-6
    assert abs(score.second_order - 1.0) <= 1e-6

    single = coherence("Only one sentence.", cfg)
    assert single.first_order is None and single.second_order is None
    assert single.sentence_count == 1

    two = coherence("First sentence. Second sentence.", cfg)
    assert two.first_order is not None and two.second_order is None


@pytest.mark.acceptance("C10 planted topic order recovered on >= 9/10 seeds")
def test_c10_planted_order_recovery_with_mock_providers():
    # The published corpus scores (e.g. ROUGE-1 34.13 for the markov mode on
    # BookSum with a hosted LLM) are NOT reproduced here by design: they need
    # the remote models and the full corpus. The testable stand-in is a
    # synthetic corpus with planted topic structure: within-order transitions
    # dominate, so the solved path must recover the generating order.
    topics = ["alpha", "beta", "gamma", "delta"]
    chunks_per_topic = 4
    recovered = 0
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        planted = [topics[i] for i in rng.permutation(len(topics))]
        document = make_topic_document(
            seed=900 + seed, topic_order=planted, chunks_per_topic=chunks_per_topic
        )
        cfg = RunConfig(
            chunker=ChunkerConfig(chunk_size=tokens_per_chunk(), overlap=0),
            embedding=EmbeddingProviderConfig(kind="deterministic-test"),
            llm=LlmProviderConfig(kind="mock-extractive"),
            k=len(topics),
            seed=seed,
            mode="markov-cluster",
        )
        result = run_pipeline(document, "markov-cluster", cfg)
        labels = result.labels
        true_topic = [planted[i // chunks_per_topic] for i in range(len(labels))]

        cluster_topic: dict[int, str] = {}
        clean = True
        for cluster in set(labels):
            member_topics = {true_topic[i] for i in range(len(labels)) if labels[i] == cluster}
            if len(member_topics) != 1:
                clean = False
                break
            cluster_topic[cluster] = member_topics.pop()
        if not clean or len(set(cluster_topic.values())) != len(topics):
            continue
        if [cluster_topic[c] for c in result.path["order"]] == planted:
            recovered += 1
    assert recovered >= 9

    # the evaluation report reserves merge slots for externally computed
    # semantic scores instead of claiming them
    report = evaluate_corpus([("a b", "a b")], EmbeddingProviderConfig())
    assert report.aggregates["default"]["bert_f1"]["mean"] is None
    assert report.aggregates["default"]["bleurt"]["mean"] is None
