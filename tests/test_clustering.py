import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_topic_document, tokens_per_chunk
from oracles import oracle_distinct_count, oracle_kmeans
import themepath
from themepath import clustering, pipeline
from themepath.chunking import ChunkerConfig, chunk_document
from themepath.clustering import (
    _feasible_k,
    _squared_distances,
    _squared_norms,
    choose_k,
    distinct_count,
    kmeans,
    kmeanspp_seed,
    representatives,
)
from themepath.config import RunConfig
from themepath.embeddings import EmbeddingProviderConfig, embed_batch
from themepath.errors import InfeasibleError
from themepath.pathfinding import DP_HARD_CAP


def optimal_partition_inertia(points: np.ndarray, k: int) -> float:
    """Brute-force minimum inertia over every k-partition (oracle)."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        labels = np.array(assignment)
        inertia = 0.0
        for c in range(k):
            members = points[labels == c]
            inertia += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, inertia)
    return best


def broadcast_squared_distances(vectors, centroids, vector_norms=None):
    """The direct difference formula over an n x k x d tensor (oracle); needs no norms."""
    diff = vectors[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def topic_vectors(seed, n=800, d=768, topics=12, spread=0.6):
    """Unit vectors scattered around a few topic directions, like chunk embeddings."""
    rng = np.random.default_rng(seed)
    centers = unit_rows(rng, topics, d)
    rows = centers[rng.integers(topics, size=n)] + spread * unit_rows(rng, n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


LINE_POINTS = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])


class TestSeeding:
    def test_single_centroid_is_a_member(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        centroid = kmeanspp_seed(points, 1, seed=0)[0]
        assert any(np.array_equal(centroid, p) for p in points)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(40, 3))
        a = kmeanspp_seed(points, 5, seed=9)
        b = kmeanspp_seed(points, 5, seed=9)
        assert np.array_equal(a, b)

    def test_k_equal_to_distinct_gives_permutation(self):
        # duplicates carry zero D^2 mass once their value is chosen
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] * 3)
        for seed in range(10):
            centroids = kmeanspp_seed(points, 4, seed=seed)
            found = {tuple(c) for c in centroids}
            assert found == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}

    def test_k_beyond_distinct_is_infeasible(self):
        points = np.array([[1.0], [1.0], [2.0]])
        assert distinct_count(points) == 2
        with pytest.raises(InfeasibleError, match=r"^k=3 exceeds the 2 distinct vectors available$"):
            kmeanspp_seed(points, 3, seed=0)

    def test_repeated_leading_rows_are_still_feasible(self):
        # the first k rows hold one value; the distinct ones come later
        points = np.array([[0.0], [0.0], [0.0], [1.0], [2.0]])
        assert sorted(kmeans(points, 3, seed=0).centroids[:, 0]) == [0.0, 1.0, 2.0]

    @pytest.mark.filterwarnings("error")
    def test_rows_closer_than_the_expansion_rounds_are_still_drawn(self):
        # ||x||^2 - 2 x.c + ||c||^2 rounds the 1e-18 squared distance to 0
        points = np.array([[1.0, 0.0], [1.0, 1e-9]])
        assert _squared_distances(points, points[:1], _squared_norms(points)).tolist() == [[0.0], [0.0]]
        for seed in range(4):
            assert sorted(kmeanspp_seed(points, 2, seed=seed).tolist()) == sorted(points.tolist())
            result = kmeans(points, 2, seed=seed)
            assert result.k == 2 and result.labels.tolist() == [0, 1]

    @pytest.mark.filterwarnings("error")
    def test_rows_whose_squared_distance_underflows_are_refused(self):
        points = np.array([[0.0, 0.0], [1e-200, 0.0]])
        assert distinct_count(points) == 2
        with pytest.raises(InfeasibleError, match="centroid 2 of 2"):
            kmeans(points, 2, seed=0)


class TestDistinctCount:
    @staticmethod
    def record_calls(monkeypatch):
        rows: list[int] = []

        def recording(vectors):
            rows.append(len(vectors))
            return distinct_count(vectors)

        monkeypatch.setattr(clustering, "distinct_count", recording)
        return rows

    @staticmethod
    def rows_with_repeats(seed, n, d):
        """Rows drawn from a few values, signed zeros among them, so rows repeat."""
        rng = np.random.default_rng(seed)
        return rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=(n, d), p=[0.4, 0.4, 0.1, 0.1])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (12, 1), (40, 2), (60, 5)])
    def test_matches_the_oracle_on_repeated_rows(self, seed, shape):
        vectors = self.rows_with_repeats(seed, *shape)
        assert distinct_count(vectors) == oracle_distinct_count(vectors)
        assert distinct_count(vectors[::-1]) == oracle_distinct_count(vectors)

    def test_signed_zeros_are_equal(self):
        vectors = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -1.0]])
        assert distinct_count(vectors) == oracle_distinct_count(vectors) == 3

    def test_rows_that_differ_in_one_bit_are_distinct(self):
        vectors = np.array([[1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)], [1.0, 2.0]])
        assert distinct_count(vectors) == oracle_distinct_count(vectors) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_k_matches_the_oracle_up_to_and_beyond_n(self, seed):
        vectors = self.rows_with_repeats(seed, 9, 2)
        for k in range(1, 13):
            assert _feasible_k(vectors, k) == min(k, oracle_distinct_count(vectors))

    def test_a_mock_run_leaves_numpy_ma_unloaded(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text(make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"]))
        config = tmp_path / "run.cfg"
        config.write_text(f"chunk_size = {tokens_per_chunk()}\noverlap = 0\nk = 3\n")
        code = (
            "import sys\n"
            "from themepath.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)\n"
        )
        args = ["summarize", str(doc), "--provider", "mock", "--config", str(config), "--out-dir", str(tmp_path / "run")]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(themepath.__file__))}
        result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "False True"
        assert os.path.exists(tmp_path / "run" / "artifact.json")

    def test_kmeans_checks_only_a_prefix_when_it_has_k_distinct_rows(self, monkeypatch):
        rows = self.record_calls(monkeypatch)
        kmeans(topic_vectors(0, n=60, d=8), 5, seed=0, n_init=1)
        assert rows == [5]

    def test_k_beyond_the_distinct_rows_counts_all_rows_once_and_is_lowered(self, monkeypatch):
        rows = self.record_calls(monkeypatch)
        result = kmeans(np.array([[1.0], [1.0], [2.0], [2.0]]), 3, seed=0)
        assert rows == [3, 4]
        assert result.k == 2 and result.labels.tolist() == [0, 0, 1, 1]

    def test_k_of_at_least_n_counts_the_rows_once(self, monkeypatch):
        rows = self.record_calls(monkeypatch)
        result = kmeans(np.array([[1.0], [1.0], [2.0], [2.0]]), 4, seed=0)
        assert rows == [4]
        assert result.k == 2 and result.labels.tolist() == [0, 0, 1, 1]

    def test_a_lowered_k_gives_the_partition_of_that_k(self):
        points = np.array([[0.0], [0.0], [0.0], [1.0]])
        lowered, direct = kmeans(points, 3, seed=0), kmeans(points, 2, seed=0)
        assert lowered.k == direct.k == 2
        assert lowered.labels.tobytes() == direct.labels.tobytes()
        assert lowered.centroids.tobytes() == direct.centroids.tobytes()
        assert lowered.inertia == direct.inertia

    @staticmethod
    def run_cluster_sum(document):
        cfg = RunConfig(chunker=ChunkerConfig(chunk_size=tokens_per_chunk(), overlap=0), k=3)
        cfg.embedding.kind = "deterministic-test"
        cfg.llm.kind = "mock-extractive"
        return pipeline.run_pipeline(document, "cluster-sum", cfg)

    def test_cluster_stage_counts_a_k_row_prefix(self, monkeypatch):
        rows = self.record_calls(monkeypatch)
        self.run_cluster_sum(make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"]))
        assert rows == [3]

    def test_repeated_leading_rows_count_all_rows_once_in_the_pipeline(self, monkeypatch):
        rows = self.record_calls(monkeypatch)
        first = make_topic_document(seed=9, topic_order=["delta"], chunks_per_topic=1)
        rest = make_topic_document(seed=8, topic_order=["alpha", "beta", "gamma"])
        result = self.run_cluster_sum(" ".join([first] * 3 + [rest]))
        n = len(result.chunks)
        assert n == 15 and len(set(result.labels)) == 3
        assert rows == [3, n]

    def test_cluster_stage_lowers_k_to_the_distinct_rows(self, monkeypatch):
        rows = self.record_calls(monkeypatch)
        first = make_topic_document(seed=9, topic_order=["delta"], chunks_per_topic=1)
        second = make_topic_document(seed=8, topic_order=["alpha"], chunks_per_topic=1)
        result = self.run_cluster_sum(" ".join([first, first, second, first]))
        assert rows == [3, 4]
        assert result.labels == [0, 0, 1, 0]
        assert [s["cluster_id"] for s in result.cluster_summaries] == [0, 1]


class TestSquaredDistances:
    def test_matches_difference_formula_on_unit_vectors(self):
        rng = np.random.default_rng(5)
        vectors = unit_rows(rng, 300, 768)
        centroids = unit_rows(rng, 12, 768)
        expected = broadcast_squared_distances(vectors, centroids)
        d2 = _squared_distances(vectors, centroids, _squared_norms(vectors))
        assert np.abs(d2 - expected).max() <= 1e-12

    def test_never_negative_even_at_a_centroid(self):
        rng = np.random.default_rng(6)
        vectors = unit_rows(rng, 200, 768)
        centroids = vectors[[3, 50, 199]].copy()
        d2 = _squared_distances(vectors, centroids, _squared_norms(vectors))
        assert d2.min() >= 0.0
        assert np.abs(d2[[3, 50, 199], [0, 1, 2]]).max() <= 1e-12

    def test_working_memory_is_n_by_k_not_n_by_k_by_d(self):
        rng = np.random.default_rng(8)
        vectors = unit_rows(rng, 2000, 768)
        centroids = unit_rows(rng, 22, 768)
        tracemalloc.start()
        try:
            _squared_distances(vectors, centroids, _squared_norms(vectors))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the n x k x d difference tensor alone is 258 MiB

    def test_kmeans_holds_one_n_by_d_scratch_buffer(self):
        rng = np.random.default_rng(8)
        vectors = unit_rows(rng, 2000, 768)
        tracemalloc.start()
        try:
            kmeans(vectors, 22, seed=0, n_init=2, max_iters=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scratch buffer is 11.7 MiB; one more n x d temporary would pass 23 MiB
        assert peak < 1.5 * vectors.nbytes

    def test_inertia_and_seeding_keep_the_bits_of_the_plain_expressions(self):
        vectors = topic_vectors(10, n=400)
        result = kmeans(vectors, 12, seed=3)
        assert result.inertia == float(((vectors - result.centroids[result.labels]) ** 2).sum())

        rng = np.random.default_rng(4)
        n = vectors.shape[0]
        expected = [vectors[int(rng.integers(n))]]
        d2 = ((vectors - expected[0]) ** 2).sum(axis=1)
        for _ in range(1, 12):
            expected.append(vectors[int(rng.choice(n, p=d2 / d2.sum()))])
            d2 = np.minimum(d2, ((vectors - expected[-1]) ** 2).sum(axis=1))
        assert kmeanspp_seed(vectors, 12, seed=4).tobytes() == np.array(expected).tobytes()

    def test_kmeans_matches_lloyd_on_the_difference_formula(self, monkeypatch):
        vectors = topic_vectors(9)
        result = kmeans(vectors, 12, seed=0)
        monkeypatch.setattr(clustering, "_squared_distances", broadcast_squared_distances)
        oracle = kmeans(vectors, 12, seed=0)
        assert np.array_equal(result.labels, oracle.labels)
        assert np.array_equal(result.centroids, oracle.centroids)
        assert result.inertia_history == oracle.inertia_history


def assert_matches_oracle(vectors, k, seed, **kwargs):
    """Labels, centroids and inertia keep the oracle's bits; the history its length.

    The history's last entry, total minus between sum of squares, agrees
    with the plain inertia to within 1e-12 of the total sum of squares.
    """
    result = kmeans(vectors, k, seed, **kwargs)
    oracle = oracle_kmeans(vectors, k, seed, **kwargs)
    assert result.labels.tobytes() == oracle.labels.tobytes()
    assert result.centroids.tobytes() == oracle.centroids.tobytes()
    assert result.inertia == oracle.inertia
    assert len(result.inertia_history) == len(oracle.inertia_history)
    total_ss = float(((vectors - vectors.mean(axis=0)) ** 2).sum())
    assert abs(result.inertia_history[-1] - result.inertia) <= 1e-12 * max(1.0, total_ss)


class TestKmeansOracle:
    """``kmeans`` against the masked-mean k-means that recomputes inertia every step."""

    @pytest.mark.parametrize("k", [2, 12, 22])
    def test_topic_vectors_at_embedding_width(self, k):
        for seed in range(20):
            assert_matches_oracle(topic_vectors(seed, n=150), k, seed)

    def test_deterministic_embedder_vectors_of_a_topic_document(self):
        document = make_topic_document(
            seed=5, topic_order=["alpha", "beta", "gamma", "delta"], chunks_per_topic=8
        )
        chunks = chunk_document(document, ChunkerConfig(chunk_size=tokens_per_chunk(), overlap=0))
        embedder = EmbeddingProviderConfig(kind="deterministic-test")
        vectors = embed_batch([c.text for c in chunks], embedder)
        assert vectors.shape == (32, 64)
        for seed in range(5):
            assert_matches_oracle(vectors, 20, seed)

    def test_duplicate_rows_with_k_equal_to_the_distinct_count(self):
        grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] * 3)
        rng = np.random.default_rng(12)
        wide = np.repeat(topic_vectors(12, n=10), 3, axis=0)[rng.permutation(30)]
        for seed in range(10):
            assert_matches_oracle(grid, 4, seed)
            assert_matches_oracle(wide, 10, seed)

    def test_k_beyond_the_distinct_count_is_lowered(self):
        grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] * 3)
        for seed in range(5):
            assert_matches_oracle(grid, 7, seed)
            assert_matches_oracle(grid[:6], 5, seed, init_centroids=grid[:4])

    def test_empty_cluster_reseed(self):
        vectors = topic_vectors(4, n=60)
        init = vectors[:5].copy()
        init[4] = 10.0  # farther from every row than the other four: cluster 4 starts empty
        first = _squared_distances(vectors, init, _squared_norms(vectors)).argmin(axis=1)
        assert 4 not in first
        assert_matches_oracle(vectors, 5, 0, init_centroids=init)

    def test_init_centroids(self):
        vectors = topic_vectors(6, n=200)
        for seed in range(5):
            init = kmeanspp_seed(vectors, 8, seed=seed + 100)
            assert_matches_oracle(vectors, 8, seed, init_centroids=init)
        # Far from the origin the history's total-minus-between still meets
        # the plain inertia, because both sums are taken about the grand mean.
        shifted = vectors + 1000.0
        assert_matches_oracle(shifted, 8, 0, init_centroids=kmeanspp_seed(shifted, 8, seed=3))


def first_appearances(labels) -> list[int]:
    return list(dict.fromkeys(np.asarray(labels).tolist()))


class TestKmeans:
    def test_clusters_are_numbered_by_first_appearance(self):
        for seed in range(5):
            for k in (2, 12, 22):
                result = kmeans(topic_vectors(seed, n=150), k, seed)
                assert first_appearances(result.labels) == list(range(k))
        grid = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]] * 3)
        wide = np.repeat(topic_vectors(12, n=10), 3, axis=0)[np.random.default_rng(12).permutation(30)]
        for seed in range(10):
            for points, k, used in ((grid, 4, 4), (grid, 6, 4), (wide, 10, 10), (wide, 12, 10)):
                result = kmeans(points, k, seed)
                assert result.k == used
                assert first_appearances(result.labels) == list(range(used))
                # each centroid is its cluster's mean, so it moved with its label
                assert result.centroids.tobytes() == np.array(
                    [points[result.labels == c].mean(axis=0) for c in range(used)]
                ).tobytes()

    def test_two_identical_pairs_zero_inertia(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        result = kmeans(points, 2, seed=0)
        assert result.inertia == 0.0
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]
        assert result.labels[0] != result.labels[2]

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(11, 4))
        result = kmeans(points, 1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))
        assert set(result.labels.tolist()) == {0}

    def test_line_fixture_matches_bruteforce_split(self):
        oracle = optimal_partition_inertia(LINE_POINTS, 2)
        result = kmeans(LINE_POINTS, 2, seed=0)
        assert result.inertia == pytest.approx(oracle, rel=1e-12)
        assert set(result.labels[:3].tolist()) != set(result.labels[3:].tolist())
        assert len(set(result.labels[:3].tolist())) == 1
        assert len(set(result.labels[3:].tolist())) == 1

    def test_inertia_monotone_and_no_empty_clusters(self):
        rng = np.random.default_rng(3)
        for seed in range(25):
            points = rng.normal(size=(30, 4))
            result = kmeans(points, 5, seed=seed)
            history = result.inertia_history
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
            assert np.bincount(result.labels, minlength=5).min() >= 1

    def test_permuted_input_same_partition_from_same_init(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(24, 3))
        init = kmeanspp_seed(points, 4, seed=11)
        base = kmeans(points, 4, seed=11, init_centroids=init)
        perm = rng.permutation(24)
        permuted = kmeans(points[perm], 4, seed=11, init_centroids=init)

        def partition(labels, index_map):
            return {
                frozenset(int(index_map[i]) for i in np.flatnonzero(labels == c))
                for c in range(4)
            }

        assert partition(base.labels, np.arange(24)) == partition(permuted.labels, perm)

    def test_seed_recorded(self):
        result = kmeans(LINE_POINTS, 2, seed=77)
        assert result.seed == 77 and result.k == 2

    def test_init_centroids_must_match_the_lowered_k(self):
        points = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ValueError, match=r"^init_centroids of shape \(3, 1\) are not 2 x 1$"):
            kmeans(points, 3, seed=0, init_centroids=np.zeros((3, 1)))

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match=r"^max_iters must be >= 1$"):
            kmeans(LINE_POINTS, 2, seed=0, max_iters=0)


class TestRepresentatives:
    def test_undersized_cluster_returns_all(self):
        points = np.array([[0.0], [0.1], [0.2]])
        result = kmeans(points, 1, seed=0)
        reps = representatives(result, points, top_k=5)
        assert sorted(reps[0]) == [0, 1, 2]

    def test_member_equal_to_centroid_comes_first(self):
        from themepath.clustering import ClusterAssignment

        points = np.array([[1.0, 1.0], [4.0, 4.0], [2.0, 2.0]])
        assignment = ClusterAssignment(
            labels=np.array([0, 0, 0]),
            centroids=np.array([[2.0, 2.0]]),
            inertia=0.0,
            k=1,
            seed=0,
        )
        assert representatives(assignment, points, top_k=3)[0][0] == 2

    def test_top_k_smallest_distances_with_tie_to_lower_index(self):
        from themepath.clustering import ClusterAssignment

        points = np.array([[6.0], [1.0], [3.0], [1.0], [2.0], [5.0]])
        assignment = ClusterAssignment(
            labels=np.zeros(6, dtype=np.int64),
            centroids=np.array([[0.0]]),
            inertia=0.0,
            k=1,
            seed=0,
        )
        reps = representatives(assignment, points, top_k=5)
        assert reps[0] == [1, 3, 4, 2, 5]  # ties at distance 1 keep index order


class TestChooseK:
    def test_sqrt_rule(self):
        assert choose_k(800) == 20

    def test_lower_clamp_capped_by_chunks(self):
        assert choose_k(3) == 2

    def test_explicit_override(self):
        assert choose_k(500, k_override=10) == 10

    def test_never_exceeds_chunks(self):
        assert choose_k(1) == 1
        assert choose_k(4, k_override=9) == 4

    def test_upper_clamp(self):
        assert choose_k(100000) == DP_HARD_CAP

    def test_cap_is_the_exact_solver_cap(self):
        # sqrt(n/2) reaches 22 at n = 968 and 23 at n = 1058: only the first is kept.
        assert choose_k(2 * 22**2) == choose_k(2 * 23**2) == DP_HARD_CAP == 22
