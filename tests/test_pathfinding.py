import itertools
import math
import tracemalloc

import numpy as np
import pytest

from themepath import _pathpure, pathfinding
from themepath.errors import InfeasibleError
from themepath.markov import TransitionMatrix, build_transition_matrix
from themepath.pathfinding import DP_HARD_CAP, path_probability, solve_dp, solve_greedy

from oracles import oracle_dp_table, oracle_solve_dp, solve_brute_force

# Three-cluster fixture: best order is 0 -> 2 -> 1 with probability 0.7 * 0.8.
FIXTURE = TransitionMatrix(
    probs=np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.2, 0.8, 0.0]]),
    k=3,
    zero_rows=frozenset(),
)


def random_matrix(k: int, seed: int) -> TransitionMatrix:
    rng = np.random.default_rng(seed)
    probs = rng.random((k, k))
    probs /= probs.sum(axis=1, keepdims=True)
    return TransitionMatrix(probs=probs, k=k, zero_rows=frozenset())


def log_weights(matrix: TransitionMatrix) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(matrix.probs)


def successors(matrix: TransitionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The dense kernel's (succ, final) for the matrix, as solve_dp calls it.

    succ starts as -1 everywhere, so the cells the kernel leaves alone stay -1.
    """
    k = matrix.k
    succ = np.full((1 << k, k), -1, dtype=np.int8)
    final = np.full(k, np.nan)
    _pathpure.fill_successors(np.ascontiguousarray(log_weights(matrix).T), succ, final)
    return succ, final


def reach_masks(matrix: TransitionMatrix) -> np.ndarray:
    """The dense kernel's reach masks for the matrix, from a buffer of all-ones words."""
    reach = np.full(1 << matrix.k, 0xFFFFFFFF, dtype=np.uint32)
    _pathpure.fill_reach(np.ascontiguousarray(log_weights(matrix).T), reach)
    return reach


def hub_matrix(k: int) -> TransitionMatrix:
    """Node 0 linked both ways to every other node, and nothing else."""
    probs = np.zeros((k, k))
    probs[0, 1:] = 1.0 / (k - 1)
    probs[1:, 0] = 1.0
    return TransitionMatrix(probs=probs, k=k, zero_rows=frozenset())


def table_oracle(matrix: TransitionMatrix) -> np.ndarray:
    """Exhaustive dp-table reference: best path over subset S ending at i."""
    k = matrix.k
    logw = log_weights(matrix)
    table = np.full((1 << k, k), -np.inf)
    for mask in range(1, 1 << k):
        nodes = [i for i in range(k) if mask >> i & 1]
        for perm in itertools.permutations(nodes):
            total = 0.0
            for a, b in zip(perm, perm[1:]):
                total += logw[a, b]
            end = perm[-1]
            if total > table[mask, end]:
                table[mask, end] = total
    return table


class TestSolveDp:
    def test_single_node(self):
        path = solve_dp(TransitionMatrix(np.array([[1.0]]), 1, frozenset()))
        assert path.order == [0] and path.log_prob == 0.0 and path.method == "dp"

    def test_fixture_optimal_order(self):
        path = solve_dp(FIXTURE)
        assert path.order == [0, 2, 1]
        assert math.exp(path.log_prob) == pytest.approx(0.56, abs=1e-12)

    def test_zero_probability_matrix_yields_identity_order(self):
        matrix = TransitionMatrix(np.zeros((4, 4)), 4, frozenset(range(4)))
        path = solve_dp(matrix)
        assert path.order == [0, 1, 2, 3]
        assert path.log_prob == -math.inf

    def test_no_positive_path_walks_the_first_reachable_suffix(self, solver_path):
        # Only 1 -> 3 -> 2 is positive and node 0 touches no edge: no positive path
        # covers every node, and the walk leaves the identity once the suffix
        # {1, 2, 3} has a positive path that starts at its first node.
        probs = np.zeros((4, 4))
        probs[1, 3] = probs[3, 2] = 1.0
        matrix = TransitionMatrix(probs, 4, frozenset({0, 2}))
        path = solve_dp(matrix)
        assert (path.order, path.log_prob, path.method) == ([0, 1, 3, 2], -math.inf, "dp")
        assert (path.order, path.log_prob) == (oracle_solve_dp(matrix).order, -math.inf)

    def test_cap_exceeded_points_to_greedy(self):
        matrix = random_matrix(DP_HARD_CAP + 1, seed=0)
        with pytest.raises(InfeasibleError, match="greedy"):
            solve_dp(matrix)
        path = solve_greedy(matrix)
        assert sorted(path.order) == list(range(DP_HARD_CAP + 1))

    def test_k_beyond_hard_cap_is_refused(self):
        matrix = random_matrix(23, seed=0)
        for backend in pathfinding.available_backends():
            tracemalloc.start()
            try:
                with pytest.raises(
                    InfeasibleError,
                    match=r"^k=23 exceeds the DP cap 22; use solve_greedy or fewer clusters$",
                ):
                    solve_dp(matrix, backend=backend)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000, backend  # raised before any table was allocated

    def test_zero_row_from_terminal_cluster_is_handled(self):
        matrix = build_transition_matrix([0, 0, 1, 2], 3)
        path = solve_dp(matrix)
        assert path.order == [0, 1, 2]
        assert math.exp(path.log_prob) == pytest.approx(0.5, abs=1e-12)

    def test_all_positive_matrix_gives_finite_log_prob(self):
        for seed in range(10):
            path = solve_dp(random_matrix(7, seed=seed))
            assert path.log_prob > -math.inf


class TestBruteForce:
    def test_tie_prefers_lexicographically_smaller_order(self):
        matrix = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, frozenset())
        assert solve_brute_force(matrix).order == [0, 1]
        assert solve_dp(matrix).order == [0, 1]

    def test_single_node(self):
        assert solve_brute_force(TransitionMatrix(np.array([[1.0]]), 1, frozenset())).order == [0]

    def test_fixture(self):
        path = solve_brute_force(FIXTURE)
        assert path.order == [0, 2, 1]
        assert math.exp(path.log_prob) == pytest.approx(0.56, abs=1e-12)

    def test_refused_beyond_cap(self):
        with pytest.raises(InfeasibleError):
            solve_brute_force(random_matrix(11, seed=0))


class TestGreedy:
    def test_single_node(self):
        assert solve_greedy(TransitionMatrix(np.array([[1.0]]), 1, frozenset())).order == [0]

    def test_never_beats_dp(self):
        for seed in range(30):
            matrix = random_matrix(6, seed=seed)
            assert solve_greedy(matrix).log_prob <= solve_dp(matrix).log_prob + 1e-12

    def test_fixture_bounded_by_optimum(self):
        assert math.exp(solve_greedy(FIXTURE).log_prob) <= 0.56 + 1e-12

    def test_successor_tie_takes_lowest_id(self):
        # from node 0 both successors tie at 0.5; every full path has a zero
        # edge, so the walk that honored the tie rule wins the final lex
        # tie-break only if it chose node 1 before node 2
        probs = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        path = solve_greedy(TransitionMatrix(probs, 3, frozenset({1, 2})))
        assert path.order == [0, 1, 2]


class TestPathProbability:
    def test_single_node_is_log_one(self):
        assert path_probability(TransitionMatrix(np.array([[1.0]]), 1, frozenset()), [0]) == 0.0

    def test_zero_edge_is_neg_inf(self):
        assert path_probability(FIXTURE, [2, 0, 1]) > -math.inf
        matrix = build_transition_matrix([0, 1], 2)
        assert path_probability(matrix, [1, 0]) == -math.inf

    def test_hand_value(self):
        assert path_probability(FIXTURE, [0, 2, 1]) == pytest.approx(math.log(0.56), abs=1e-9)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            path_probability(FIXTURE, [0, 1, 1])


class TestOracleEquivalence:
    def test_dp_matches_brute_force(self):
        for seed in range(60):
            k = 2 + seed % 7
            matrix = random_matrix(k, seed=seed)
            dp = solve_dp(matrix)
            brute = solve_brute_force(matrix)
            assert dp.order == brute.order
            assert dp.log_prob == pytest.approx(brute.log_prob, abs=1e-9)

    def test_solve_dp_matches_brute_force_exactly(self, solver_path):
        """Orders and log-probabilities equal the permutation scan's, on random and sparse rows."""
        for seed in range(40):
            k = 1 + seed % 8
            matrix = random_matrix(k, seed=seed) if seed % 2 else sparse_matrix(k, seed=seed)
            dp = solve_dp(matrix)
            brute = solve_brute_force(matrix)
            assert (dp.order, dp.log_prob) == (brute.order, brute.log_prob)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_dp_table_semantics(self, k):
        """The full-table reference and the dense kernel's final row mean best paths."""
        for matrix in (random_matrix(k, seed=100 + k), sparse_matrix(k, seed=100 + k)):
            table = oracle_dp_table(log_weights(matrix))
            oracle = table_oracle(matrix)
            finite = np.isfinite(oracle)
            assert np.array_equal(np.isfinite(table), finite)
            assert np.allclose(table[finite], oracle[finite], atol=1e-9)
            start_at = oracle_dp_table(np.ascontiguousarray(log_weights(matrix).T))
            final = successors(matrix)[1]
            assert final.tobytes() == start_at[-1].tobytes()

    def test_dp_orders_equal_the_full_table_walk(self, solver_path):
        for seed in range(80):
            k = 1 + seed % 10
            for matrix in special_matrices(k, seed):
                old = oracle_solve_dp(matrix)
                new = solve_dp(matrix)
                assert (new.order, new.log_prob) == (old.order, old.log_prob)

    def test_no_path_matrices_vary_the_suffix_and_leave_the_identity(self):
        """The no-path inputs above reach many suffix starts, and often a non-identity order."""
        prefixes = set()
        non_identity = 0
        for seed in range(80):
            k = 1 + seed % 10
            for matrix in no_path_matrices(k, seed):
                path = oracle_solve_dp(matrix)
                assert path.log_prob == -math.inf
                non_identity += path.order != list(range(k))
                logw = np.ascontiguousarray(log_weights(matrix).T)
                prefixes.add(pathfinding._unreachable_prefix(logw))
        assert prefixes == set(range(1, 10))
        assert non_identity >= 20

    def test_row_rescaling_then_renormalizing_keeps_argmax(self):
        for seed in range(20):
            matrix = random_matrix(6, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            scales = rng.uniform(0.25, 4.0, size=6)
            scaled = matrix.probs * scales[:, None]
            scaled /= scaled.sum(axis=1, keepdims=True)
            rescaled = TransitionMatrix(scaled, 6, frozenset())
            assert solve_dp(rescaled).order == solve_dp(matrix).order


def sparse_matrix(k: int, seed: int) -> TransitionMatrix:
    """Random rows with about 30 % of the edges present; every third row is all zero."""
    rng = np.random.default_rng(seed)
    probs = rng.random((k, k)) * (rng.random((k, k)) < 0.3)
    probs[::3] = 0.0
    sums = probs.sum(axis=1, keepdims=True)
    probs = np.divide(probs, sums, out=np.zeros_like(probs), where=sums > 0)
    zero_rows = frozenset(int(i) for i in np.flatnonzero(sums[:, 0] == 0))
    return TransitionMatrix(probs=probs, k=k, zero_rows=zero_rows)


def tied_matrix(weights: np.ndarray) -> TransitionMatrix:
    """Rows of small integer weights, normalized: equal weights give tied probabilities."""
    k = weights.shape[0]
    sums = weights.sum(axis=1, keepdims=True)
    probs = np.divide(weights, sums, out=np.zeros_like(weights), where=sums > 0)
    return TransitionMatrix(probs, k, frozenset(int(i) for i in np.flatnonzero(sums[:, 0] == 0)))


def no_path_matrices(k: int, seed: int) -> list[TransitionMatrix]:
    """Sparse tied matrices that no positive-probability path covers: two nodes
    without a positive out-edge, or two without a positive in-edge (none for k = 1)."""
    if k < 2:
        return []
    rng = np.random.default_rng(seed)
    out = []
    for transpose in (False, True):
        weights = rng.integers(1, 3, size=(k, k)) * (rng.random((k, k)) < 0.5)
        weights[rng.choice(k, size=2, replace=False)] = 0
        out.append(tied_matrix((weights.T if transpose else weights).astype(np.float64)))
    return out


def special_matrices(k: int, seed: int) -> list[TransitionMatrix]:
    """Random, sparse, all-zero, tied (a few equal probabilities), uniform, and
    sparse tied rows with no positive path."""
    rng = np.random.default_rng(seed)
    return [
        random_matrix(k, seed),
        sparse_matrix(k, seed),
        TransitionMatrix(np.zeros((k, k)), k, frozenset(range(k))),
        tied_matrix(rng.integers(0, 3, size=(k, k)).astype(np.float64)),
        TransitionMatrix(np.full((k, k), 1.0 / k), k, frozenset()),
        *no_path_matrices(k, seed),
    ]


def planted_linear(k: int, seed: int) -> TransitionMatrix:
    """k themes in order, 40 chunks each, with 3 % of the chunks relabelled at random."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(k), 40)
    noisy = rng.random(len(labels)) < 0.03
    labels[noisy] = rng.integers(0, k, size=int(noisy.sum()))
    return build_transition_matrix(labels.tolist(), k)


def refuse(*args):
    raise AssertionError("the dense pass ran")


@pytest.fixture(params=["frontier", "dense"])
def solver_path(request, monkeypatch):
    """solve_dp forced down one path: the frontier without a budget, or the dense
    pass, which a budget of 0 leaves to any matrix with k >= 2."""
    if request.param == "frontier":
        monkeypatch.setattr(_pathpure, "FRONTIER_SHARE", math.inf)
        monkeypatch.setattr(pathfinding, "_dense_order", refuse)
    else:
        monkeypatch.setattr(_pathpure, "FRONTIER_SHARE", 0.0)
    return request.param


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBackends:
    def test_pure_backend_always_available(self):
        assert pathfinding.available_backends() == ["pure"]

    def test_unknown_backend_is_refused(self):
        assert solve_dp(FIXTURE, backend="pure").order == [0, 2, 1]
        with pytest.raises(ValueError, match="unknown dp backend 'compiled'"):
            solve_dp(FIXTURE, backend="compiled")


class TestDenseKernel:
    def test_sparse_matrices_have_zero_rows_and_zero_edges(self):
        matrix = sparse_matrix(9, seed=9)
        assert {0, 3, 6} <= matrix.zero_rows
        for i in set(range(9)) - matrix.zero_rows:
            assert (matrix.probs[i] == 0).any() and matrix.probs[i].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_reach_masks_mark_the_positive_states(self, k):
        """Bit i of reach[S] is set iff g[S, i] > -inf, and reach[0] is 0."""
        matrices = [random_matrix(k, seed=k), sparse_matrix(k, seed=k), *no_path_matrices(k, seed=k)]
        if k > 1:
            matrices.append(hub_matrix(k))
        for matrix in matrices:
            reach = reach_masks(matrix)
            start_at = oracle_dp_table(np.ascontiguousarray(log_weights(matrix).T))
            bits = (reach[:, None] >> np.arange(k, dtype=np.uint32)) & 1
            assert reach[0] == 0
            assert np.array_equal(bits[1:] == 1, start_at[1:] > -np.inf)

    @pytest.mark.parametrize("k", range(1, 15))
    def test_successor_table_is_the_first_argmax_of_the_full_table(self, k):
        """succ[S, i] is the lowest j attaining g[S, i] in the full start-at table, or the
        lowest j of S\\{i} when every candidate is -inf; other cells stay as they were."""
        for matrix in (random_matrix(k, seed=k), sparse_matrix(k, seed=k)):
            weights = np.ascontiguousarray(log_weights(matrix).T)
            start_at = oracle_dp_table(weights)
            succ, final = successors(matrix)
            expected = np.full((1 << k, k), -1, dtype=np.int8)
            masks = np.arange(1 << k, dtype=np.int64)
            for i in range(k):
                with_i = masks[((masks >> i) & 1 == 1) & (np.bitwise_count(masks) >= 2)]
                prevs = with_i ^ (1 << i)
                candidates = start_at[prevs] + weights[:, i]
                arg = candidates.argmax(axis=1)
                best = candidates[np.arange(len(arg)), arg]
                assert best.tobytes() == start_at[with_i, i].tobytes()
                lowest = np.bitwise_count((prevs & -prevs) - 1)
                expected[with_i, i] = np.where(best == -np.inf, lowest, arg)
            assert succ.tobytes() == expected.tobytes()
            assert final.tobytes() == start_at[-1].tobytes()

    @pytest.mark.parametrize("read_only", ["succ", "final"])
    def test_read_only_table_is_refused(self, read_only):
        buffers = {"succ": np.zeros((8, 3), np.int8), "final": np.zeros(3)}
        buffers[read_only].flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            _pathpure.fill_successors(np.zeros((3, 3)), buffers["succ"], buffers["final"])
        assert not buffers["succ"].any() and not buffers["final"].any()

    def test_read_only_reach_is_refused(self):
        reach = np.zeros(8, np.uint32)
        reach.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            _pathpure.fill_reach(np.zeros((3, 3)), reach)
        assert not reach.any()

    @pytest.mark.parametrize(
        "logw, reach",
        [
            (np.zeros(15), np.zeros(8, np.uint32)),  # weights not k x k
            (np.zeros((3, 3)), np.zeros(4, np.uint32)),  # too few masks
            (np.zeros((3, 3)), np.zeros(16, np.uint32)),  # too many masks
            (np.zeros((3, 3)), np.zeros(8, np.uint16)),  # masks too narrow
            (np.zeros(0), np.zeros(0, np.uint32)),  # k = 0
        ],
    )
    def test_wrong_sized_reach_buffers_raise(self, logw, reach):
        with pytest.raises(ValueError, match="does not hold|not k x k"):
            _pathpure.fill_reach(logw, reach)
        assert not reach.any()

    @pytest.mark.parametrize(
        "logw, table",
        [
            # table: the (succ, final) pair of output buffers
            (np.zeros(15), (np.zeros((8, 3), np.int8), np.zeros(3))),  # weights not k x k
            (np.zeros((3, 3)), (np.zeros((8, 2), np.int8), np.zeros(3))),  # succ too narrow
            (np.zeros((3, 3)), (np.zeros((4, 3), np.int8), np.zeros(3))),  # succ too short
            (np.zeros((3, 3)), (np.zeros((16, 3), np.int8), np.zeros(3))),  # succ too long
            (np.zeros((26, 26)), (np.zeros(1, np.int8), np.zeros(26))),  # k beyond the cap
            (np.zeros(0), (np.zeros(0, np.int8), np.zeros(0))),  # k = 0
            (np.zeros((3, 3)), (np.zeros((8, 3), np.int8), np.zeros(2))),  # final too short
            (np.zeros((3, 3)), (np.zeros((8, 3), np.int8), np.zeros(3, np.float32))),  # final too narrow
        ],
    )
    def test_wrong_sized_buffers_raise(self, logw, table):
        succ, final = table
        before = (succ.tobytes(), final.tobytes())
        with pytest.raises(ValueError, match="do not fit|exceeds the kernel's cap|not k x k"):
            _pathpure.fill_successors(logw, succ, final)
        assert (succ.tobytes(), final.tobytes()) == before

    def test_kernels_refuse_k_beyond_the_hard_cap(self):
        assert _pathpure.MAX_K == DP_HARD_CAP == 22
        logw, succ, final, reach = np.zeros((23, 23)), np.zeros(1, np.int8), np.zeros(23), np.zeros(1, np.uint32)
        for fill, args in [
            (_pathpure.fill_successors, (logw, succ, final)),
            (_pathpure.fill_reach, (logw, reach)),
            (_pathpure.frontier_order, (logw,)),
        ]:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"^k=23 exceeds the kernel's cap of 22$"):
                    fill(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000  # raised before any table was allocated
        assert not succ.any() and not final.any() and not reach.any()

    def test_solve_peak_memory_at_k18(self):
        """A dense solve stays below the old 2^k x k float64 table."""
        k = 18
        assert traced_peak(solve_dp, random_matrix(k, seed=18)) < (1 << k) * k * 8


class TestFrontier:
    def test_hub_solve_fills_only_the_suffix(self, monkeypatch, solver_path):
        """No positive path covers a k = 20 hub; only {19} starts one over its suffix.
        The dense pass fills that one-node suffix; the frontier fills nothing."""
        fill = _pathpure.fill_successors
        shapes = []

        def recording(logw, succ, final):
            shapes.append((logw.shape, succ.shape, final.shape))
            fill(logw, succ, final)

        monkeypatch.setattr(_pathpure, "fill_successors", recording)
        path = solve_dp(hub_matrix(20))
        assert shapes == ([((1, 1), (2, 1), (1,))] if solver_path == "dense" else [])
        assert (path.order, path.log_prob) == (list(range(20)), -math.inf)

    def test_hub_solve_peak_memory_at_k18(self, solver_path):
        """A solve with no positive path stays below the successor table of a full fill."""
        k = 18
        assert traced_peak(solve_dp, hub_matrix(k)) < (1 << k) * k

    @pytest.mark.parametrize("matrix", [hub_matrix(20), planted_linear(20, seed=2)], ids=["hub", "planted"])
    def test_sparse_k20_solves_skip_the_dense_pass(self, monkeypatch, matrix):
        """At the default budget a sparse k = 20 solve runs the frontier alone,
        within 1 MB: less than the dense pass's 4 MB of reach masks alone.  The
        hub has no positive path; the planted book has one, over 13,677 states."""
        monkeypatch.setattr(_pathpure, "fill_reach", refuse)
        monkeypatch.setattr(_pathpure, "fill_successors", refuse)
        assert traced_peak(solve_dp, matrix) < 1 << 20

    @pytest.mark.parametrize(
        "matrix",
        [
            tied_matrix((np.random.default_rng(15).random((15, 15)) < 0.3).astype(np.float64)),
            planted_linear(16, seed=1),
            tied_matrix(np.random.default_rng(13).integers(0, 2, size=(13, 13)).astype(np.float64)),
            *no_path_matrices(14, seed=14),
        ],
        ids=["sparse", "planted", "tied", "no-path-out", "no-path-in"],
    )
    def test_frontier_and_dense_pass_agree_beyond_the_oracles(self, monkeypatch, matrix):
        """Past the oracles' reach the two paths give the same order, and so the same bits."""
        monkeypatch.setattr(_pathpure, "FRONTIER_SHARE", math.inf)
        logw = np.ascontiguousarray(log_weights(matrix).T)
        order = _pathpure.frontier_order(logw)
        assert order == pathfinding._dense_order(logw)
        assert sorted(order) == list(range(matrix.k))

    def test_all_positive_k16_gives_up_within_its_first_layers(self, monkeypatch):
        grow = _pathpure._grow
        grown = []

        def counting(*args):
            grown.append(1)
            return grow(*args)

        monkeypatch.setattr(_pathpure, "_grow", counting)
        matrix = random_matrix(16, seed=16)
        assert _pathpure.frontier_order(np.ascontiguousarray(log_weights(matrix).T)) is None
        assert len(grown) <= 3  # layers 2, 3 and 4 of 16

    def test_planted_linear_k18_order_equals_the_dense_pass(self, monkeypatch):
        matrix = planted_linear(18, seed=0)
        logw = np.ascontiguousarray(log_weights(matrix).T)
        order = _pathpure.frontier_order(logw)
        assert order is not None
        assert order == pathfinding._dense_order(logw)
        monkeypatch.setattr(pathfinding, "_dense_order", refuse)
        assert solve_dp(matrix).order == order
