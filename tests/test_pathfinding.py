import importlib.machinery
import importlib.util
import itertools
import math
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc

import numpy as np
import pytest

from themepath import pathfinding
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


def successors(matrix: TransitionMatrix, backend: str) -> tuple[np.ndarray, np.ndarray]:
    """One kernel's (succ, final) for the matrix, as solve_dp calls it.

    succ starts as -1 everywhere, so cells a kernel does not define compare
    equal only if neither kernel writes them.
    """
    k = matrix.k
    succ = np.full((1 << k, k), -1, dtype=np.int8)
    final = np.full(k, np.nan)
    pathfinding._kernel(backend).fill_successors(np.ascontiguousarray(log_weights(matrix).T), succ, final)
    return succ, final


def reach_masks(matrix: TransitionMatrix, backend: str) -> np.ndarray:
    """One kernel's reach masks for the matrix, from a buffer of all-ones words."""
    reach = np.full(1 << matrix.k, 0xFFFFFFFF, dtype=np.uint32)
    pathfinding._kernel(backend).fill_reach(np.ascontiguousarray(log_weights(matrix).T), reach)
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

    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    def test_no_positive_path_walks_the_first_reachable_suffix(self, request, backend):
        # Only 1 -> 3 -> 2 is positive and node 0 touches no edge: no positive path
        # covers every node, and the walk leaves the identity once the suffix
        # {1, 2, 3} has a positive path that starts at its first node.
        if backend == "compiled":
            request.getfixturevalue("compiled")
        probs = np.zeros((4, 4))
        probs[1, 3] = probs[3, 2] = 1.0
        matrix = TransitionMatrix(probs, 4, frozenset({0, 2}))
        path = solve_dp(matrix, backend=backend)
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

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_dp_table_semantics(self, k):
        """The full-table reference and each kernel's final row mean best paths."""
        for matrix in (random_matrix(k, seed=100 + k), sparse_matrix(k, seed=100 + k)):
            table = oracle_dp_table(log_weights(matrix))
            oracle = table_oracle(matrix)
            finite = np.isfinite(oracle)
            assert np.array_equal(np.isfinite(table), finite)
            assert np.allclose(table[finite], oracle[finite], atol=1e-9)
            start_at = oracle_dp_table(np.ascontiguousarray(log_weights(matrix).T))
            for backend in pathfinding.available_backends():
                final = successors(matrix, backend)[1]
                assert final.tobytes() == start_at[-1].tobytes()

    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    def test_dp_orders_equal_the_full_table_walk(self, request, backend):
        if backend == "compiled":
            request.getfixturevalue("compiled")
        for seed in range(80):
            k = 1 + seed % 10
            for matrix in special_matrices(k, seed):
                old = oracle_solve_dp(matrix)
                new = solve_dp(matrix, backend=backend)
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
                prefixes.add(pathfinding._unreachable_prefix(pathfinding._pathpure, logw))
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


ROOT = pathlib.Path(__file__).resolve().parents[1]


def build_kernel(out_dir: pathlib.Path, env: dict | None = None) -> subprocess.CompletedProcess:
    """Build the C extension with the project's setup.py into out_dir, not in place."""
    return subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out_dir), "--build-temp", str(out_dir / "temp")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def built_modules(out_dir: pathlib.Path) -> list[pathlib.Path]:
    candidates = (out_dir / "themepath" / f"_pathcore{suffix}"
                  for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    return [path for path in candidates if path.exists()]


def needs_compiler() -> None:
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(compiler)[0]) is None:
        pytest.skip(f"no C compiler ({compiler!r}) to build the kernel")


@pytest.fixture(scope="module")
def built_pathcore(tmp_path_factory):
    """The C kernel compiled into a temporary directory and imported from there."""
    needs_compiler()
    out_dir = tmp_path_factory.mktemp("pathcore")
    proc = build_kernel(out_dir)
    assert proc.returncode == 0, proc.stderr
    paths = built_modules(out_dir)
    assert len(paths) == 1, f"extension not built:\n{proc.stderr}"
    spec = importlib.util.spec_from_file_location("themepath._pathcore", paths[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled(monkeypatch, built_pathcore):
    """Make the freshly built kernel the ``compiled`` backend."""
    monkeypatch.setattr(pathfinding, "_pathcore", built_pathcore)
    return built_pathcore


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


class TestBackends:
    def test_pure_backend_always_available(self):
        assert "pure" in pathfinding.available_backends()

    def test_backends_agree_bit_for_bit(self, compiled):
        assert pathfinding.available_backends() == ["compiled", "pure"]
        for seed in range(20):
            k = 2 + seed % 8
            matrix = random_matrix(k, seed=seed)
            a_succ, a_final = successors(matrix, "compiled")
            b_succ, b_final = successors(matrix, "pure")
            assert (a_succ.tobytes(), a_final.tobytes()) == (b_succ.tobytes(), b_final.tobytes())
            a = solve_dp(matrix, backend="compiled")
            b = solve_dp(matrix, backend="pure")
            assert a.order == b.order and a.log_prob == b.log_prob


class TestCompiledKernel:
    @pytest.mark.parametrize("k", range(1, 15))
    def test_table_bytes_equal_pure_kernel(self, compiled, k):
        """The successor table and the final row, byte for byte."""
        for matrix in (random_matrix(k, seed=k), sparse_matrix(k, seed=k)):
            succ, final = successors(matrix, "compiled")
            pure_succ, pure_final = successors(matrix, "pure")
            assert succ.tobytes() == pure_succ.tobytes()
            assert final.tobytes() == pure_final.tobytes()

    def test_sparse_matrices_have_zero_rows_and_zero_edges(self):
        matrix = sparse_matrix(9, seed=9)
        assert {0, 3, 6} <= matrix.zero_rows
        for i in set(range(9)) - matrix.zero_rows:
            assert (matrix.probs[i] == 0).any() and matrix.probs[i].sum() == pytest.approx(1.0)

    def test_solve_dp_matches_brute_force(self, compiled):
        for seed in range(40):
            k = 1 + seed % 8
            matrix = random_matrix(k, seed=seed) if seed % 2 else sparse_matrix(k, seed=seed)
            dp = solve_dp(matrix, backend="compiled")
            brute = solve_brute_force(matrix)
            assert (dp.order, dp.log_prob) == (brute.order, brute.log_prob)

    def test_default_backend_is_compiled_once_built(self, compiled):
        assert pathfinding.default_backend() == "compiled"

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
    def test_wrong_sized_buffers_raise(self, built_pathcore, logw, table):
        succ, final = table
        before = (succ.tobytes(), final.tobytes())
        with pytest.raises(ValueError, match="do not fit|exceeds the kernel's cap"):
            built_pathcore.fill_successors(logw, succ, final)
        assert (succ.tobytes(), final.tobytes()) == before

    def test_read_only_table_is_refused(self, built_pathcore):
        for read_only in (0, 1):
            buffers = (np.zeros((8, 3), np.int8), np.zeros(3))
            buffers[read_only].flags.writeable = False
            with pytest.raises(TypeError):
                built_pathcore.fill_successors(np.zeros((3, 3)), *buffers)
            assert not buffers[0].any() and not buffers[1].any()

    def test_both_kernels_refuse_k_beyond_the_hard_cap(self, built_pathcore):
        assert built_pathcore.MAX_K == pathfinding._pathpure.MAX_K == DP_HARD_CAP == 22
        for fill in (built_pathcore.fill_successors, pathfinding._pathpure.fill_successors):
            succ, final = np.zeros(1, np.int8), np.zeros(23)
            with pytest.raises(ValueError, match=r"^k=23 exceeds the kernel's cap of 22$"):
                fill(np.zeros((23, 23)), succ, final)
            assert not succ.any() and not final.any()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_reach_bytes_equal_pure_kernel(self, compiled, k):
        """The reach masks, byte for byte, and bit i of reach[S] set iff g[S, i] > -inf."""
        matrices = [random_matrix(k, seed=k), sparse_matrix(k, seed=k), *no_path_matrices(k, seed=k)]
        if k > 1:
            matrices.append(hub_matrix(k))
        for matrix in matrices:
            reach = reach_masks(matrix, "compiled")
            assert reach.tobytes() == reach_masks(matrix, "pure").tobytes()
            start_at = oracle_dp_table(np.ascontiguousarray(log_weights(matrix).T))
            bits = (reach[:, None] >> np.arange(k, dtype=np.uint32)) & 1
            assert reach[0] == 0
            assert np.array_equal(bits[1:] == 1, start_at[1:] > -np.inf)

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
    def test_wrong_sized_reach_buffers_raise(self, built_pathcore, logw, reach):
        for fill_reach in (built_pathcore.fill_reach, pathfinding._pathpure.fill_reach):
            with pytest.raises(ValueError, match="do not fit|does not hold|not k x k"):
                fill_reach(logw, reach)
            assert not reach.any()

    def test_both_kernels_refuse_reach_beyond_the_hard_cap(self, built_pathcore):
        for fill_reach in (built_pathcore.fill_reach, pathfinding._pathpure.fill_reach):
            logw, reach = np.zeros((23, 23)), np.zeros(1, np.uint32)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"^k=23 exceeds the kernel's cap of 22$"):
                    fill_reach(logw, reach)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000  # raised before any table was allocated
            assert not reach.any()

    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    def test_hub_solve_fills_only_the_suffix(self, request, monkeypatch, backend):
        """No positive path covers a k = 20 hub; only {19} starts one over its suffix."""
        if backend == "compiled":
            request.getfixturevalue("compiled")
        kernel = pathfinding._kernel(backend)
        fill = kernel.fill_successors
        shapes = []

        def recording(logw, succ, final):
            shapes.append((logw.shape, succ.shape, final.shape))
            fill(logw, succ, final)

        monkeypatch.setattr(kernel, "fill_successors", recording)
        path = solve_dp(hub_matrix(20), backend=backend)
        assert shapes == [((1, 1), (2, 1), (1,))]
        assert (path.order, path.log_prob) == (list(range(20)), -math.inf)

    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    def test_hub_solve_peak_memory_at_k18(self, request, backend):
        """A solve with no positive path stays below the successor table of a full fill."""
        if backend == "compiled":
            request.getfixturevalue("compiled")
        k = 18
        matrix = hub_matrix(k)
        tracemalloc.start()
        try:
            solve_dp(matrix, backend=backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << k) * k

    @pytest.mark.parametrize("backend, bound", [("compiled", 0.6), ("pure", 1.0)])
    def test_solve_peak_memory_at_k18(self, request, backend, bound):
        """A whole solve stays below a fraction of the old 2^k x k float64 table."""
        if backend == "compiled":
            request.getfixturevalue("compiled")
        k = 18
        matrix = random_matrix(k, seed=18)
        tracemalloc.start()
        try:
            solve_dp(matrix, backend=backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * (1 << k) * k * 8

    def test_kernel_builds_without_warnings(self, tmp_path):
        needs_compiler()
        env = {**os.environ, "CFLAGS": "-Wall -Wextra -Werror"}
        proc = build_kernel(tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert len(built_modules(tmp_path)) == 1, proc.stderr

    def test_build_without_compiler_succeeds_with_pure_fallback(self, tmp_path):
        proc = build_kernel(tmp_path, env={**os.environ, "CC": "/bin/false"})
        assert proc.returncode == 0, proc.stderr
        assert built_modules(tmp_path) == []
