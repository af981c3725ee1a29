import contextlib
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqgrad import problems
from dqgrad.harness import run_nq
from dqgrad.hyperparams import optimal_hyperparams
from dqgrad.problems import (
    DegenerateInstanceError,
    LeastSquares,
    LeastSquaresStack,
    MatrixMarketError,
    MultiWorkerProblem,
    load_matrix_market,
    make_gaussian_ls,
    make_interpolation_problem,
    make_worst_case_gd,
)
from dqgrad.rng import make_rng


def test_gaussian_condition_number_exact():
    ls, obj = make_gaussian_ls(32, 16, 5, 7)
    s = np.linalg.svd(ls.A, compute_uv=False)
    assert (s[0] / s[-1]) ** 2 == pytest.approx(5.0, rel=1e-9)
    assert obj.L == pytest.approx(1.0, rel=1e-9)
    assert obj.kappa == pytest.approx(5.0, rel=1e-9)


def test_gaussian_deterministic():
    ls1, obj1 = make_gaussian_ls(20, 10, 3, 99)
    ls2, obj2 = make_gaussian_ls(20, 10, 3, 99)
    assert np.array_equal(ls1.A, ls2.A)
    assert np.array_equal(ls1.y, ls2.y)
    assert np.array_equal(obj1.x0, obj2.x0)


def test_gaussian_shape_validation():
    with pytest.raises(ValueError):
        make_gaussian_ls(4, 8, 2, 0)


def test_unrealizable_condition_number_rejected():
    # a 1x1 matrix has one singular value; only kappa = 1 is realizable
    with pytest.raises(ValueError, match="single distinct singular value"):
        make_gaussian_ls(1, 1, 5, 0)


def test_scalar_problem_has_zero_rate():
    _, obj = make_gaussian_ls(1, 1, 1, 0)
    assert obj.kappa == pytest.approx(1.0)
    assert optimal_hyperparams(obj.L, obj.mu, "gd").sigma == pytest.approx(0.0)


def test_gradient_matches_central_differences():
    ls, obj = make_gaussian_ls(24, 8, 6, 13)
    gen = make_rng(1)
    h = 1e-6
    for _ in range(10):
        x = gen.standard_normal(8)
        g = obj.grad(x)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (ls.value(x + e) - ls.value(x - e)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-8)


def test_gradient_lipschitz_and_strong_convexity_bracket():
    _, obj = make_gaussian_ls(40, 16, 9, 17)
    gen = make_rng(2)
    for _ in range(1000):
        v = gen.standard_normal(16)
        w = gen.standard_normal(16)
        dg = np.linalg.norm(obj.grad(v) - obj.grad(w))
        dx = np.linalg.norm(v - w)
        assert obj.mu * dx <= dg * (1 + 1e-9)
        assert dg <= obj.L * dx * (1 + 1e-9)


@pytest.mark.parametrize("kappa", [2.0, 4.0, 10.0])
@pytest.mark.parametrize("n", [2, 8])
def test_worst_case_gd_contracts_exactly(kappa, n):
    gen = make_rng(5)
    L, mu, D = 1.0, 1.0 / kappa, 2.0
    hp = optimal_hyperparams(L, mu, "gd")
    obj = make_worst_case_gd(gen.standard_normal(n), L, mu, D, hp.eta)
    assert np.linalg.norm(obj.x0 - obj.x_star) == pytest.approx(D, rel=1e-12)
    x = np.array(obj.x0)
    for _ in range(200):
        x_new = x - hp.eta * obj.grad(x)
        d0, d1 = np.linalg.norm(x - obj.x_star), np.linalg.norm(x_new - obj.x_star)
        if d0 < 1e-3 * D:  # below this the ratio is float noise at 1e-12
            break
        assert d1 / d0 == pytest.approx(hp.sigma, abs=1e-12)
        x = x_new


def test_worst_case_one_step_convergence_at_kappa_one():
    obj = make_worst_case_gd(np.array([1.0, 2.0]), 1.0, 1.0, 2.0, 1.0)
    x1 = obj.x0 - 1.0 * obj.grad(obj.x0)
    assert np.linalg.norm(x1 - obj.x_star) <= 1e-12


def test_worst_case_suboptimal_stepsize():
    # eta = 1/L at kappa=4: the slow factor is |1 - mu/L| = 0.75
    L, mu = 4.0, 1.0
    obj = make_worst_case_gd(np.array([3.0, -1.0, 0.5]), L, mu, 1.5, 1.0 / L)
    x = np.array(obj.x0)
    for _ in range(10):
        x_new = x - (1.0 / L) * obj.grad(x)
        ratio = np.linalg.norm(x_new - obj.x_star) / np.linalg.norm(x - obj.x_star)
        assert ratio == pytest.approx(0.75, abs=1e-12)
        x = x_new


def test_worst_case_degenerate_distance():
    with pytest.raises(DegenerateInstanceError):
        make_worst_case_gd(np.ones(2), 1.0, 0.5, 0.0, 1.0)


def test_interpolation_single_worker_reduces():
    prob = make_interpolation_problem(1, 6, 12, [4.0], 3)
    assert prob.K == 1
    assert prob.L == pytest.approx(prob.locals_[0].L)


def test_interpolation_shared_optimizer():
    prob = make_interpolation_problem(2, 8, 16, [4.0, 2.0], 5)
    for obj in prob.locals_:
        assert np.linalg.norm(obj.grad(prob.x_star)) <= 1e-12


def test_interpolation_average_constants():
    prob = make_interpolation_problem(3, 8, 20, [2.0, 5.0, 9.0], 8)
    assert prob.L == pytest.approx(np.mean([o.L for o in prob.locals_]))
    # declared L upper-bounds the true smoothness of the average objective
    H = sum(o.grad.__self__.A.T @ o.grad.__self__.A for o in prob.locals_) / prob.K
    evals = np.linalg.eigvalsh(H)
    assert evals[-1] <= prob.L * (1 + 1e-9)
    assert evals[0] >= prob.mu * (1 - 1e-9)


@settings(max_examples=80, deadline=None)
@given(K=st.integers(2, 8), n=st.integers(1, 128), extra=st.integers(0, 64),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_oracle_is_each_rows_gradient_bitwise(K, n, extra, seed):
    # a different point per row, and each row against its own fresh problem
    gen = make_rng(seed)
    m = n + extra
    stack = LeastSquaresStack(gen.standard_normal((K, m, n)),
                              gen.standard_normal((K, m)))
    X = gen.standard_normal((K, n))
    G = stack.grad(X)
    assert G.shape == (K, n)
    for k in range(K):
        ls = LeastSquares(stack.A[k].copy(), stack.y[k].copy())
        assert G[k].tobytes() == ls.grad(X[k]).tobytes()


def test_interpolation_locals_are_slices_of_the_stack():
    prob = make_interpolation_problem(3, 8, 20, [2.0, 5.0, 9.0], 8)
    assert prob.stack.A.shape == (3, 20, 8) and prob.stack.y.shape == (3, 20)
    X = np.stack([prob.x0, prob.x_star, prob.x0 + 1.0])
    G = prob.stack.grad(X)
    for k, (obj, x) in enumerate(zip(prob.locals_, X)):
        ls = obj.grad.__self__
        assert ls.A.base is prob.stack.A and ls.y.base is prob.stack.y
        assert G[k].tobytes() == obj.grad(x).tobytes()


def test_a_stack_must_hold_the_local_problems():
    prob = make_interpolation_problem(2, 4, 8, [2.0, 3.0], 1)
    other = make_interpolation_problem(2, 4, 8, [2.0, 3.0], 2)
    three = make_interpolation_problem(3, 4, 8, [2.0, 3.0, 4.0], 1)
    for stack in (other.stack, three.stack):
        with pytest.raises(ValueError, match="stack"):
            MultiWorkerProblem(prob.locals_, prob.x_star, prob.x0, stack)


def test_local_objectives_without_a_stack_run_as_with_it():
    # general objectives: the naive workers call each local oracle on its
    # row, and the run is the stacked one bit for bit
    prob = make_interpolation_problem(3, 6, 12, [2.0, 5.0, 3.0], 4)
    bare = MultiWorkerProblem(prob.locals_, prob.x_star, prob.x0)
    (stacked, _), (rowwise, _) = (run_nq(p, [4, 6, 4], t_max=300)
                                  for p in (prob, bare))
    assert stacked.terminal_T == rowwise.terminal_T
    assert (np.asarray(stacked.distances).tobytes()
            == np.asarray(rowwise.distances).tobytes())


# --- objective(): SVD and solve, overlapped on one BLAS thread ---------------

ASH331_STAND_IN = os.path.join(os.path.dirname(__file__), "data",
                               "ash331_synthetic.mtx")


def _blas_counts():
    """Each BLAS thread count to run at, as a context manager: 1 and 2 when
    the count can be set (objective() overlaps only at 1), else the
    current one."""
    calls = problems._blas_threads()

    @contextlib.contextmanager
    def at(threads):
        get, set_ = calls
        old = get()
        set_(threads)
        try:
            yield
        finally:
            set_(old)

    if calls is None:
        return [contextlib.nullcontext()]
    return [at(1), at(2)]


def _sequential(ls, x0):
    L, mu = ls.spectrum_bounds()
    x_star = ls.solve()
    return L, mu, x_star, float(np.linalg.norm(x_star - x0))


def _ash331_stand_in():
    A = load_matrix_market(ASH331_STAND_IN)
    gen = make_rng(23)
    return LeastSquares(A, gen.standard_normal(331)), gen.standard_normal(104)


def _gaussian(m, n, seed):
    ls, obj = make_gaussian_ls(m, n, 25, seed)
    return ls, obj.x0


@pytest.mark.parametrize("build", [
    lambda: _gaussian(32, 16, 3),
    _ash331_stand_in,
    lambda: _gaussian(600, 300, 4),
], ids=["32x16", "ash331-stand-in", "600x300"])
def test_objective_matches_sequential_calls_bitwise(build):
    ls, x0 = build()
    for blas in _blas_counts():
        with blas:
            before = threading.active_count()
            obj = ls.objective(x0)
            assert threading.active_count() == before
            L, mu, x_star, D = _sequential(ls, x0)
        assert np.float64(obj.L).tobytes() == np.float64(L).tobytes()
        assert np.float64(obj.mu).tobytes() == np.float64(mu).tobytes()
        assert obj.x_star.tobytes() == x_star.tobytes()
        assert np.float64(obj.D).tobytes() == np.float64(D).tobytes()
        assert obj.x0.tobytes() == x0.tobytes()


def test_objective_overlaps_only_on_one_blas_thread(monkeypatch):
    if problems._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(problems._blas_thread_count())
            super().start()

    monkeypatch.setattr(problems.threading, "Thread", Counted)
    ls, x0 = _gaussian(32, 16, 3)
    for blas in _blas_counts():
        with blas:
            ls.objective(x0)
    assert started == [1]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_objective_on_nan_matrix_raises_what_the_svd_raises_first():
    ls = LeastSquares(np.full((6, 3), np.nan), np.ones(6))
    x0 = np.zeros(3)
    want = _raised(lambda: _sequential(ls, x0))
    assert want == _raised(ls.spectrum_bounds)  # the sequential order fails here
    for blas in _blas_counts():
        with blas:
            before = threading.active_count()
            assert _raised(lambda: ls.objective(x0)) == want
            assert threading.active_count() == before


@pytest.mark.parametrize("failing", ["spectrum_bounds", "solve"])
def test_objective_reraises_the_one_failing_call(monkeypatch, failing):
    class Boom(Exception):
        pass

    def boom(self):
        raise Boom(failing)

    ls, x0 = _gaussian(32, 16, 5)
    monkeypatch.setattr(LeastSquares, failing, boom)
    for blas in _blas_counts():
        with blas:
            before = threading.active_count()
            with pytest.raises(Boom, match=failing):
                ls.objective(x0)
            assert threading.active_count() == before


# --- MatrixMarket ----------------------------------------------------------


def _write(tmp_path, text):
    p = tmp_path / "m.mtx"
    p.write_text(text)
    return str(p)


def test_mm_array_identity(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n"
        "% comment line\n"
        "2 2\n1.0\n0.0\n0.0\n1.0\n",
    )
    A = load_matrix_market(path)
    assert np.array_equal(A, np.eye(2))
    s = np.linalg.svd(A, compute_uv=False)
    assert (s[0] / s[-1]) ** 2 == pytest.approx(1.0)


def test_mm_coordinate_general(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "3 2 3\n"
        "1 1 2.5\n2 2 -1.0\n3 1 4.0\n",
    )
    A = load_matrix_market(path)
    assert A.shape == (3, 2)
    assert A[0, 0] == 2.5 and A[1, 1] == -1.0 and A[2, 0] == 4.0 and A[2, 1] == 0.0


def test_mm_pattern_entries_are_ones(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n1 1\n2 2\n",
    )
    assert np.array_equal(load_matrix_market(path), np.eye(2))


def test_mm_entry_count_mismatch(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n",
    )
    with pytest.raises(MatrixMarketError, match="promises 3 entries"):
        load_matrix_market(path)


def test_mm_malformed_value_reports_line(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
    )
    with pytest.raises(MatrixMarketError, match="line 3"):
        load_matrix_market(path)


def test_mm_complex_field_rejected(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
    )
    with pytest.raises(MatrixMarketError, match="not real-valued"):
        load_matrix_market(path)


def test_mm_bad_header(tmp_path):
    path = _write(tmp_path, "%%NotMatrixMarket hello\n1 1\n1.0\n")
    with pytest.raises(MatrixMarketError, match="line 1"):
        load_matrix_market(path)


def test_mm_array_is_column_major(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n"
        "2 3\n1\n2\n3\n4\n5\n6\n",
    )
    A = load_matrix_market(path)
    assert A.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
