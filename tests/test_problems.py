import contextlib
import functools
import os
import signal
import subprocess
import sys
import threading
import time
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqgrad import _blas, problems
from dqgrad.harness import run_dq
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


@pytest.mark.parametrize("n", [1, 3, 16, 104])
def test_every_point_gets_the_bits_of_the_matmul_product(n):
    # a C-order float64 point takes the dot form, and any other the matmul
    # form: on a reversed view or a complex point the dot form's bits can
    # differ
    gen = make_rng(n)
    A, y = gen.standard_normal((2 * n, n)), gen.standard_normal(2 * n)
    x = gen.standard_normal(n)
    ls = LeastSquares(A, y)
    for point in (x, x[::-1], np.ones(2 * n)[::2],
                  x + 1j * gen.standard_normal(n), x.astype(np.float32),
                  list(x), x[:, None]):
        want = A.T @ (A @ point - y)
        got = ls.grad(point)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_local_objectives_without_a_stack_are_refused():
    # K > 1 naive workers take their gradients from the stack alone; one
    # local objective needs none
    prob = make_interpolation_problem(3, 6, 12, [2.0, 5.0, 3.0], 4)
    with pytest.raises(ValueError, match="3 local objectives need their stack"):
        MultiWorkerProblem(prob.locals_, prob.x_star, prob.x0)
    one = MultiWorkerProblem(prob.locals_[:1], prob.x_star, prob.x0)
    assert one.K == 1 and one.stack is None


# --- objective(): SVD and solve, overlapped where the gradient takes two cores

ASH331_STAND_IN = os.path.join(os.path.dirname(__file__), "data",
                               "ash331_synthetic.mtx")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))


def _blas_counts():
    """Each BLAS thread count to run at, as a context manager: 1 and 2 when
    the count can be set (the build's helper thread starts only at 1), else
    the current one."""
    if _blas._blas_threads() is None:
        return [contextlib.nullcontext()]
    return [_blas.threads(1), _blas.threads(2)]


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


@pytest.fixture
def low_gate(monkeypatch):
    """Every float64 C-order matrix passes the gate's shape test, on two
    CPUs; yields the list of calls handed to the helper."""
    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN", 0)
    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN_COLS", 0)
    monkeypatch.setattr(_blas, "GRAD_SPLIT_ALIGN", 1)
    monkeypatch.setattr(_blas, "cpu_count", lambda: 2)
    handed = []
    concurrently = _blas.concurrently

    def counted(first, second):
        handed.append(first)
        return concurrently(first, second)

    monkeypatch.setattr(_blas, "concurrently", counted)
    yield handed


def test_objective_overlaps_exactly_where_grad_splits(split_gate):
    # the SVD and the solve are stubbed: only where each runs matters. The
    # helper is a thread of the build alone: none is left once it returns
    where = []

    def bounds(self):
        where.append(threading.current_thread().name)
        return 1.0, 0.5

    split_gate.setattr(LeastSquares, "spectrum_bounds", bounds)
    split_gate.setattr(LeastSquares, "solve",
                       lambda self: np.zeros(self.A.shape[1]))
    set_blas = _blas._blas_threads()[1]
    before = threading.active_count()
    for shape, cpus, blas, shares in [
            ((2048, 1024), 2, 1, True), ((32, 16), 2, 1, False),
            ((1024, 1024), 2, 1, False), ((2048, 1024), 2, 2, False),
            ((2048, 1024), 1, 1, False), ((2052, 1028), 2, 1, False)]:
        split_gate.setattr(_blas, "cpu_count", lambda: cpus)
        set_blas(blas)
        ls = LeastSquares(np.zeros(shape), np.ones(shape[0]))
        split_gate.ran.clear()
        ls.objective(np.zeros(shape[1]))
        ls.grad(np.ones(shape[1]))
        overlapped = where[-1].startswith("dqgrad-helper")
        split = split_gate.ran == [shape]
        assert overlapped == split == shares, (shape, cpus, blas)
        assert threading.active_count() == before


def test_objective_runs_in_sequence_where_no_thread_can_start(low_gate,
                                                               monkeypatch):
    # as at interpreter shutdown, when starting a thread raises
    def refused(self):
        raise RuntimeError("can't create new thread at interpreter shutdown")

    if _blas._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    ls, x0 = _gaussian(32, 16, 3)
    want = _sequential(ls, x0)
    low_gate.clear()
    monkeypatch.setattr(threading.Thread, "start", refused)
    with _blas_counts()[0]:  # one BLAS thread
        obj = ls.objective(x0)
    assert len(low_gate) == 1
    assert (obj.L, obj.mu, obj.x_star.tobytes(), obj.D) == (
        want[0], want[1], want[2].tobytes(), want[3])


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_objective_on_nan_matrix_raises_what_the_svd_raises_first(low_gate):
    ls = LeastSquares(np.full((6, 3), np.nan), np.ones(6))
    x0 = np.zeros(3)
    want = _raised(lambda: _sequential(ls, x0))
    assert want == _raised(ls.spectrum_bounds)  # the sequential order fails here
    for blas in _blas_counts():
        with blas:
            before = threading.active_count()
            assert _raised(lambda: ls.objective(x0)) == want
            assert threading.active_count() == before
    # one handoff, at one BLAS thread, where the count can be set
    assert len(low_gate) == (_blas._blas_threads() is not None)


@pytest.mark.parametrize("failing", ["spectrum_bounds", "solve"])
def test_objective_reraises_the_one_failing_call(monkeypatch, low_gate,
                                                 failing):
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
    # one handoff, at one BLAS thread, where the count can be set
    assert len(low_gate) == (_blas._blas_threads() is not None)


# --- grad(): two BLAS threads on large aligned instances ----------------------


@pytest.fixture
def split_on(split_gate):
    """Every gradient of an aligned shape takes two BLAS threads, on one
    BLAS thread and whatever the CPU count; yields the list of such calls."""
    split_gate.setattr(_blas, "GRAD_SPLIT_MIN", 0)
    split_gate.setattr(_blas, "GRAD_SPLIT_MIN_COLS", 0)
    yield split_gate.ran


class _Calls(list):
    """The shapes of the two-thread gradient calls, and as `counts` every
    count the BLAS thread setter was given."""

    def __init__(self):
        super().__init__()
        self.counts = []


@pytest.fixture
def split_gate(monkeypatch):
    """The shape gate as it stands, on one BLAS thread and two CPUs, after
    OpenBLAS's re-init with the idle timeout, as at a process's first raise;
    monkeypatch with the calls as `ran`."""
    calls = _blas._blas_threads()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    get, set_ = calls
    two_threads = _blas.two_thread_grad
    ran = _Calls()
    counts = ran.counts

    def counted(A, y, x):
        ran.append(A.shape)
        return two_threads(A, y, x)

    def setter(threads):
        counts.append(threads)
        set_(threads)

    with _blas.threads(1):
        with _blas.lock:
            _blas._apply_thread_timeout()
        monkeypatch.setattr(_blas, "cpu_count", lambda: 2)
        monkeypatch.setattr(_blas, "two_thread_grad", counted)
        monkeypatch.setattr(_blas, "_blas_threads", lambda: (get, setter))
        monkeypatch.ran = ran
        yield monkeypatch


def _flat(A, y, x):
    return A.T @ (A @ x - y)


def _aligned(shape):
    return all(side % _blas.GRAD_SPLIT_ALIGN == 0 for side in shape)


@pytest.mark.parametrize("shape", [(1031, 65), (1500, 777), (4096, 256),
                                   (127, 100), (256, 128), (640, 384),
                                   (2048, 1024)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_split_gradient_is_the_flat_product_bitwise(split_on, shape, scale):
    # only aligned shapes take two threads, each call raising the count and
    # putting it back, on the thread OpenBLAS started at its re-init
    gen = make_rng(sum(shape))
    A = gen.standard_normal(shape) * scale
    y = gen.standard_normal(shape[0])
    ls = LeastSquares(A, y)
    for x in (gen.standard_normal(shape[1]) / scale, np.zeros(shape[1])):
        assert ls.grad(x).tobytes() == _flat(A, y, x).tobytes()
    raised = _aligned(shape)
    assert split_on == [shape, shape] * raised
    assert split_on.counts == [2, 1, 2, 1] * raised


def test_split_gradient_keeps_the_bits_of_nan_and_inf(split_on):
    gen = make_rng(4)
    A = gen.standard_normal((768, 384))
    y = gen.standard_normal(768)
    A[3, 5] = np.nan
    A[650, 10] = np.inf
    A[9, 290] = -np.inf
    ls = LeastSquares(A, y)
    points = (gen.standard_normal(384), np.full(384, np.inf),
              np.where(np.arange(384) % 7 == 0, np.nan, 1.0))
    with np.errstate(invalid="ignore"):
        for x in points:
            assert ls.grad(x).tobytes() == _flat(A, y, x).tobytes()
    assert len(split_on) == 3
    # the caller's error state holds as in the flat call: inf - inf is
    # reported as a warning (an error under pytest) or as FloatingPointError
    for state in ("warn", "raise"):
        with np.errstate(invalid=state):
            assert _raised(lambda: ls.grad(points[1])) == _raised(
                lambda: _flat(A, y, points[1]))
    assert len(split_on) == 5


def test_an_overflow_on_openblass_thread_is_reported_as_in_the_flat_call(
        split_on):
    # only the rows OpenBLAS gives its own thread overflow; the flat call
    # reports that, so the gradient must too
    A = np.zeros((768, 384))
    A[384:] = 1e300
    ls = LeastSquares(A, np.zeros(768))
    x = np.full(384, 1e10)
    with np.errstate(over="raise", invalid="ignore"):
        want = _raised(lambda: _flat(A, ls.y, x))
        assert want[0] is FloatingPointError
        assert _raised(lambda: ls.grad(x)) == want
    assert split_on.counts == [2, 1]


def test_a_caller_watching_underflow_gets_the_one_thread_call(split_on):
    gen = make_rng(6)
    A, y, x = (gen.standard_normal((256, 128)), gen.standard_normal(256),
               gen.standard_normal(128))
    with np.errstate(under="warn"):
        assert LeastSquares(A, y).grad(x).tobytes() == _flat(A, y, x).tobytes()
    assert split_on == [(256, 128)] and split_on.counts == []


class _Refused:
    """An entry of y whose subtraction raises, inside the raised call."""

    def __rsub__(self, other):
        raise ArithmeticError("refused")


@pytest.mark.parametrize("cause", ["overflow", "mid-call"])
def test_the_old_count_comes_back_after_a_gated_call_that_raises(split_on,
                                                                 cause):
    A = make_rng(7).standard_normal((256, 128))
    if cause == "overflow":
        ls, x = LeastSquares(A, np.zeros(256)), np.full(128, 1e307)
        with (np.errstate(over="raise", invalid="raise"),
              pytest.raises(FloatingPointError)):
            ls.grad(x)
    else:
        y = np.zeros(256, dtype=object)
        y[100] = _Refused()
        with pytest.raises(ArithmeticError, match="refused"):
            LeastSquares(A, y).grad(np.ones(128))
    assert split_on.counts == [2, 1]
    assert _blas._blas_threads()[0]() == 1


@pytest.mark.parametrize("x", [np.ones(385), np.ones((384, 1)), [1.0] * 384,
                               np.ones(768)[::2], np.ones(384, np.float32)],
                         ids=["long", "column", "list", "strided", "float32"])
def test_a_point_the_split_cannot_take_gets_the_flat_call_here(split_on, x):
    gen = make_rng(5)
    A, y = gen.standard_normal((768, 384)), gen.standard_normal(768)
    ls = LeastSquares(A, y)
    try:
        want = _flat(A, y, x)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ls.grad(x)
        assert str(info.value) == str(exc)
        assert "two_thread_grad" not in {f.name for f in traceback.extract_tb(
            info.value.__traceback__)}
    else:
        assert ls.grad(x).tobytes() == want.tobytes()
    assert split_on == [] and split_on.counts == []


def test_small_or_unaligned_instances_stay_flat(split_on, monkeypatch):
    gen = make_rng(6)
    A = np.asfortranarray(gen.standard_normal((384, 256)))
    y, x = gen.standard_normal(384), gen.standard_normal(256)
    assert LeastSquares(A, y).grad(x).tobytes() == _flat(A, y, x).tobytes()
    A = gen.standard_normal((300, 200))
    LeastSquares(A, np.zeros(300)).grad(np.zeros(200))
    assert split_on == []
    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN", 384 * 256 + 1)
    A = gen.standard_normal((384, 256))
    LeastSquares(A, np.zeros(384)).grad(np.zeros(256))
    assert split_on == [] and split_on.counts == []


@pytest.mark.parametrize("shape, splits", [
    ((4096, 512), False), ((2048, 768), False), ((1024, 1024), False),
    ((2048, 1024), True), ((1536, 1536), True), ((2052, 1028), False),
    ((2049, 1025), False)],
    ids=lambda v: f"{v[0]}x{v[1]}" if isinstance(v, tuple) else str(v))
def test_only_shapes_measured_to_gain_split(split_gate, shape, splits):
    # the sizes where two cores gained, and of those only the aligned ones:
    # at 2052 x 1028 and 2049 x 1025 two threads change the bits
    A = np.zeros(shape)
    LeastSquares(A, np.ones(shape[0])).grad(np.ones(shape[1]))
    assert split_gate.ran == ([shape] if splits else [])


@pytest.mark.parametrize("algo", ["dq-gd", "dq-agd", "dq-hb"])
def test_a_run_is_the_same_with_the_split_on_and_off(split_on, monkeypatch, algo):
    _, obj = make_gaussian_ls(512, 256, 100.0, 9)
    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN", 512 * 256 + 1)
    flat = run_dq(algo, obj, 8, t_max=30)
    assert split_on == []
    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN", 512 * 256)
    split = run_dq(algo, obj, 8, t_max=30)
    assert len(split_on) >= 30
    assert split.terminal_T == flat.terminal_T == 30
    assert (np.asarray(split.distances).tobytes()
            == np.asarray(flat.distances).tobytes())


def _hammer(calls, seconds):
    """Run each call on its own thread, over and over, for `seconds` with a
    tiny switch interval; the calls whose result changed or that raised."""
    wrong, finished = [], []

    def hammer(i):
        want = calls[i]()
        try:
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline:
                if calls[i]() != want:
                    wrong.append(i)
        except Exception as exc:  # reported by the assertion below
            wrong.append(exc)
        finished.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,), daemon=True)
                   for i in range(len(calls))]
        for t in threads:
            t.start()
        deadline = time.monotonic() + seconds + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == list(range(len(calls)))
    return wrong


def test_threads_sharing_the_thread_count_get_their_own_gradients(split_on):
    # the thread count is the process's: while one thread has it raised,
    # another's gated gradient waits, and no thread gets another's bits
    gen = make_rng(8)
    problems_ = [LeastSquares(gen.standard_normal((256, 128)),
                              gen.standard_normal(256)) for _ in range(6)]
    points = [gen.standard_normal(128) for _ in problems_]
    want = [_flat(ls.A, ls.y, x).tobytes() for ls, x in zip(problems_, points)]
    calls = [lambda ls=ls, x=x: ls.grad(x).tobytes()
             for ls, x in zip(problems_, points)]
    assert _hammer(calls, 0.5) == []
    assert [c() for c in calls] == want
    assert split_on  # the calls did take two threads


def test_a_raised_gradient_and_a_build_on_two_threads_keep_their_bits(
        split_on):
    # a build's SVD and solve change bits at two threads (they do from
    # 300 x 150 up); it waits while a gradient has the count raised, and a
    # gradient waits while a build runs. Two of each, on two cores
    gen = make_rng(9)
    grads = [(LeastSquares(gen.standard_normal((512, 256)),
                           gen.standard_normal(512)),
              gen.standard_normal(256)) for _ in range(2)]
    builds = [_gaussian(300, 150, seed) for seed in (5, 6)]

    def build(ls, x0):
        obj = ls.objective(x0)
        return obj.L, obj.mu, obj.x_star.tobytes(), obj.D

    calls = ([lambda ls=ls, x=x: ls.grad(x).tobytes() for ls, x in grads]
             + [functools.partial(build, ls, x0) for ls, x0 in builds])
    want = ([_flat(ls.A, ls.y, x).tobytes() for ls, x in grads]
            + [c() for c in calls[2:]])
    assert _hammer(calls, 0.75) == []
    assert [c() for c in calls] == want
    assert split_on


def test_a_build_starts_one_thread_and_a_split_starts_none(split_on):
    # the build's SVD runs on the one helper thread it starts; the gradient
    # splits on OpenBLAS's threads alone. Neither leaves a thread behind
    seen = []
    bounds = LeastSquares.spectrum_bounds

    def watched(self):
        seen.append((threading.current_thread().name,
                     [t.name for t in threading.enumerate()
                      if t.name.startswith("dqgrad-helper")]))
        return bounds(self)

    ls, x0 = _gaussian(512, 256, 2)
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LeastSquares, "spectrum_bounds", watched)
        ls.objective(x0)
    assert seen == [("dqgrad-helper", ["dqgrad-helper"])]
    assert threading.active_count() == before
    ls.grad(x0)
    assert split_on == [(512, 256)]
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_openblass_thread_idles_starts_its_own(split_on):
    # the parent's gradient has started OpenBLAS's second thread, which
    # idles when the child is forked
    ls, x0 = _gaussian(512, 256, 2)
    want = ls.grad(x0).tobytes()
    assert split_on
    pid = os.fork()
    if pid == 0:  # the child: any failure, a hang included, shows as a code
        code = 1
        try:
            ls.objective(x0)
            same = ls.grad(x0).tobytes() == want
            code = 0 if same and len(split_on) == 2 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child hung on a gated gradient")


_CORETYPE_CHECK = """
import numpy as np
from dqgrad import _blas, problems
_blas.cpu_count = lambda: 2
two_threads, ran = _blas.two_thread_grad, []
_blas.two_thread_grad = lambda *args: ran.append(1) or two_threads(*args)
gen = np.random.default_rng(3)
for m, n, low in ((2048, 1024, False), (512, 256, True), (2052, 1028, False)):
    if low:
        _blas.GRAD_SPLIT_MIN = _blas.GRAD_SPLIT_MIN_COLS = 0
    A, y, x = (gen.standard_normal((m, n)), gen.standard_normal(m),
               gen.standard_normal(n))
    ran.clear()
    g = problems.LeastSquares(A, y).grad(x)
    assert g.tobytes() == (A.T @ (A @ x - y)).tobytes(), (m, n)
    print(len(ran))
"""


@pytest.mark.parametrize("coretype", ["Prescott", "Nehalem", "Sandybridge",
                                      "Haswell", "SkylakeX"])
def test_split_equals_flat_under_another_kernel_family(coretype):
    # the byte contract is pinned under one kernel family; a gated gradient
    # must keep the one-thread bits under each family other hosts get, and
    # the gate must leave out a shape whose two-thread bits differ
    if coretype == "SkylakeX" and not _has_avx512f():
        pytest.skip("the SkylakeX kernels need AVX-512")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", _CORETYPE_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "0"]


def _has_avx512f():
    try:
        with open("/proc/cpuinfo", encoding="ascii") as fh:
            return " avx512f" in fh.read()
    except OSError:
        return False


_LATE_THREAD = """
import threading
import numpy as np
from dqgrad import _blas, problems
_blas.GRAD_SPLIT_MIN = _blas.GRAD_SPLIT_MIN_COLS = 0
_blas.cpu_count = lambda: 2
gen = np.random.default_rng(3)
A, y = gen.standard_normal((768, 384)), gen.standard_normal(768)
x = gen.standard_normal(384)
ls = problems.LeastSquares(A, y)
two_threads, ran = _blas.two_thread_grad, []
_blas.two_thread_grad = lambda *args: ran.append(1) or two_threads(*args)
ls.grad(x)  # OpenBLAS's second thread runs


def late():
    threading.main_thread().join()  # returns once the main thread is done
    same = ls.grad(x).tobytes() == (A.T @ (A @ x - y)).tobytes()
    obj = ls.objective(np.zeros(384))
    print("same" if same and len(ran) == 2 and obj.L > 0 else "differs")


threading.Thread(target=late).start()
"""


def test_a_thread_outliving_the_main_thread_still_gets_gradients():
    # a thread still running when the main thread ends gets its gradients
    # and builds its instances, the build's helper thread included
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", _LATE_THREAD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout.split()) == (
        0, "", ["same"])


_SMALL_RUNS = """
import threading
from dqgrad import _blas, problems
from dqgrad.harness import run_dq
_blas.cpu_count = lambda: 2
get, set_ = _blas._blas_threads()
counts = []
_blas._blas_threads = lambda: (get, lambda n: counts.append(n) or set_(n))
for m, n in ((32, 16), (331, 104)):
    _, obj = problems.make_gaussian_ls(m, n, 25.0, 3)
    run_dq("dq-gd", obj, 8, t_max=50)
print(threading.active_count(), len(counts))
"""


def test_small_instances_start_no_thread():
    # below the gate an instance builds and runs on the calling thread
    # alone, on one BLAS thread and two CPUs too, and never sets the count
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", _SMALL_RUNS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout.split()) == (
        0, "", ["1", "0"])


# --- remap_spectrum ----------------------------------------------------------


def _instance_bytes():
    ls, obj = make_gaussian_ls(2048, 1024, 100, 0)
    prob = make_interpolation_problem(3, 16, 40, [4.0, 25.0, 2.0], 56,
                                      L_list=[1.0, 2.0, 0.5])
    return ([ls.A.tobytes(), ls.y.tobytes(), obj.L, obj.mu,
             obj.x_star.tobytes(), obj.D, ls.A.flags.c_contiguous],
            [prob.stack.A.tobytes(), prob.stack.y.tobytes(), prob.L_list,
             prob.mu_list, prob.x_star.tobytes(), prob.D])


def test_instances_are_the_same_through_lapacke_and_numpy(monkeypatch):
    if _blas._lapacke_gesdd() is None:
        pytest.skip("numpy's BLAS exports no LAPACKE_dgesdd_work")
    through_lapacke = _instance_bytes()
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    assert _instance_bytes() == through_lapacke


def _remap_of_numpys_factors(A, kappa):
    """The remap as a product of np.linalg.svd's C-order factors."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    lo = 1.0 / np.sqrt(kappa)
    s2 = lo + (s - s[-1]) * (1.0 - lo) / (s[0] - s[-1])
    return U @ (s2[:, None] * Vt)


@pytest.mark.parametrize("kind", ["C", "F", "int"])
def test_remap_leaves_its_argument_and_keeps_the_bits(svd_path, kind):
    A = make_rng(4).standard_normal((12, 5))
    A = {"C": A, "F": np.asfortranarray(A),
         "int": np.round(A * 10).astype(np.int64)}[kind]
    kept = A.copy(order="K")
    out = problems.remap_spectrum(A, 9.0)
    assert A.tobytes(order="A") == kept.tobytes(order="A")
    assert A.flags.f_contiguous == kept.flags.f_contiguous
    assert out.tobytes() == _remap_of_numpys_factors(A, 9.0).tobytes()
    assert out.flags.c_contiguous


_BUILD_PEAK = """
from dqgrad import problems


def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))


problems.make_gaussian_ls(64, 32, 100, 0)
before = peak_kib()
problems.make_gaussian_ls(2048, 1024, 100, 0)
print((peak_kib() - before) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak from /proc/self/status")
def test_a_large_build_stays_within_its_memory():
    # The child's peak resident size grows by 115 MiB at 2048 x 1024 with
    # the SVD in numpy's copies of the draw and factors, by 75 MiB in place
    # and by 91 MiB in place with the C-order draw kept alive (2-core x86-64
    # VM). It reads its own peak (VmHWM): ru_maxrss would start from this
    # test process's size, which Linux carries across exec.
    if _blas._lapacke_gesdd() is None:
        pytest.skip("numpy's BLAS exports no LAPACKE_dgesdd_work")
    src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _BUILD_PEAK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 85.0


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
