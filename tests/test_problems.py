import contextlib
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

from dqgrad import problems
from dqgrad.harness import run_dq, run_nq
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


# --- objective(): SVD and solve, overlapped where the gradient splits --------

ASH331_STAND_IN = os.path.join(os.path.dirname(__file__), "data",
                               "ash331_synthetic.mtx")


def _blas_counts():
    """Each BLAS thread count to run at, as a context manager: 1 and 2 when
    the count can be set (the helper is used only at 1), else the current
    one."""
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


def _threads_after_the_helper():
    """The thread count once the process's helper runs: building objectives
    and splitting gradients must start no thread beyond it."""
    with problems._held_helper() as helper:
        helper.submit(int).result()
    return threading.active_count()


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
            before = _threads_after_the_helper()
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
    monkeypatch.setattr(problems, "GRAD_SPLIT_MIN", 0)
    monkeypatch.setattr(problems, "GRAD_SPLIT_MIN_COLS", 0)
    monkeypatch.setattr(problems, "_cpu_count", lambda: 2)
    handed = []
    concurrently = problems._concurrently

    def counted(first, second):
        handed.append(first)
        return concurrently(first, second)

    monkeypatch.setattr(problems, "_concurrently", counted)
    yield handed


def test_objective_overlaps_exactly_where_grad_splits(split_gate):
    # the SVD and the solve are stubbed: only where each runs matters
    where = []

    def bounds(self):
        where.append(threading.current_thread().name)
        return 1.0, 0.5

    split_gate.setattr(LeastSquares, "spectrum_bounds", bounds)
    split_gate.setattr(LeastSquares, "solve",
                       lambda self: np.zeros(self.A.shape[1]))
    set_blas = problems._blas_threads()[1]
    for shape, cpus, blas, shares in [
            ((2048, 1024), 2, 1, True), ((32, 16), 2, 1, False),
            ((1024, 1024), 2, 1, False), ((2048, 1024), 2, 2, False),
            ((2048, 1024), 1, 1, False)]:
        split_gate.setattr(problems, "_cpu_count", lambda: cpus)
        set_blas(blas)
        ls = LeastSquares(np.zeros(shape), np.ones(shape[0]))
        split_gate.ran.clear()
        ls.objective(np.zeros(shape[1]))
        ls.grad(np.ones(shape[1]))
        overlapped = where[-1].startswith("dqgrad-helper")
        split = split_gate.ran == [shape]
        assert overlapped == split == shares, (shape, cpus, blas)


def test_objective_runs_in_sequence_while_the_helper_is_held():
    ls, x0 = _gaussian(32, 16, 3)
    want = _sequential(ls, x0)
    with problems._held_helper() as helper:
        assert helper is not None
        obj = ls.objective(x0)
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
            before = _threads_after_the_helper()
            assert _raised(lambda: ls.objective(x0)) == want
            assert threading.active_count() == before
    # one handoff, at one BLAS thread, where the count can be set
    assert len(low_gate) == (problems._blas_threads() is not None)


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
            before = _threads_after_the_helper()
            with pytest.raises(Boom, match=failing):
                ls.objective(x0)
            assert threading.active_count() == before
    # one handoff, at one BLAS thread, where the count can be set
    assert len(low_gate) == (problems._blas_threads() is not None)


# --- grad(): two halves per product on large instances -------------------------


@pytest.fixture
def split_on(split_gate):
    """Every gradient of at least 128 rows may split, on one BLAS thread and
    whatever the CPU count; yields the list of split calls."""
    split_gate.setattr(problems, "GRAD_SPLIT_MIN", 0)
    split_gate.setattr(problems, "GRAD_SPLIT_MIN_COLS", 0)
    yield split_gate.ran


@pytest.fixture
def split_gate(monkeypatch):
    """The shape gate as it stands, on one BLAS thread and whatever the CPU
    count; monkeypatch with the list of split calls as `ran`."""
    calls = problems._blas_threads()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    split = problems._split_grad
    ran = []

    def counted(A, y, x):
        ran.append(A.shape)
        return split(A, y, x)

    monkeypatch.setattr(problems, "_cpu_count", lambda: 2)
    monkeypatch.setattr(problems, "_split_grad", counted)
    monkeypatch.ran = ran
    get, set_ = calls
    old = get()
    set_(1)
    try:
        yield monkeypatch
    finally:
        set_(old)


def _flat(A, y, x):
    return A.T @ (A @ x - y)


@pytest.mark.parametrize("shape", [(1031, 65), (1500, 777), (4096, 256),
                                   (127, 100)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_split_gradient_is_the_flat_product_bitwise(split_on, shape, scale):
    gen = make_rng(sum(shape))
    A = gen.standard_normal(shape) * scale
    y = gen.standard_normal(shape[0])
    ls = LeastSquares(A, y)
    for x in (gen.standard_normal(shape[1]) / scale, np.zeros(shape[1])):
        assert ls.grad(x).tobytes() == _flat(A, y, x).tobytes()
    assert split_on == [shape, shape]


def test_split_gradient_keeps_the_bits_of_nan_and_inf(split_on):
    gen = make_rng(4)
    A = gen.standard_normal((700, 300))
    y = gen.standard_normal(700)
    A[3, 5] = np.nan
    A[650, 10] = np.inf
    A[9, 290] = -np.inf
    ls = LeastSquares(A, y)
    points = (gen.standard_normal(300), np.full(300, np.inf),
              np.where(np.arange(300) % 7 == 0, np.nan, 1.0))
    with np.errstate(invalid="ignore"):
        for x in points:
            assert ls.grad(x).tobytes() == _flat(A, y, x).tobytes()
    assert len(split_on) == 3
    # the caller's error state holds in both halves: inf - inf is reported
    # as the flat call reports it, as a warning (an error under pytest) or
    # as FloatingPointError
    for state in ("warn", "raise"):
        with np.errstate(invalid=state):
            assert _raised(lambda: ls.grad(points[1])) == _raised(
                lambda: _flat(A, y, points[1]))
    assert len(split_on) == 5


@pytest.mark.parametrize("x", [np.ones(301), np.ones((300, 1)), [1.0] * 300],
                         ids=["long", "column", "list"])
def test_a_point_the_split_cannot_take_gets_the_flat_call_here(split_on, x):
    gen = make_rng(5)
    A, y = gen.standard_normal((700, 300)), gen.standard_normal(700)
    ls = LeastSquares(A, y)
    try:
        want = _flat(A, y, x)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ls.grad(x)
        assert str(info.value) == str(exc)
        assert "_under_errstate" not in {f.name for f in traceback.extract_tb(
            info.value.__traceback__)}
    else:
        assert ls.grad(x).tobytes() == want.tobytes()
    assert split_on == []


def test_small_or_unaligned_instances_stay_flat(split_on, monkeypatch):
    gen = make_rng(6)
    A = np.asfortranarray(gen.standard_normal((300, 200)))
    y, x = gen.standard_normal(300), gen.standard_normal(200)
    assert LeastSquares(A, y).grad(x).tobytes() == _flat(A, y, x).tobytes()
    assert split_on == []
    monkeypatch.setattr(problems, "GRAD_SPLIT_MIN", 300 * 200 + 1)
    A = gen.standard_normal((300, 200))
    LeastSquares(A, np.zeros(300)).grad(np.zeros(200))
    assert split_on == []


@pytest.mark.parametrize("shape, splits", [
    ((4096, 512), False), ((2048, 768), False), ((1024, 1024), False),
    ((2048, 1024), True), ((1536, 1536), True)],
    ids=lambda v: f"{v[0]}x{v[1]}" if isinstance(v, tuple) else str(v))
def test_only_shapes_measured_to_gain_split(split_gate, shape, splits):
    # below 1024 columns a split gradient was slower than the flat one,
    # whatever m * n (4096 x 512: +15%)
    A = np.zeros(shape)
    LeastSquares(A, np.ones(shape[0])).grad(np.ones(shape[1]))
    assert split_gate.ran == ([shape] if splits else [])


def test_the_gradient_stays_flat_while_the_helper_is_held(split_on):
    # both halves of each product run on this thread, in sequence
    gen = make_rng(7)
    A, y, x = (gen.standard_normal((600, 300)), gen.standard_normal(600),
               gen.standard_normal(300))
    with problems._held_helper() as helper:
        assert helper is not None
        with problems._held_helper() as other:
            assert other is None
        g = LeastSquares(A, y).grad(x)
    assert g.tobytes() == _flat(A, y, x).tobytes()


@pytest.mark.parametrize("algo", ["dq-gd", "dq-agd", "dq-hb"])
def test_a_run_is_the_same_with_the_split_on_and_off(split_on, monkeypatch, algo):
    _, obj = make_gaussian_ls(512, 256, 100.0, 9)
    monkeypatch.setattr(problems, "GRAD_SPLIT_MIN", 512 * 256 + 1)
    flat = run_dq(algo, obj, 8, t_max=30)
    assert split_on == []
    monkeypatch.setattr(problems, "GRAD_SPLIT_MIN", 512 * 256)
    split = run_dq(algo, obj, 8, t_max=30)
    assert len(split_on) >= 30
    assert split.terminal_T == flat.terminal_T == 30
    assert (np.asarray(split.distances).tobytes()
            == np.asarray(flat.distances).tobytes())


def test_threads_sharing_the_helper_get_their_own_gradients(split_on):
    # one helper for the process: a thread that finds it held runs flat,
    # and no thread gets another's half
    gen = make_rng(8)
    problems_ = [LeastSquares(gen.standard_normal((256, 128)),
                              gen.standard_normal(256)) for _ in range(6)]
    points = [gen.standard_normal(128) for _ in problems_]
    want = [_flat(ls.A, ls.y, x).tobytes() for ls, x in zip(problems_, points)]
    wrong, finished = [], []

    def hammer(i):
        try:
            for _ in range(150):
                if problems_[i].grad(points[i]).tobytes() != want[i]:
                    wrong.append(i)
        except Exception as exc:  # reported by the assertion below
            wrong.append(exc)
        finished.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,), daemon=True)
                   for i in range(len(problems_))]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and sorted(finished) == list(range(len(problems_)))
    assert split_on  # some calls did split


def test_the_helper_is_one_thread_that_builds_and_splits(split_on):
    _threads_after_the_helper()
    helpers = [t for t in threading.enumerate()
               if t.name.startswith("dqgrad-helper")]
    assert len(helpers) == 1
    before = threading.active_count()
    ls, x0 = _gaussian(300, 150, 2)
    ls.objective(x0)
    problems._split_grad(ls.A, ls.y, x0)
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_the_helper_idles_starts_its_own():
    ls, x0 = _gaussian(300, 150, 2)
    want = problems._split_grad(ls.A, ls.y, x0).tobytes()
    pid = os.fork()
    if pid == 0:  # the child: any failure, a hang included, shows as a code
        code = 1
        try:
            ls.objective(x0)
            same = problems._split_grad(ls.A, ls.y, x0).tobytes() == want
            code = 0 if same else 2
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
    pytest.fail("the forked child hung on the helper")


_CORETYPE_CHECK = """
import numpy as np
from dqgrad import problems
gen = np.random.default_rng(3)
for m, n in ((1031, 65), (1500, 777), (4096, 256)):
    A, y, x = (gen.standard_normal((m, n)), gen.standard_normal(m),
               gen.standard_normal(n))
    split = problems._split_grad(A, y, x)
    assert split.tobytes() == (A.T @ (A @ x - y)).tobytes(), (m, n)
print("same")
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_split_equals_flat_under_another_kernel_family(coretype):
    # the byte contract is pinned only under the SkylakeX kernels; the
    # split must hold under the families other hosts get
    src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _CORETYPE_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["same"]


_LATE_THREAD = """
import threading
import numpy as np
from dqgrad import problems
problems.GRAD_SPLIT_MIN = problems.GRAD_SPLIT_MIN_COLS = 0
problems._cpu_count = lambda: 2
gen = np.random.default_rng(3)
A, y = gen.standard_normal((700, 300)), gen.standard_normal(700)
x = gen.standard_normal(300)
ls = problems.LeastSquares(A, y)
split = problems._split_grad
ran = []
problems._split_grad = lambda *args: ran.append(1) or split(*args)
ls.grad(x)  # the helper's thread runs


def late():
    threading.main_thread().join()  # returns once the helper is shut down
    same = ls.grad(x).tobytes() == (A.T @ (A @ x - y)).tobytes()
    obj = ls.objective(np.zeros(300))
    print("same" if same and len(ran) == 2 and obj.L > 0 else "differs")


threading.Thread(target=late).start()
"""


def test_a_thread_outliving_the_main_thread_still_gets_gradients():
    # the helper's executor shuts down when the main thread ends; a thread
    # still running then gets the flat products
    src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _LATE_THREAD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout.split()) == (
        0, "", ["same"])


_SMALL_RUNS = """
import sys
import threading
from dqgrad import problems
from dqgrad.harness import run_dq
problems._cpu_count = lambda: 2
for m, n in ((32, 16), (331, 104)):
    _, obj = problems.make_gaussian_ls(m, n, 25.0, 3)
    run_dq("dq-gd", obj, 8, t_max=50)
print(threading.active_count(), "concurrent.futures.thread" in sys.modules)
"""


def test_small_instances_start_no_thread():
    # below the gate an instance builds and runs on the calling thread
    # alone, on one BLAS thread and two CPUs too
    src = os.path.dirname(os.path.dirname(os.path.abspath(problems.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _SMALL_RUNS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout.split()) == (
        0, "", ["1", "False"])


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
