"""Least-squares objective constructors.

All objectives are f(x) = 0.5 * ||A x - y||^2 with m >= n and full column
rank, so L = sigma_1(A)^2, mu = sigma_n(A)^2, and the gradient is
A^T (A x - y). Gaussian ensembles get their singular values remapped
affinely onto [1/sqrt(kappa), 1] so the condition number is exact and
L = 1; the worst-case instance aligns the start-to-optimizer direction
with the singular vector that GD contracts most slowly.

On large instances (m*n >= GRAD_SPLIT_MIN and n >= GRAD_SPLIT_MIN_COLS,
float64 in C order) an instance shares a second core when numpy's BLAS
runs one thread and the process may use two CPUs. One persistent helper
thread per process (a one-thread executor) runs one call while the calling
thread runs another, under the caller's numpy error state. The gradient
cuts each of its two matrix-vector products in two at a multiple of 64
rows and computes one half on the helper; every element comes from the
same BLAS kernel path as in the flat A.T @ (A @ x - y), so the bits are
the same. Building the instance runs its SVD on the helper while the
calling thread solves. Smaller instances never start the helper.
"""

import contextlib
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

# (get, set) thread-count symbols of numpy's bundled OpenBLAS builds
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# grad splits across two threads from this many matrix entries (m * n) and
# columns (n) up. Measured with one BLAS thread on a 2-core VM (medians of
# 200 alternating calls, split against flat wall time): 1024 x 512 +69%,
# 1536 x 768 +32%, 1920 x 960 +9%, 2048 x 768 +21%, 4096 x 512 +15%,
# 8192 x 256 +21%, 3072 x 768 -10%, 1024 x 1024 -5%; from n = 1024 and
# m * n = 2048 * 1024 up, -22% to -39% (2048 x 1024, 2304 x 1152,
# 1536 x 1536, 2560 x 1280, 3072 x 1024, 4096 x 1024, 2048 x 2048), for
# 10-32% more CPU time. Below 1024 columns the helper's half of A.T @ r
# ran at about half the speed of the caller's.
GRAD_SPLIT_MIN = 2048 * 1024
GRAD_SPLIT_MIN_COLS = 1024
# split points are multiples of this many rows; with each half empty or at
# least this long, every element of a half comes from the same kernel path
# as in the flat product (a one-row half would be computed as a dot product)
SPLIT_ALIGN = 64


class DegenerateInstanceError(ValueError):
    pass


class MatrixMarketError(ValueError):
    """Parse failure; message carries the 1-based line number."""


@dataclass(frozen=True)
class Objective:
    """Gradient oracle plus the constants the schedules and bounds need.

    x_star and D are measurement-side data: engines never read them, only
    the harness does. D is tight by construction (= ||x_star - x0||).
    """

    grad: object
    L: float
    mu: float
    x_star: np.ndarray
    x0: np.ndarray
    D: float

    @property
    def n(self):
        return self.x0.shape[0]

    @property
    def kappa(self):
        return self.L / self.mu


@dataclass(frozen=True)
class LeastSquares:
    A: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        m, n = self.A.shape
        if m < n:
            raise ValueError(f"need m >= n, got {m} x {n}")
        if self.y.shape != (m,):
            raise ValueError("y length must match the row count")

    def grad(self, x):
        A, y = self.A, self.y
        if (_on_two_cores(A) and type(x) is np.ndarray
                and x.dtype == np.float64 and x.shape == A.shape[1:]
                and x.flags.c_contiguous):
            return _split_grad(A, y, x)
        return A.T @ (A @ x - y)

    def value(self, x):
        r = self.A @ x - self.y
        return 0.5 * float(r @ r)

    def solve(self):
        return np.linalg.lstsq(self.A, self.y, rcond=None)[0]

    def spectrum_bounds(self):
        s = np.linalg.svd(self.A, compute_uv=False)
        return float(s[0] ** 2), float(s[-1] ** 2)

    def objective(self, x0):
        # The SVD and the solve are independent LAPACK calls that release
        # the GIL, so where the gradient splits the SVD runs on the helper
        # while this thread solves. Elsewhere they run in sequence (at
        # 32 x 16 the overlap took 0.39 ms against 0.16 ms; at 2048 x 1024
        # on two BLAS threads, 1.52 s against 0.95 s). The bits are those
        # of the calls in sequence; if both fail, the SVD's error wins.
        if _on_two_cores(self.A):
            (L, mu), x_star = _concurrently(self.spectrum_bounds, self.solve)
        else:
            L, mu = self.spectrum_bounds()
            x_star = self.solve()
        x0 = np.asarray(x0, dtype=np.float64)
        return Objective(
            grad=self.grad,
            L=L,
            mu=mu,
            x_star=x_star,
            x0=x0,
            D=float(np.linalg.norm(x_star - x0)),
        )


def _on_two_cores(A):
    """True when work on A shares the second core: A is a float64 C-order
    matrix of at least GRAD_SPLIT_MIN entries and GRAD_SPLIT_MIN_COLS
    columns, the process may use two CPUs and numpy's BLAS runs one
    thread. The one gate of the split gradient and the overlapped build."""
    return (A.shape[1] >= GRAD_SPLIT_MIN_COLS and A.size >= GRAD_SPLIT_MIN
            and A.dtype == np.float64 and A.flags.c_contiguous
            and _cpu_count() >= 2 and _blas_thread_count() == 1)


def _split_grad(A, y, x):
    """A.T @ (A @ x - y), each product in two halves, one on the helper."""
    r = _in_halves(A, x, np.empty(A.shape[0]))
    np.subtract(r, y, out=r)
    return _in_halves(A.T, r, np.empty(A.shape[1]))


def _in_halves(M, v, out):
    """out = M @ v: the rows from the split point on, on the helper. The
    split point is the largest multiple of SPLIT_ALIGN up to half the rows;
    when that is 0, the helper's half is the whole product."""
    at = M.shape[0] // 2 // SPLIT_ALIGN * SPLIT_ALIGN
    _concurrently(functools.partial(np.matmul, M[at:], v, out[at:]),
                  functools.partial(np.matmul, M[:at], v, out[:at]))
    return out


def _concurrently(first, second):
    """(first(), second()): first on the helper thread, under the caller's
    np.errstate, while this thread runs second; both here in sequence while
    another call holds the helper or once the interpreter is exiting. If
    both fail, first's error wins."""
    with _held_helper() as helper:
        if helper is not None:
            try:
                done = helper.submit(_under_errstate, np.geterr(),
                                     np.geterrcall(), first)
            except RuntimeError:  # the interpreter is exiting
                pass
            else:
                try:
                    second_result = second()
                finally:
                    first_result = done.result()
                return first_result, second_result
    return first(), second()


def _under_errstate(err, call, fn):
    with np.errstate(call=call, **err):
        return fn()


# (executor, lock held by the call using it): one helper thread per process
_helper = None
_helper_start = threading.Lock()


@contextlib.contextmanager
def _held_helper():
    """The process's helper executor, held by the caller for the block, or
    None while another call holds it. Started on first use, and again after
    a fork."""
    global _helper
    if _helper is None:
        with _helper_start:
            if _helper is None:
                _helper = (_new_helper(), threading.Lock())
    helper, busy = _helper
    if not busy.acquire(blocking=False):
        yield None
        return
    try:
        yield helper
    finally:
        busy.release()


def _new_helper():
    """A one-thread executor whose thread keeps off the CPU its creator runs
    on now, if the process may use another: some hosts never move a thread
    to an idle CPU (measured on a 2-core VM: with both threads left on one
    CPU a split 2048 x 1024 gradient took 1.69 ms against 1.54 ms flat;
    with the helper on the other CPU, 0.96 ms against 1.72 ms). One empty
    round trip through it takes about 25 us."""
    from concurrent.futures import ThreadPoolExecutor  # imports logging

    here = _current_cpu()
    cpus = _allowed_cpus() - {here} if here is not None else set()
    return ThreadPoolExecutor(1, "dqgrad-helper", initializer=_keep_to,
                              initargs=(cpus,))


def _keep_to(cpus):
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)  # this thread only, on Linux


def _forget_helper():
    """Drop the helper: after a fork its thread exists only in the parent."""
    global _helper, _helper_start
    _helper, _helper_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _allowed_cpus():
    """The CPUs the calling thread may run on; empty where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set()


@functools.cache
def _cpu_count():
    """How many CPUs this process may run on."""
    return len(_allowed_cpus()) or os.cpu_count() or 1


def _current_cpu():
    """The CPU the calling thread runs on (glibc's sched_getcpu), or None."""
    import ctypes

    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None
    getcpu.restype, getcpu.argtypes = ctypes.c_int, []
    cpu = getcpu()
    return cpu if cpu >= 0 else None


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, as ctypes
    functions, or None when no such library or symbol is found; looked up
    once per process."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _blas_thread_count():
    """The thread count numpy's BLAS reports, or None when it cannot be read."""
    calls = _blas_threads()
    return None if calls is None else calls[0]()


def remap_spectrum(A, kappa):
    """Affine remap of the singular values onto [1/sqrt(kappa), 1].

    Affine (rather than, say, power-law) is the simplest map that hits the
    target condition number exactly while keeping the singular vectors.
    """
    if kappa < 1:
        raise ValueError("condition number must be >= 1")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    lo, hi = 1.0 / np.sqrt(kappa), 1.0
    if s[0] == s[-1]:
        if kappa != 1.0:
            raise ValueError(
                f"cannot realize condition number {kappa} on a matrix with a "
                f"single distinct singular value"
            )
        s2 = np.full_like(s, hi)
    else:
        s2 = lo + (s - s[-1]) * (hi - lo) / (s[0] - s[-1])
    return U @ (s2[:, None] * Vt)


def make_gaussian_ls(m, n, kappa, seed):
    """Gaussian ensemble instance with exact condition number.

    A, y, x0 all have i.i.d. standard normal entries from the seeded
    generator; A's spectrum is then remapped so sigma_1 = 1 and
    sigma_1^2 / sigma_n^2 = kappa.
    """
    if m < n or n < 1:
        raise ValueError(f"need m >= n >= 1, got {m} x {n}")
    gen = rngmod.make_rng(seed)
    A = remap_spectrum(rngmod.normal_matrix(gen, m, n), kappa)
    y = rngmod.standard_normal(gen, m)
    x0 = rngmod.standard_normal(gen, n)
    ls = LeastSquares(A, y)
    return ls, ls.objective(x0)


def make_worst_case_gd(x0, L, mu, D, eta):
    """Instance on which GD at stepsize eta contracts at its worst rate.

    Places the optimizer at distance exactly D from x0 and assigns the
    direction (x0 - x_star)/D as the right singular vector of whichever
    singular value attains max{|1 - eta*mu|, |1 - eta*L|}; every GD step
    then scales the error vector by exactly that factor.
    """
    if not (L >= mu > 0) or eta <= 0:
        raise ValueError("need L >= mu > 0 and eta > 0")
    if D <= 0:
        raise DegenerateInstanceError("D must be positive to orient the instance")
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.shape[0]
    direction = x0 if np.linalg.norm(x0) > 0 else np.eye(n)[0]
    v1 = direction / np.linalg.norm(direction)
    x_star = x0 - D * v1

    basis = np.linalg.qr(np.column_stack([v1, np.eye(n)[:, : n - 1]]))[0]
    if basis[:, 0] @ v1 < 0:
        basis[:, 0] *= -1.0
    slow_is_L = abs(1.0 - eta * L) >= abs(1.0 - eta * mu)
    svals = np.full(n, np.sqrt(mu) if slow_is_L else np.sqrt(L))
    svals[0] = np.sqrt(L) if slow_is_L else np.sqrt(mu)
    A = basis @ np.diag(svals) @ basis.T
    y = A @ x_star
    ls = LeastSquares(A, y)
    return Objective(
        grad=ls.grad, L=L, mu=mu, x_star=x_star, x0=x0, D=float(D)
    )


@dataclass(frozen=True)
class LeastSquaresStack:
    """K least-squares problems of one shape, as (K, m, n) and (K, m) stacks.

    grad maps a (K, n) stack of points to the (K, n) stack of gradients
    A_k^T (A_k x_k - y_k). np.matmul runs the same gemv on each slice as
    LeastSquares.grad on its own A_k, so row k is that gradient bit for bit.
    """

    A: np.ndarray
    y: np.ndarray

    def grad(self, X):
        A = self.A
        residual = np.matmul(A, X[:, :, None]) - self.y[:, :, None]
        return np.matmul(A.transpose(0, 2, 1), residual)[:, :, 0]


@dataclass(frozen=True)
class MultiWorkerProblem:
    """K local objectives sharing one optimizer (interpolation setting).

    L and mu are the averages of the local constants: valid smoothness and
    strong-convexity constants for the average objective, not necessarily
    tight ones. stack, when given, holds the K local problems as one
    LeastSquaresStack, and the naive workers take their K gradients from it
    in one call; without it each local oracle is called on its own row. A
    stack is checked against the local oracles at x0.
    """

    locals_: tuple
    x_star: np.ndarray
    x0: np.ndarray
    stack: LeastSquaresStack | None = None

    def __post_init__(self):
        if self.stack is None:
            return
        if (self.stack.A.shape[0] != self.K or not np.array_equal(
                self.stack.grad(np.tile(self.x0, (self.K, 1))),
                [o.grad(self.x0) for o in self.locals_])):
            raise ValueError("the stack's gradients at x0 are not those of "
                             "the local objectives")

    @property
    def K(self):
        return len(self.locals_)

    @property
    def L_list(self):
        return [o.L for o in self.locals_]

    @property
    def mu_list(self):
        return [o.mu for o in self.locals_]

    @property
    def L(self):
        return sum(self.L_list) / self.K

    @property
    def mu(self):
        return sum(self.mu_list) / self.K

    @property
    def D(self):
        return float(np.linalg.norm(self.x_star - self.x0))


def make_interpolation_problem(K, n, m, kappa_list, seed, L_list=None):
    """K least-squares objectives f_k(x) = 0.5*||A_k (x - x_star)||^2.

    A shared x_star is drawn first, then each m x n A_k gets an independent
    Gaussian draw remapped to its prescribed condition number; y_k = A_k
    x_star makes every local gradient vanish at x_star by construction.
    L_list prescribes per-worker smoothness constants (default 1 each),
    which is what makes non-uniform rate allocation interesting. The A_k
    and y_k are slices of one (K, m, n) and one (K, m) array, the
    problem's stack.
    """
    if K < 1:
        raise ValueError("need at least one worker")
    if len(kappa_list) != K:
        raise ValueError("one condition number per worker")
    Ls = [1.0] * K if L_list is None else [float(v) for v in L_list]
    if len(Ls) != K or any(v <= 0 for v in Ls):
        raise ValueError("need one positive smoothness target per worker")
    gen = rngmod.make_rng(seed)
    x_star = rngmod.standard_normal(gen, n)
    x0 = rngmod.standard_normal(gen, n)
    stack = LeastSquaresStack(np.empty((K, m, n)), np.empty((K, m)))
    D = float(np.linalg.norm(x_star - x0))
    locals_ = []
    for k in range(K):
        A = stack.A[k]
        A[...] = np.sqrt(Ls[k]) * remap_spectrum(
            rngmod.normal_matrix(gen, m, n), kappa_list[k])
        stack.y[k] = A @ x_star
        ls = LeastSquares(A, stack.y[k])
        L, mu = ls.spectrum_bounds()
        locals_.append(Objective(grad=ls.grad, L=L, mu=mu, x_star=x_star,
                                 x0=x0, D=D))
    return MultiWorkerProblem(tuple(locals_), x_star, x0, stack)


def load_matrix_market(path):
    """Dense matrix from a MatrixMarket file.

    Supports coordinate and array formats with real, integer, or pattern
    fields and general symmetry; '%' comment lines are skipped. Parse
    failures report the offending 1-based line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("line 1: empty file")
    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MatrixMarketError(f"line 1: bad header {lines[0].strip()!r}")
    fmt, fieldkind, symmetry = (w.lower() for w in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"line 1: unsupported format {fmt!r}")
    if fieldkind not in ("real", "integer", "pattern"):
        raise MatrixMarketError(f"line 1: field {fieldkind!r} is not real-valued")
    if symmetry != "general":
        raise MatrixMarketError(f"line 1: unsupported symmetry {symmetry!r}")
    if fmt == "array" and fieldkind == "pattern":
        raise MatrixMarketError("line 1: pattern field requires coordinate format")

    body = [
        (i + 1, ln.strip())
        for i, ln in enumerate(lines)
        if i > 0 and ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise MatrixMarketError("line 1: missing size line")
    size_lineno, size_line = body[0]
    sizes = size_line.split()
    want = 3 if fmt == "coordinate" else 2
    if len(sizes) != want:
        raise MatrixMarketError(f"line {size_lineno}: expected {want} size fields")
    try:
        sizes = [int(v) for v in sizes]
    except ValueError:
        raise MatrixMarketError(f"line {size_lineno}: non-integer size field") from None
    entries = body[1:]

    if fmt == "coordinate":
        m, n, nnz = sizes
        if len(entries) != nnz:
            raise MatrixMarketError(
                f"line {size_lineno}: header promises {nnz} entries, file has {len(entries)}"
            )
        A = np.zeros((m, n))
        want_fields = 2 if fieldkind == "pattern" else 3
        for lineno, ln in entries:
            parts = ln.split()
            if len(parts) != want_fields:
                raise MatrixMarketError(f"line {lineno}: expected {want_fields} fields")
            try:
                i, j = int(parts[0]), int(parts[1])
                v = 1.0 if fieldkind == "pattern" else float(parts[2])
            except ValueError:
                raise MatrixMarketError(f"line {lineno}: malformed entry {ln!r}") from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise MatrixMarketError(f"line {lineno}: index ({i},{j}) out of range")
            A[i - 1, j - 1] = v
        return A

    m, n = sizes
    if len(entries) != m * n:
        raise MatrixMarketError(
            f"line {size_lineno}: header promises {m * n} values, file has {len(entries)}"
        )
    vals = np.empty(m * n)
    for k, (lineno, ln) in enumerate(entries):
        try:
            vals[k] = float(ln)
        except ValueError:
            raise MatrixMarketError(f"line {lineno}: malformed value {ln!r}") from None
    return vals.reshape((n, m)).T  # array format is column-major
