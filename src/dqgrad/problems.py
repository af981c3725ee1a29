"""Least-squares objective constructors.

All objectives are f(x) = 0.5 * ||A x - y||^2 with m >= n and full column
rank, so L = sigma_1(A)^2, mu = sigma_n(A)^2, and the gradient is
A^T (A x - y). Gaussian ensembles get their singular values remapped
affinely onto [1/sqrt(kappa), 1] so the condition number is exact and
L = 1; the worst-case instance aligns the start-to-optimizer direction
with the singular vector that GD contracts most slowly.

The remap's thin SVD runs in place: one LAPACKE_dgesdd_work call of
numpy's bundled OpenBLAS, with numpy's jobz='S' and workspace, overwrites a
Fortran-order copy of the draw and leaves U and Vt in Fortran order; the
factors and the remapped matrix have the bits of np.linalg.svd's. A whole
process that builds a 2048 x 1024 instance peaks at 111 MB against 151 MB
through np.linalg.svd, which holds the draw, its own copies of it and of
the factors, and the workspace at once. Where numpy's BLAS does not export
scipy_LAPACKE_dgesdd_work64_, np.linalg.svd runs instead.

On large aligned instances (_on_two_cores) the gradient is the flat
A.T @ (A @ x - y) with numpy's OpenBLAS raised to two threads for the
call, with the one-thread bits, and the build runs its SVD on a helper
thread kept off the caller's CPU while the calling thread solves. Smaller
instances never touch the thread count and start no thread. The count is
process-wide, so the raise and every LAPACK call here take one lock.
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

# grad shares two cores from this many matrix entries (m * n) and columns
# (n) up. Alone, two OpenBLAS threads gain below them too (2-core VM,
# medians of 300 alternating calls: 1024 x 512 -40%, 1024 x 1024 -42%,
# 2048 x 1024 -43%), but no run loop has been timed there.
GRAD_SPLIT_MIN = 2048 * 1024
GRAD_SPLIT_MIN_COLS = 1024
# m and n must be multiples of this: OpenBLAS gives each of two threads
# half of a product's output (m rows of A @ x, n of A.T @ r), and the bits
# are the one-thread product's exactly when that cut falls on a multiple of
# 4 (Prescott, Nehalem, Sandybridge, Haswell and SkylakeX kernels alike:
# equal at 2048 x 1024, 2304 x 1152, 2176 x 1088, different at
# 2052 x 1028, 2049 x 1025); 128 keeps a margin of 64
GRAD_SPLIT_ALIGN = 128
# busy processes that share this one's CPUs; a pool worker sets the size of
# its pool, so that only a worker with two CPUs of its own takes two
_pool_workers = 1
# held while dqgrad raises numpy's BLAS thread count and by every LAPACK
# call here, whose bits change at two threads
_blas_lock = threading.Lock()


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
            return _two_thread_grad(A, y, x)
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
        # the GIL; they overlap only where the gradient takes two cores (at
        # 32 x 16 the overlap took 0.39 ms against 0.16 ms in sequence; at
        # 2048 x 1024 on two BLAS threads, 1.52 s against 0.95 s). The bits
        # are those of the calls in sequence.
        with _blas_lock:
            if _on_two_cores(self.A):
                (L, mu), x_star = _concurrently(self.spectrum_bounds,
                                                self.solve)
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
    """True when work on A shares a second core: A is a float64 C-order
    matrix of at least GRAD_SPLIT_MIN entries and GRAD_SPLIT_MIN_COLS
    columns, both sides multiples of GRAD_SPLIT_ALIGN, the process has two
    CPUs to itself and numpy's BLAS runs one thread. The one gate of the
    two-thread gradient and the overlapped build."""
    m, n = A.shape
    return (n >= GRAD_SPLIT_MIN_COLS and A.size >= GRAD_SPLIT_MIN
            and m % GRAD_SPLIT_ALIGN == 0 and n % GRAD_SPLIT_ALIGN == 0
            and A.dtype == np.float64 and A.flags.c_contiguous
            and _cpu_count() >= 2 * _pool_workers
            and _blas_thread_count() == 1)


def _two_thread_grad(A, y, x):
    """A.T @ (A @ x - y) with numpy's BLAS raised to two threads, the old
    count back after. OpenBLAS's own thread sets no floating-point flag of
    this one, so the raised call ignores them, and a result that is not
    finite (as an overflow or invalid operation leaves it) is computed again
    on one thread under the caller's np.errstate, which reports what the
    flat call reports; so is every call of a caller who watches underflow."""
    if np.geterr()["under"] == "ignore":
        get, set_ = _blas_threads()
        with _blas_lock, np.errstate(all="ignore"):
            old = get()
            set_(2)
            try:
                g = A.T @ (A @ x - y)
            finally:
                set_(old)
        if np.isfinite(g).all():
            return g
    return A.T @ (A @ x - y)


def _concurrently(first, second):
    """(first(), second()): first on a new thread kept off the CPU this one
    runs on, under the caller's np.errstate, while this thread runs second;
    both here in sequence where no thread can start. If both fail, first's
    error wins. Some hosts never move a thread to an idle CPU: 2048 x 1024
    builds overlapped in 0.50-0.61 s with the helper kept off, against
    0.52-1.01 s left to the scheduler and 0.97-1.14 s in sequence."""
    here = _current_cpu()
    cpus = _allowed_cpus() - {here} if here is not None else set()
    err, call = np.geterr(), np.geterrcall()
    out = {}

    def helper():
        if cpus:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)  # this thread only, on Linux
        try:
            with np.errstate(call=call, **err):
                out["result"] = first()
        except BaseException as exc:  # raised again on the calling thread
            out["error"] = exc

    thread = threading.Thread(target=helper, name="dqgrad-helper")
    try:
        thread.start()
    except RuntimeError:  # the interpreter is exiting
        return first(), second()
    try:
        second_result = second()
    finally:
        thread.join()
        if "error" in out:
            raise out["error"]
    return out["result"], second_result


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
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None where numpy
    ships none; loaded once per process, for every symbol called here."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    return ctypes.CDLL(paths[0]) if paths else None


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, as ctypes
    functions, or None when no such library or symbol is found; looked up
    once per process."""
    import ctypes

    lib = _openblas()
    if lib is None:
        return None
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


def _lapacke_gesdd():
    """LAPACKE_dgesdd_work of numpy's OpenBLAS (64-bit integers) as a ctypes
    function, or None where the library does not export it."""
    import ctypes

    lib = _openblas()
    gesdd = getattr(lib, "scipy_LAPACKE_dgesdd_work64_", None)
    if gesdd is not None:
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        gesdd.restype = i64
        gesdd.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, ptr, i64,
                          ptr, ptr, i64, ptr, i64, ptr, i64, ptr]
    return gesdd


# LAPACKE_dgesdd_work's arguments in order; an info of -i names the i-th
_GESDD_ARGS = ("matrix_layout", "jobz", "m", "n", "a", "lda", "s", "u", "ldu",
               "vt", "ldvt", "work", "lwork", "iwork")
_LAPACK_COL_MAJOR = 102


def _gesdd_checked(info):
    """Raise what an info from LAPACKE_dgesdd_work means, as numpy would."""
    bad = _GESDD_ARGS[-info - 1] if info < 0 else None
    # dgesdd rejects a matrix with a NaN entry as a bad argument a; numpy
    # calls that, like any other failure, non-convergence
    if info > 0 or bad == "a":
        raise np.linalg.LinAlgError("SVD did not converge")
    if bad is not None:
        raise ValueError(f"LAPACKE_dgesdd_work: argument {-info} ({bad}) had "
                         f"an illegal value")


def _svd_in_place(a):
    """np.linalg.svd(a, full_matrices=False) of a Fortran-order float64
    matrix, which it overwrites: one dgesdd call with jobz='S' on a itself,
    with numpy's workspace (the optimal size from a query, 8 k integers), so
    the factors are numpy's bit for bit. U and Vt come back in Fortran
    order. Where numpy's BLAS lacks LAPACKE, np.linalg.svd runs instead."""
    if not (a.ndim == 2 and a.dtype == np.float64 and a.flags.f_contiguous
            and a.flags.writeable):
        raise ValueError("need a writeable Fortran-order float64 matrix")
    gesdd = _lapacke_gesdd()
    if gesdd is None:
        return np.linalg.svd(a, full_matrices=False)
    m, n = a.shape
    k = min(m, n)
    s, iwork = np.empty(k), np.empty(8 * k, dtype=np.int64)
    u, vt = np.empty((m, k), order="F"), np.empty((k, n), order="F")
    head = (_LAPACK_COL_MAJOR, b"S", m, n, a.ctypes.data, max(m, 1),
            s.ctypes.data, u.ctypes.data, max(m, 1), vt.ctypes.data, max(k, 1))
    query = np.empty(1)
    _gesdd_checked(gesdd(*head, query.ctypes.data, -1, iwork.ctypes.data))
    work = np.empty(max(int(query[0]), 1))
    _gesdd_checked(gesdd(*head, work.ctypes.data, work.size,
                         iwork.ctypes.data))
    return u, s, vt


def remap_spectrum(A, kappa):
    """Affine remap of the singular values onto [1/sqrt(kappa), 1].

    Affine (rather than, say, power-law) is the simplest map that hits the
    target condition number exactly while keeping the singular vectors.
    The SVD runs in one float64 Fortran-order copy of A; A is left as it is.
    """
    return _remap_owned(np.array(A, dtype=np.float64, order="F"), kappa)


def _remap_owned(a, kappa):
    """remap_spectrum of a Fortran-order float64 matrix, which it
    overwrites. The factors stay in Fortran order: the product below has
    the bits of the same product of numpy's C-order factors."""
    if kappa < 1:
        raise ValueError("condition number must be >= 1")
    with _blas_lock:
        U, s, Vt = _svd_in_place(a)
        lo, hi = 1.0 / np.sqrt(kappa), 1.0
        if s[0] == s[-1]:
            if kappa != 1.0:
                raise ValueError(
                    f"cannot realize condition number {kappa} on a matrix "
                    f"with a single distinct singular value"
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
    # the C-order draw is freed before the SVD runs in its Fortran copy
    A = _remap_owned(np.asfortranarray(rngmod.normal_matrix(gen, m, n)), kappa)
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
        A[...] = np.sqrt(Ls[k]) * _remap_owned(
            np.asfortranarray(rngmod.normal_matrix(gen, m, n)), kappa_list[k])
        with _blas_lock:
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
