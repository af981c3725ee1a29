"""Least-squares objective constructors.

All objectives are f(x) = 0.5 * ||A x - y||^2 with m >= n and full column
rank, so L = sigma_1(A)^2, mu = sigma_n(A)^2, and the gradient is
A^T (A x - y). Gaussian ensembles get their singular values remapped
affinely onto [1/sqrt(kappa), 1] so the condition number is exact and
L = 1; the worst-case instance aligns the start-to-optimizer direction
with the singular vector that GD contracts most slowly. The thread count,
the in-place SVD and the overlapped build are _blas's.
"""

from dataclasses import dataclass

import numpy as np

from . import _blas, rng as rngmod


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
        if (_blas.on_two_cores(A) and type(x) is np.ndarray
                and x.dtype == np.float64 and x.shape == A.shape[1:]
                and x.flags.c_contiguous):
            return _blas.two_thread_grad(A, y, x)
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
        with _blas.lock:
            if _blas.on_two_cores(self.A):
                (L, mu), x_star = _blas.concurrently(self.spectrum_bounds,
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
    with _blas.lock:
        U, s, Vt = _blas.svd_in_place(a)
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
    tight ones. stack holds the K local problems as one LeastSquaresStack,
    and the naive workers take their K gradients from it in one call; K > 1
    needs it, and it is checked against the local oracles at x0. One local
    objective (K = 1) needs none: its one worker calls its oracle.
    """

    locals_: tuple
    x_star: np.ndarray
    x0: np.ndarray
    stack: LeastSquaresStack | None = None

    def __post_init__(self):
        if self.stack is None:
            if self.K > 1:
                raise ValueError(f"{self.K} local objectives need their "
                                 f"stack, a LeastSquaresStack")
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
        with _blas.lock:
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
