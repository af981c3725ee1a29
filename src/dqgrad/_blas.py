"""Every process-wide decision about numpy's BLAS, in one place.

numpy's bundled OpenBLAS changes the bits of builds and gradients with its
thread count from n = BLAS_THREAD_BITS_N up, and the count belongs to the
whole process: `_swap` is the one call that reads and sets it, under
`lock`, and `threads` runs a body at a count and puts the old one back.

On large aligned instances (on_two_cores) the gradient raises the count to
two for its own call, with the one-thread bits (two_thread_grad), and the
build runs its SVD on a helper thread while the calling thread solves
(concurrently). Smaller instances never touch the count and start no
thread. The raise holds the lock across its call, and so does every LAPACK
call of problems, whose bits change at two threads. The thread a raise
starts sleeps once idle for 2**THREAD_TIMEOUT cycles, not OpenBLAS's
2**28 (about 0.1 s, longer than the rest of a round): the first raise of
the process sets OPENBLAS_THREAD_TIMEOUT unless the user has, has OpenBLAS
read it again and stops its threads, and starts a fresh one that reads it
from a helper kept off the caller's CPU, whichever module loaded numpy
first. The sweep's pins (one_thread) nest: the first saves the count and
the last puts it back.

svd_in_place overwrites a Fortran-order copy of the draw through one
LAPACKE_dgesdd_work call: a process that builds a 2048 x 1024 instance
peaks at 111 MB against 151 MB through np.linalg.svd, which holds the
draw, its own copies of it and of the factors, and the workspace at once.
"""

import contextlib
import ctypes
import functools
import glob
import os
import threading
import warnings

import numpy as np

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
# OpenBLAS's raised thread sleeps once idle for 2**THREAD_TIMEOUT cycles
# (OPENBLAS_THREAD_TIMEOUT; OpenBLAS takes 4 to 30, default 28, about
# 0.1 s, through which it spins for the rest of every n = 1024 round): 4,
# at once, read cpu_s 1.1% below 14 (awake across the few us between a
# gradient's two products) in the median of 8 protocol-n1024 pairs, 6 of
# them lower, at the same wall_s
THREAD_TIMEOUT = 4
# from this n up, the BLAS thread count changes the bits of the instance
# constants and of the gradients (measured with numpy's bundled OpenBLAS)
BLAS_THREAD_BITS_N = 384
# busy processes that share this one's CPUs; a pool worker sets the size of
# its pool, so that only a worker with two CPUs of its own takes two
_pool_workers = 1
# reentrant, so that a raised gradient sets the count under its own hold
lock = threading.RLock()
# set under the lock: whether THREAD_TIMEOUT has been applied, how many
# one_thread pins are open and the count the first of them saved
_timeout_applied = False
_pins = 0
_unpinned = None


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None where numpy
    ships none; loaded once per process, for every symbol called here."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "*openblas*")))
    return ctypes.CDLL(paths[0]) if paths else None


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, as ctypes
    functions, or None when no such library or symbol is found; looked up
    once per process."""
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


def _swap(count):
    """Set numpy's BLAS to `count` threads, under the lock; the old count,
    or None when the count cannot be set."""
    calls = _blas_threads()
    if calls is None:
        return None
    get, set_ = calls
    with lock:
        old = get()
        set_(count)
    return old


@contextlib.contextmanager
def threads(count):
    """numpy's BLAS at `count` threads inside, the old count after; yields
    whether it could be set. The body runs without the lock."""
    old = _swap(count)
    try:
        yield old is not None
    finally:
        if old is not None:
            _swap(old)


@contextlib.contextmanager
def one_thread(n):
    """One BLAS thread inside, the old count after, so that a sweep's bytes
    do not depend on the count; warns from n = BLAS_THREAD_BITS_N up when
    the count cannot be set. A gated gradient inside still raises it. Pins
    that overlap, as concurrent sweeps on two threads do, share one: the
    first saves the old count and the last to leave puts it back."""
    global _pins, _unpinned
    with lock:
        if _pins == 0:
            _unpinned = _swap(1)
        _pins += 1
        pinned = _unpinned is not None
    try:
        if not pinned and n >= BLAS_THREAD_BITS_N:
            warnings.warn(f"cannot pin numpy's BLAS to one thread; at n = {n} "
                          f"the sweep's bytes may depend on the BLAS thread "
                          f"count", RuntimeWarning, stacklevel=3)
        yield
    finally:
        with lock:
            _pins -= 1
            if _pins == 0 and _unpinned is not None:
                _swap(_unpinned)


def pin_pool_worker(workers):
    """Pool initializer: one BLAS thread in this worker, one of `workers`
    busy ones, so that a gated gradient raises the count only where each has
    two CPUs (two workers on two CPUs that each took two threads ran a
    four-trial n = 1024 sweep in 15-21 s, against 9-10 s on one each)."""
    global _pool_workers
    _pool_workers = workers
    _swap(1)


def on_two_cores(A):
    """True when work on A shares a second core: A is a float64 C-order
    matrix of at least GRAD_SPLIT_MIN entries and GRAD_SPLIT_MIN_COLS
    columns, both sides multiples of GRAD_SPLIT_ALIGN, the process has two
    CPUs to itself and numpy's BLAS runs one thread. The one gate of the
    two-thread gradient and the overlapped build."""
    m, n = A.shape
    if not (n >= GRAD_SPLIT_MIN_COLS and A.size >= GRAD_SPLIT_MIN
            and m % GRAD_SPLIT_ALIGN == 0 and n % GRAD_SPLIT_ALIGN == 0
            and A.dtype == np.float64 and A.flags.c_contiguous
            and cpu_count() >= 2 * _pool_workers):
        return False
    calls = _blas_threads()
    return calls is not None and calls[0]() == 1


def two_thread_grad(A, y, x):
    """A.T @ (A @ x - y) with numpy's BLAS raised to two threads, the old
    count back after. OpenBLAS's own thread sets no floating-point flag of
    this one, so the raised call ignores them, and a result that is not
    finite (as an overflow or invalid operation leaves it) is computed again
    on one thread under the caller's np.errstate, which reports what the
    flat call reports; so is every call of a caller who watches underflow."""
    if np.geterr()["under"] == "ignore":
        with lock, np.errstate(all="ignore"):
            if not _timeout_applied:
                _apply_thread_timeout()
            with threads(2):
                g = A.T @ (A @ x - y)
        if np.isfinite(g).all():
            return g
    return A.T @ (A @ x - y)


def _apply_thread_timeout():
    """Once per process, under the lock, before the first raise: set
    OPENBLAS_THREAD_TIMEOUT to THREAD_TIMEOUT unless the user has, have
    OpenBLAS read its variables again, stop its threads (its own fork
    handler) and start a fresh one, which sleeps when idle. Nothing changes
    where the library lacks either call."""
    global _timeout_applied
    _timeout_applied = True
    lib = _openblas()
    read_env = getattr(lib, "openblas_read_env", None)
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    if read_env is None or shutdown is None:
        return
    read_env.restype, read_env.argtypes = None, []
    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(THREAD_TIMEOUT))
    read_env()
    shutdown()
    # OpenBLAS starts its fresh thread at the next count it is given, with
    # the CPUs of the thread that gives it; a helper kept off this CPU gives
    # it (this thread holds the lock). A sleeping thread left to the
    # scheduler was often woken onto the CPU of its caller, who spins there
    # waiting for it: on the 2-core VM 2 of 19 protocol-n1024 runs read
    # wall_s 4.2-4.3 s against about 2 s, with cpu_s = wall_s
    get, set_ = _blas_threads()
    old = get()
    concurrently(lambda: set_(2), lambda: None)
    set_(old)


def concurrently(first, second):
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
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@functools.cache
def cpu_count():
    """How many CPUs this process may run on."""
    return len(_allowed_cpus()) or os.cpu_count() or 1


def _current_cpu():
    """The CPU the calling thread runs on (glibc's sched_getcpu), or None."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None
    getcpu.restype, getcpu.argtypes = ctypes.c_int, []
    cpu = getcpu()
    return cpu if cpu >= 0 else None


def _lapacke_gesdd():
    """LAPACKE_dgesdd_work of numpy's OpenBLAS (64-bit integers) as a ctypes
    function, or None where the library does not export it."""
    gesdd = getattr(_openblas(), "scipy_LAPACKE_dgesdd_work64_", None)
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


def svd_in_place(a):
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
