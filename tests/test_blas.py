import ast
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from dqgrad import _blas
from dqgrad.problems import LeastSquares
from dqgrad.rng import make_rng

SRC = Path(_blas.__file__).parent


def test_a_pin_reads_the_count_only_once_a_raised_gradient_is_done(
        monkeypatch):
    # a gated gradient holds the lock while the count is raised to two; a
    # sweep's pin entered on another thread meanwhile must not save that 2
    # as the count to put back, or every later BLAS call runs on two threads.
    # The count is a fake one, which records whether the lock was held when
    # it was read
    count, held, reads_while_held, put_back = [2], [True], [], []

    def read():
        reads_while_held.append(held[0])
        return count[0]

    def sweep():
        with _blas.threads(1):
            pass
        put_back.append(count[0])

    monkeypatch.setattr(_blas, "_blas_threads",
                        lambda: (read, lambda k: count.__setitem__(0, k)))
    with _blas.lock:  # as the raised gradient holds it
        pin = threading.Thread(target=sweep)
        pin.start()
        pin.join(timeout=0.2)  # the pin waits for the lock meanwhile
        count[0] = 1  # the gradient puts its old count back
        held[0] = False
    pin.join(timeout=60)
    assert not pin.is_alive()
    assert reads_while_held == [False, False]
    assert put_back == [1]


def test_overlapping_pins_put_the_original_count_back_after_both(monkeypatch):
    # two sweeps on two threads: A in, B in, A out, B out. B runs on one
    # thread to its end, and the count both found is back after both
    count, during_b = [4], []
    monkeypatch.setattr(_blas, "_blas_threads",
                        lambda: (lambda: count[0],
                                 lambda k: count.__setitem__(0, k)))
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def sweep_a():
        with _blas.one_thread(16):
            a_in.set()
            b_in.wait(timeout=60)
        a_out.set()

    def sweep_b():
        a_in.wait(timeout=60)
        with _blas.one_thread(16):
            b_in.set()
            a_out.wait(timeout=60)
            during_b.append(count[0])

    sweeps = [threading.Thread(target=f) for f in (sweep_a, sweep_b)]
    for sweep in sweeps:
        sweep.start()
    for sweep in sweeps:
        sweep.join(timeout=60)
    assert not any(sweep.is_alive() for sweep in sweeps)
    assert during_b == [1]
    assert count == [4]


# --- OpenBLAS's raised thread sleeps when idle --------------------------------


def test_openblass_raised_thread_sleeps_between_gradients():
    # at OpenBLAS's own timeout (2**28 cycles) the raised thread spun
    # through a 0.3 s sleep after the gradients for 0.12 s of CPU
    gen = make_rng(5)
    A, y = gen.standard_normal((2048, 1024)), gen.standard_normal(2048)
    x = gen.standard_normal(1024)
    ls = LeastSquares(A, y)  # raw: no SVD
    with _blas.threads(1):
        if not _blas.on_two_cores(A):
            pytest.skip("the two-thread gradient is gated off here")
        for _ in range(20):
            ls.grad(x)
        before = time.process_time()
        time.sleep(0.3)
        spent = time.process_time() - before
    assert spent < 0.03


_TIMEOUT_READ = """
import ctypes
import os
import threading
import numpy as np
from dqgrad import _blas, problems
_blas.GRAD_SPLIT_MIN = _blas.GRAD_SPLIT_MIN_COLS = 0
_blas.cpu_count = lambda: 2
two_threads, ran = _blas.two_thread_grad, []
_blas.two_thread_grad = lambda *args: ran.append(1) or two_threads(*args)
gen = np.random.default_rng(3)
A, y = gen.standard_normal((512, 256)), gen.standard_normal(512)
problems.LeastSquares(A, y).grad(gen.standard_normal(256))
timeout = _blas._openblas().openblas_thread_timeout
timeout.restype, timeout.argtypes = ctypes.c_int, []
main, sizes = threading.get_native_id(), set()
for tid in os.listdir("/proc/self/task"):
    try:  # the CPUs of OpenBLAS's thread, and of the helper if still exiting
        if int(tid) != main:
            sizes.add(len(os.sched_getaffinity(int(tid))))
    except ProcessLookupError:
        pass
print(len(ran), timeout(), *sizes)
"""


@pytest.mark.parametrize("users", [None, "20"])
def test_the_raise_sets_the_timeout_unless_the_user_has(users):
    # and starts OpenBLAS's one thread off the CPU of the caller, who would
    # otherwise wake it onto that CPU and spin there while it waits
    lib = _blas._openblas()
    if (_blas._blas_threads() is None
            or getattr(lib, "openblas_thread_timeout", None) is None
            or not os.path.isdir("/proc/self/task")):
        pytest.skip("numpy's OpenBLAS cannot be raised or asked here")
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC.parent))
    if users is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = users
    done = subprocess.run([sys.executable, "-c", _TIMEOUT_READ], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    cpus = len(_blas._allowed_cpus())
    assert done.stdout.split() == [
        "1", str(int(users or _blas.THREAD_TIMEOUT)), str(max(cpus - 1, 1))]


# --- structure: only _blas touches the library --------------------------------


OPENBLAS_REINIT = ("openblas_read_env", "blas_thread_shutdown_")


def _is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def _is_os_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and _is_name(node.value, "os"))


def _library_uses(path):
    return _library_uses_of(path.read_text(encoding="utf-8"))


def _library_uses_of(source):
    """What the module `source` does that only _blas may: the modules it
    imports of ctypes and threading, the os.sched_* it names, the
    underscore names it takes from problems, what it writes to the
    environment and the OpenBLAS re-init calls it names."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            uses += ["os.environ[]" for target in targets
                     if isinstance(target, ast.Subscript)
                     and _is_os_environ(target.value)]
        elif isinstance(node, ast.Attribute):
            if node.attr == "setdefault" and _is_os_environ(node.value):
                uses.append("os.environ.setdefault")
            if node.attr == "putenv" and _is_name(node.value, "os"):
                uses.append("os.putenv")
        names = [getattr(node, key, None) for key in ("id", "attr", "value")]
        uses += [name for name in names if name in OPENBLAS_REINIT]
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names
                     if a.name.split(".")[0] in ("ctypes", "threading")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in ("ctypes", "threading"):
                uses.append(module)
            if module.split(".")[-1] == "problems":
                uses += [f"problems.{a.name}" for a in node.names
                         if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value,
                                                            ast.Name):
            if node.value.id == "os" and node.attr.startswith("sched_"):
                uses.append(f"os.{node.attr}")
            if node.value.id == "problems" and node.attr.startswith("_"):
                uses.append(f"problems.{node.attr}")
    return uses


def test_no_module_but_blas_touches_the_library():
    uses = {path.name: _library_uses(path) for path in sorted(SRC.glob("*.py"))
            if path.name != "_blas.py"}
    assert {"problems.py", "harness.py", "selfcheck.py"} <= set(uses)
    assert {name: found for name, found in uses.items() if found} == {}
    # the check sees what it looks for
    assert {"ctypes", "os.environ.setdefault", *OPENBLAS_REINIT} <= set(
        _library_uses(SRC / "_blas.py"))
    probe = ("os.environ['X'] = '1'\nos.environ['X'] += '1'\n"
             "os.putenv('X', '1')\n")
    assert _library_uses_of(probe) == ["os.environ[]", "os.environ[]",
                                       "os.putenv"]
