import ast
import threading
from pathlib import Path

from dqgrad import _blas


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


# --- structure: only _blas touches the library --------------------------------

SRC = Path(_blas.__file__).parent


def _library_uses(path):
    """What the module at `path` does that only _blas may: the modules it
    imports of ctypes and threading, the os.sched_* it names and the
    underscore names it takes from problems."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
    assert _library_uses(SRC / "_blas.py")  # the check sees what it looks for
