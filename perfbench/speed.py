"""Host speed, measured by fixed reference loops, to scale measured times.

On a small shared host the speed of a core drifts by 20-30% over tens of
seconds, for the interpreter and for BLAS alike, and a 30-second run sees
whichever phase it lands in. Each step of a timed unit is therefore
bracketed by reference loops that never change with dqgrad: an
interpreter loop of calls, float and integer bit work (like the per-round
Python of the codec and engines), and a dense 2048x1024 matvec pair (like
`grad` at n=1024). A step's time is divided by the host's speed factor,
the mean of the factors measured just before and just after it, which
gives seconds at the nominal speed below.

The factor weighs the two loops by the share of a workload's time spent
in BLAS (`Workload.blas_share`).
"""

import time

# median time of each loop on a 2-core x86-64 VM (Python 3.11.7,
# numpy 2.4.6 with OpenBLAS 0.3.31 at one thread)
INTERP_NOMINAL_S = 0.128
BLAS_NOMINAL_S = 0.091

_MASK = (1 << 61) - 1


def _step(x, i):
    return (x * 1.000001 + i) % 1021.0


def interp_seconds():
    """Time of a fixed pure-Python loop; needs no import."""
    t0 = time.perf_counter()
    acc, x, items = 0, 0.5, []
    for i in range(240_000):
        x = _step(x, i)
        acc = ((acc << 5) | (int(x) & 31)) & _MASK
        items.append((i, x))
        if len(items) > 64:
            items.clear()
    return time.perf_counter() - t0


class HostSpeed:
    """Speed factor of the host: 1 at nominal speed, 1.2 when 20% slower."""

    def __init__(self, blas_share):
        self.blas_share = blas_share
        self._matrix = self._vector = None

    def _blas_seconds(self):
        import numpy as np  # only workloads with a BLAS share load it here

        if self._matrix is None:
            gen = np.random.default_rng(0)
            self._matrix = gen.standard_normal((2048, 1024))
            self._vector = gen.standard_normal(1024)
        a, v = self._matrix, self._vector
        t0 = time.perf_counter()
        for _ in range(60):
            v = a.T @ (a @ v)
            v = v / np.linalg.norm(v)
        return time.perf_counter() - t0

    def factor(self):
        f = (1.0 - self.blas_share) * interp_seconds() / INTERP_NOMINAL_S
        if self.blas_share:
            f += self.blas_share * self._blas_seconds() / BLAS_NOMINAL_S
        return f
