"""Dynamic-range schedules and sum-rate waterfilling.

Each quantized engine shrinks its quantizer's dynamic range along a
recursion that both channel ends evaluate from public constants only
(L, D, sigma, gamma, lambda, rho_n, R, alpha), so the ranges are never
transmitted. With eps = rho_n * 2**-R:

  dq-gd   r_0 = L*D,  r_t = sigma**t * L*D + eps * r_{t-1}
  dq-agd  r_{-1} = r_{-2} = 0,
          r_t = sigma**t * L*D*lambda + eps * (r_{t-1} + gamma*(r_{t-1} + r_{t-2}))
  dq-hb   r_{-1} = r_{-2} = 0,
          r_t = sigma**t * max(t,1)**alpha * e**alpha * sqrt(2) * L*D
                + eps * (r_{t-1} + gamma*(r_{t-1} + r_{t-2}))
  nq-gd   r_t = sigma_nq**t * L_k * D   (per worker k)

The heavy-ball leading term uses max(t,1)**alpha so the t = 0 range is
nonzero for alpha > 0; alpha itself is the existential constant from the
joint-spectral-radius bound and is exposed as a parameter (0 reproduces
the experimental setting, which loses the containment guarantee).

Rows. The K naive workers share sigma_nq and D, so their K recursions
are one (naive_rows): L becomes the (K, 1) column of the L_k, and one
cursor step gives the column of every worker's range, each element
(sigma**t * L_k) * D, the IEEE operations of its own scalar recursion, so
bit for bit its range; sigma**t stays one scalar. Every other
schedule, and a single naive worker, steps a float.
"""

import dataclasses
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

SCHEMES = ("dq-gd", "dq-agd", "dq-hb", "nq-gd")


@dataclass(frozen=True)
class RangeSchedule:
    """Constants defining one range recursion; evaluation is stateless.

    L is a float, or for the naive rows of naive_rows a (K, 1) column.
    """

    scheme: str
    L: float
    D: float
    sigma: float
    gamma: float = 0.0
    rho: float = 1.0
    R: int = 1
    lam: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @functools.cached_property
    def eps(self):
        """Per-unit-range covering radius rho_n * 2**-R."""
        return self.rho * 2.0 ** (-self.R)

    @functools.cached_property
    def next(self):
        """next(t, r_{t-1}, r_{t-2}) is r_t (zeros before the start): one call
        of the scheme's recursion, bound to its constants once."""
        if self.scheme == "dq-hb":
            return functools.partial(_dq_hb, self.sigma, self.alpha,
                                     math.e**self.alpha, math.sqrt(2.0),
                                     self.L, self.D, self.eps, self.gamma)
        if self.scheme == "dq-agd":
            return functools.partial(_dq_agd, self.sigma, self.L, self.D,
                                     self.lam, self.eps, self.gamma)
        step = _dq_gd if self.scheme == "dq-gd" else _nq_gd
        return functools.partial(step, self.sigma, self.L, self.D, self.eps)


class ScheduleCursor:
    """Stateful unroll of a RangeSchedule, one instance per channel end.

    r1 and r2 are the last two ranges, r_{t-1} and r_{t-2} (zeros before
    the start)."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.t = 0
        self.r1 = 0.0
        self.r2 = 0.0
        self._next = schedule.next

    def step(self):
        r = self._next(self.t, self.r1, self.r2)
        self.r2, self.r1 = self.r1, r
        self.t += 1
        return r

    def step_to(self, r):
        """Step, and return True, only if the next range has the bits of the
        float r; else return False and leave the cursor as it was."""
        nxt = self._next(self.t, self.r1, self.r2)
        # == tells the bits apart but for the signs of zeros, and NaN
        if (nxt != r or nxt == 0.0) and _float_bits(nxt) != _float_bits(r):
            return False
        self.r2, self.r1 = self.r1, nxt
        self.t += 1
        return True


_float_bits = struct.Struct("<d").pack


def _dq_gd(sigma, L, D, eps, t, r1, r2):
    return sigma**t * L * D + eps * r1 if t else L * D


def _nq_gd(sigma, L, D, eps, t, r1, r2):
    return sigma**t * L * D


def _dq_agd(sigma, L, D, lam, eps, gamma, t, r1, r2):
    return sigma**t * L * D * lam + eps * (r1 + gamma * (r1 + r2))


def _dq_hb(sigma, alpha, e_alpha, sqrt2, L, D, eps, gamma, t, r1, r2):
    return (sigma**t * (max(t, 1) ** alpha * e_alpha) * sqrt2 * L * D
            + eps * (r1 + gamma * (r1 + r2)))


def naive_rows(schedules):
    """The K naive schedules as one, whose L is the read-only (K, 1) column
    of their L_k: its next(t) is the column of their ranges, each
    (sigma**t * L_k) * D as in its own schedule, bit for bit. They must
    share sigma and D; R and rho, which the naive recursion never reads,
    are the first schedule's."""
    first = schedules[0]
    for s in schedules:
        if s.scheme != "nq-gd" or (s.sigma, s.D) != (first.sigma, first.D):
            raise ValueError("rows of one cursor must be naive schedules "
                             "with one sigma and one D")
    column = np.array([[s.L] for s in schedules], dtype=np.float64)
    column.flags.writeable = False
    return dataclasses.replace(first, L=column)


def waterfill(L_list, R_total, tol=1e-12, max_iter=200):
    """Sum-rate allocation R_k = max(0, log2(L_k / nu)).

    Bisects on the water level's exponent e = log2(nu) until the allocated
    rates sum to R_total; the map e -> sum is continuous and strictly
    decreasing wherever positive, so the solution is unique. The exponent
    stays finite at any finite R_total, where nu itself may underflow to
    0. Returns (nu, rates).
    """
    L = [float(v) for v in L_list]
    if not all(0 < v < math.inf for v in L):
        raise ValueError("smoothness constants must be finite and positive")
    if not 0 <= R_total < math.inf:
        raise ValueError("sum rate must be finite and nonnegative")
    if R_total == 0:
        return max(L), [0.0] * len(L)
    logs = [math.log2(v) for v in L]

    def allocated(e):
        return sum(max(0.0, v - e) for v in logs)

    hi = max(logs)
    lo = hi - R_total  # single-worker budget lower-bounds e
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if allocated(mid) > R_total:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    e = 0.5 * (lo + hi)
    return 2.0 ** e, [max(0.0, v - e) for v in logs]


def waterfill_bits(L_list, R_total_bits):
    """Integer-rate variant for running the multi-worker engine.

    Greedily gives each of the R_total_bits per-dimension bits to the
    worker with the largest current L_k * 2**-R_k; for the separable
    convex objective sum L_k * 2**-R_k this greedy exchange is optimal.
    """
    L = [float(v) for v in L_list]
    rates = [0] * len(L)
    for _ in range(int(R_total_bits)):
        k = max(range(len(L)), key=lambda i: L[i] * 2.0 ** (-rates[i]))
        rates[k] += 1
    return rates
