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
import sys
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

    def leading(self, t):
        if self.scheme == "dq-gd":
            return self.sigma**t * self.L * self.D
        if self.scheme == "dq-agd":
            return self.sigma**t * self.L * self.D * self.lam
        if self.scheme == "dq-hb":
            sub = max(t, 1) ** self.alpha * math.e**self.alpha
            return self.sigma**t * sub * math.sqrt(2.0) * self.L * self.D
        return self.sigma**t * self.L * self.D  # nq-gd

    def next(self, t, r_prev, r_prev2):
        """r_t given r_{t-1}, r_{t-2} (zeros before the start)."""
        if self.scheme == "dq-gd":
            return self.L * self.D if t == 0 else self.leading(t) + self.eps * r_prev
        if self.scheme == "nq-gd":
            return self.leading(t)
        feedback = r_prev + self.gamma * (r_prev + r_prev2)
        return self.leading(t) + self.eps * feedback

    def settled(self, t, r_prev, r_prev2):
        """True only if next() returns r = r_prev at t and at every later t.

        Three tests, in floating point. The recursion is at a fixed point:
        r_{t-1} == r_{t-2} == r and c = fl(eps * feedback(r, r)) == r. The
        leading term is absorbed with a factor-2 margin, c + 2*lead(t) == c,
        because pow is faithfully rounded but not guaranteed to be
        monotone. And the leading term can only shrink from t on:
        sigma <= 1, and for the heavy ball with alpha > 0, t is past the
        peak alpha / ln(1/sigma) of t**alpha * sigma**t. sigma**t must also
        still be a normal float (or sigma = 0), so that its rounding error
        stays relative. Every later lead(t') then stays below 2*lead(t), and
        rounding is monotone, so c + lead(t') == c == r.
        With eps < 1 a range stands still only once it has collapsed into
        the subnormals (or grown to inf); the naive ranges have no feedback
        and never settle.
        """
        if self.scheme == "nq-gd" or t < 2 or r_prev != r_prev2:
            return False
        if self.scheme == "dq-gd":
            c = self.eps * r_prev
        else:
            c = self.eps * (r_prev + self.gamma * (r_prev + r_prev2))
        if c != r_prev or not self.sigma <= 1.0:
            return False
        if self.sigma != 0.0 and not self.sigma**t >= sys.float_info.min:
            return False
        if self.scheme == "dq-hb" and self.alpha > 0.0 and not (
                self.sigma == 0.0 or t * -math.log(self.sigma) >= self.alpha):
            return False
        return c + 2.0 * self.leading(t) == c


class ScheduleCursor:
    """Stateful unroll of a RangeSchedule, one instance per channel end."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.t = 0
        self._r1 = 0.0
        self._r2 = 0.0

    def step(self):
        r = self.schedule.next(self.t, self._r1, self._r2)
        self._r2, self._r1 = self._r1, r
        self.t += 1
        return r

    def settled(self):
        """True once every later step() returns the last range again."""
        # the naive rows of one cursor step as a column, and settled() tests
        # for the naive scheme before it compares any ranges
        return self.schedule.settled(self.t, self._r1, self._r2)


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

    Bisects on the water level nu until the allocated rates sum to
    R_total; the map nu -> sum is continuous and strictly decreasing
    wherever positive, so the solution is unique. Returns (nu, rates).
    """
    L = [float(v) for v in L_list]
    if not all(0 < v < math.inf for v in L):
        raise ValueError("smoothness constants must be finite and positive")
    if not 0 <= R_total < math.inf:
        raise ValueError("sum rate must be finite and nonnegative")
    if R_total == 0:
        return max(L), [0.0] * len(L)

    def allocated(nu):
        return sum(max(0.0, math.log2(v / nu)) for v in L)

    hi = max(L)
    lo = hi * 2.0 ** (-R_total)  # single-worker budget lower-bounds nu
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)  # geometric: the constraint is log-linear
        if allocated(mid) > R_total:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    nu = math.sqrt(lo * hi)
    rates = [max(0.0, math.log2(v / nu)) for v in L]
    return nu, rates


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
