"""Iteration engines: unquantized GD/AGD/HB and their quantized versions.

Every method has one update rule, `step`, fed with grad(x_t) when
unquantized and with the decoded q_t on a quantized server.

Quantized engines are split into a worker half (owns the gradient oracle
and the error memory) and a server half (owns the iterates); the two
halves exchange data only through a transport channel, and each evaluates
the public dynamic-range schedule on its own. Servers never see gradients
or quantization errors, workers never see the optimizer.

The worker compensates past quantization errors so that it always
evaluates the gradient on the unquantized method's trajectory; the exact
bookkeeping per algorithm:

  dq-gd   z = x + eta*e1,                     u = grad(z) - e1
  dq-agd  c = e1 + gamma*(e1 - e2),
          z = x + eta*c,                      u = grad(z) - c
  dq-hb   c = e1 + gamma*(e1 - e2),
          z = x + eta*e1,                     u = grad(z) - c
  nq-gd   u = grad(x)                         (no compensation)

e1, e2 are the last two quantization errors (zero-initialized). The
containment invariant ||u_t|| <= r_t is asserted each round with a small
relative slack for float roundoff; schedules whose guarantee is only
empirical can run with containment="record" instead. Hot path: that norm and
the harness's distances are math.sqrt(u @ u), bit-equal to np.linalg.norm.
"""

import dataclasses
import math

import numpy as np

from .quantizer import QuantizerSpec, reconstruct
from .schedules import ScheduleCursor

# absorbs roundoff in the containment check; the underlying inequality is
# exact in real arithmetic and can be tight on adversarial instances
CONTAINMENT_RTOL = 1e-9


class ScheduleViolationError(Exception):
    """Quantizer input escaped its scheduled dynamic range.

    For the gd/agd schedules (and hb with an adequate subexponential
    exponent) this must never fire; it indicates a schedule or engine bug.
    """

    def __init__(self, t, u_norm, r):
        super().__init__(f"at t={t}: ||u||={u_norm!r} exceeds scheduled range {r!r}")
        self.t = t
        self.u_norm = u_norm
        self.r = r


# ---------------------------------------------------------------------------
# update rules


def initial_state(algo, x0):
    """State at t = 0: (x,) for gd, (x, y) for agd, (x, x_prev) for hb."""
    if algo == "gd":
        return (np.array(x0, dtype=np.float64),)
    if algo in ("agd", "hb"):
        return (np.array(x0, dtype=np.float64), np.array(x0, dtype=np.float64))
    raise ValueError(f"unknown algorithm {algo!r}")


def step(algo, state, direction, hp):
    """One textbook update; direction is grad(x) or the decoded q_t."""
    if algo == "gd":
        (x,) = state
        return (x - hp.eta * direction,)
    if algo == "agd":
        x, y = state
        y_new = x - hp.eta * direction
        return (y_new + hp.gamma * (y_new - y), y_new)
    if algo == "hb":
        x, x_prev = state
        return (x - hp.eta * direction + hp.gamma * (x - x_prev), x)
    raise ValueError(f"unknown algorithm {algo!r}")


# ---------------------------------------------------------------------------
# codecs (worker-side encode, server-side decode)


class BitCoder:
    """Scalar-uniform quantization to/from exactly n*R payload bits."""

    def __init__(self, spec, saturate=False):
        self.spec = spec
        self.saturate = saturate

    def encode(self, t, r, u):
        return self.spec.scaled(r, self.saturate).quantize_payload(t, u)

    def decode(self, t, r, indices):
        return reconstruct(self.spec, r, indices)


# ---------------------------------------------------------------------------
# worker halves


class _WorkerBase:
    def __init__(self, grad, hp, schedule, coder, containment="strict"):
        self.grad = grad
        self.hp = hp
        self.cursor = ScheduleCursor(schedule)
        self.coder = coder
        self.containment = containment
        self.n = None
        self.e1 = None
        self.e2 = None
        self.last_r = None
        self.last_u_norm = None
        self.violations = []

    def _ensure_state(self, n):
        if self.e1 is None:
            self.n = n
            self.e1 = np.zeros(n)
            self.e2 = np.zeros(n)

    def _check_containment(self, t, u, r):
        u_norm = math.sqrt(u @ u)
        self.last_u_norm = u_norm
        self.last_r = r
        if not u_norm <= r * (1.0 + CONTAINMENT_RTOL):  # a NaN norm violates
            if self.containment == "strict":
                raise ScheduleViolationError(t, u_norm, r)
            self.violations.append(t)

    def quantizer_input(self, t, x):
        raise NotImplementedError

    def round(self, channel):
        t, x = channel.recv_iterate()
        self._ensure_state(x.shape[0])
        r = self.cursor.step()
        u = self.quantizer_input(t, x)
        self._check_containment(t, u, r)
        wire, recon = self.coder.encode(t, r, u)
        self.e2, self.e1 = self.e1, recon - u
        channel.send_payload(wire)


class DQGDWorker(_WorkerBase):
    def quantizer_input(self, t, x):
        z = x + self.hp.eta * self.e1
        return self.grad(z) - self.e1


class DQAGDWorker(_WorkerBase):
    def quantizer_input(self, t, x):
        c = self.e1 + self.hp.gamma * (self.e1 - self.e2)
        z = x + self.hp.eta * c
        return self.grad(z) - c


class DQHBWorker(_WorkerBase):
    # same quantizer input as the accelerated variant, but the gradient
    # point compensates only the last error
    def quantizer_input(self, t, x):
        c = self.e1 + self.hp.gamma * (self.e1 - self.e2)
        z = x + self.hp.eta * self.e1
        return self.grad(z) - c


class NQGDWorker(_WorkerBase):
    def quantizer_input(self, t, x):
        return self.grad(x)


# ---------------------------------------------------------------------------
# server halves


class _ServerBase:
    """Owns the iterates of one method and steps on the decoded direction.

    With K workers the K decoded directions are summed and the stepsize is
    eta/K (naive quantization averages them); K = 1 is the DQ server.
    """

    def __init__(self, algo, x0, hp, schedules, coders):
        self.algo = algo
        self.state = initial_state(algo, x0)
        self.hp = dataclasses.replace(hp, eta=hp.eta / len(coders))
        self.cursors = [ScheduleCursor(s) for s in schedules]
        self.coders = coders
        self.t = 0

    @property
    def x(self):
        return self.state[0]

    def broadcast(self, channels):
        for ch in channels:
            ch.send_iterate(self.t, self.x)

    def collect(self, channels):
        direction = None
        for ch, cursor, coder in zip(channels, self.cursors, self.coders):
            r = cursor.step()
            q = coder.decode(self.t, r, ch.recv_payload_bits())
            direction = q if direction is None else direction + q
        self.state = step(self.algo, self.state, direction, self.hp)
        self.t += 1


def run_protocol(server, workers, channels, steps, on_iteration=None, stop=None):
    """Strictly alternating rounds; returns the number of rounds run."""
    for t in range(steps):
        server.broadcast(channels)
        for w, ch in zip(workers, channels):
            w.round(ch)
        server.collect(channels)
        if on_iteration is not None:
            on_iteration(t, server, workers)
        if stop is not None and stop(t, server):
            return t + 1
    return steps


# ---------------------------------------------------------------------------
# assembly helpers

# worker class and server update rule of each DQ method
_DQ_PAIRS = {
    "dq-gd": (DQGDWorker, "gd"),
    "dq-agd": (DQAGDWorker, "agd"),
    "dq-hb": (DQHBWorker, "hb"),
}


def build_dq_engine(algo, objective, hp, schedule, R, containment="strict",
                    saturate=False):
    """Wire up one single-worker DQ engine over a bit-exact channel.

    Both halves get their own schedule cursor and coder so nothing is
    shared beyond public constants.
    """
    from .transport import Channel

    worker_cls, rule = _DQ_PAIRS[algo]
    n = objective.n
    spec = QuantizerSpec(n, R)
    worker = worker_cls(objective.grad, hp, schedule, BitCoder(spec, saturate),
                        containment)
    server = _ServerBase(rule, objective.x0, hp, [schedule],
                         [BitCoder(spec, saturate)])
    return worker, server, Channel(n, R)


def build_nq_engine(problem, hp, sigma_nq, rates):
    """K-worker naive quantization; rates is one integer per worker.

    Containment is provable for the naive schedule, so every worker is strict.
    """
    from .bounds import default_rho
    from .schedules import RangeSchedule
    from .transport import Channel

    n = problem.x0.shape[0]
    workers, channels, schedules, coders = [], [], [], []
    for obj, R_k in zip(problem.locals_, rates):
        sched = RangeSchedule(
            scheme="nq-gd", L=obj.L, D=problem.D, sigma=sigma_nq,
            rho=default_rho(n), R=R_k,
        )
        spec = QuantizerSpec(n, R_k)
        workers.append(NQGDWorker(obj.grad, hp, sched, BitCoder(spec)))
        channels.append(Channel(n, R_k))
        schedules.append(sched)
        coders.append(BitCoder(spec))
    server = _ServerBase("gd", problem.x0, hp, schedules, coders)
    return workers, server, channels
