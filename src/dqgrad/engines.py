"""Iteration engines: unquantized GD/AGD/HB and their quantized versions.

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
# unquantized references


def gd_iterates(grad, x0, eta):
    x = np.array(x0, dtype=np.float64)
    while True:
        x = x - eta * grad(x)
        yield x


def gd_varying_iterates(grad, x0, etas):
    x = np.array(x0, dtype=np.float64)
    t = 0
    while True:
        x = x - etas(t) * grad(x)
        t += 1
        yield x


def agd_iterates(grad, x0, eta, gamma):
    """Yields (x_t, y_t) for t = 1, 2, ...; starts at y_0 = x_0."""
    x = np.array(x0, dtype=np.float64)
    y = np.array(x0, dtype=np.float64)
    while True:
        y_new = x - eta * grad(x)
        x = y_new + gamma * (y_new - y)
        y = y_new
        yield x, y


def hb_iterates(grad, x0, eta, gamma):
    x = np.array(x0, dtype=np.float64)
    x_prev = np.array(x0, dtype=np.float64)
    while True:
        x_new = x - eta * grad(x) + gamma * (x - x_prev)
        x_prev, x = x, x_new
        yield x


def step_unquantized(algo, state, grad, hp):
    """One textbook update; state is (x,), (x, y), or (x, x_prev)."""
    if algo == "gd":
        (x,) = state
        return (x - hp.eta * grad(x),)
    if algo == "agd":
        x, y = state
        y_new = x - hp.eta * grad(x)
        return (y_new + hp.gamma * (y_new - y), y_new)
    if algo == "hb":
        x, x_prev = state
        return (x - hp.eta * grad(x) + hp.gamma * (x - x_prev), x)
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


class ExactCoder:
    """Zero-error stand-in for rate = infinity runs (tests and baselines).

    The wire object is the float vector itself, so this only works over a
    loopback channel; reconstruction equals the input bitwise and the
    stored error stays exactly zero.
    """

    def encode(self, t, r, u):
        return u.copy(), u.copy()

    def decode(self, t, r, wire):
        return wire


class LoopbackChannel:
    """Channel double that carries arbitrary objects; no bit accounting."""

    def __init__(self):
        self._down = []
        self._up = []

    def send_iterate(self, iteration, x):
        self._down.append((iteration, np.array(x)))

    def recv_iterate(self):
        return self._down.pop(0)

    def send_payload(self, obj):
        self._up.append(obj)

    def recv_payload_bits(self):
        return self._up.pop(0)


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


class DQGDVaryingWorker(_WorkerBase):
    """Varying-stepsize variant; the range sequence is caller-supplied.

    etas maps t -> eta_t; the t = 0 compensation ratio eta_{-1}/eta_0 is 0
    by the 0/0 := 0 convention (there is no error to compensate yet).
    """

    def __init__(self, grad, etas, ranges, coder, containment="strict"):
        super().__init__(grad, None, _CallableSchedule(ranges), coder, containment)
        self.etas = etas

    def quantizer_input(self, t, x):
        eta_prev = 0.0 if t == 0 else self.etas(t - 1)
        ratio = 0.0 if t == 0 else eta_prev / self.etas(t)
        z = x + eta_prev * self.e1
        return self.grad(z) - ratio * self.e1


class NQGDWorker(_WorkerBase):
    def quantizer_input(self, t, x):
        return self.grad(x)


class _CallableSchedule:
    """Adapts a t -> r_t callable to the ScheduleCursor interface."""

    def __init__(self, fn):
        self._fn = fn

    def next(self, t, r_prev, r_prev2):
        return self._fn(t)


# ---------------------------------------------------------------------------
# server halves


class _ServerBase:
    def __init__(self, x0, hp, schedule, coder):
        self.x = np.array(x0, dtype=np.float64)
        self.hp = hp
        self.cursors = None
        self._schedules = schedule if isinstance(schedule, (list, tuple)) else [schedule]
        self.coder = coder
        self.t = 0

    def _ensure_cursors(self):
        if self.cursors is None:
            self.cursors = [ScheduleCursor(s) for s in self._schedules]

    def broadcast(self, channels):
        for ch in channels:
            ch.send_iterate(self.t, self.x)

    def collect(self, channels):
        self._ensure_cursors()
        qs = []
        for ch, cursor, coder in zip(channels, self.cursors, self._coders()):
            r = cursor.step()
            wire = ch.recv_payload_bits()
            qs.append(coder.decode(self.t, r, wire))
        self.apply(qs)
        self.t += 1

    def _coders(self):
        return self.coder if isinstance(self.coder, (list, tuple)) else [self.coder]

    def apply(self, qs):
        raise NotImplementedError


class DQGDServer(_ServerBase):
    def apply(self, qs):
        self.x = self.x - self.hp.eta * qs[0]


class DQAGDServer(_ServerBase):
    def __init__(self, x0, hp, schedule, coder):
        super().__init__(x0, hp, schedule, coder)
        self.y = np.array(x0, dtype=np.float64)

    def apply(self, qs):
        y_new = self.x - self.hp.eta * qs[0]
        self.x = y_new + self.hp.gamma * (y_new - self.y)
        self.y = y_new


class DQHBServer(_ServerBase):
    def __init__(self, x0, hp, schedule, coder):
        super().__init__(x0, hp, schedule, coder)
        self.x_prev = np.array(x0, dtype=np.float64)

    def apply(self, qs):
        x_new = self.x - self.hp.eta * qs[0] + self.hp.gamma * (self.x - self.x_prev)
        self.x_prev, self.x = self.x, x_new


class DQGDVaryingServer(_ServerBase):
    def __init__(self, x0, etas, ranges, coder):
        super().__init__(x0, None, _CallableSchedule(ranges), coder)
        self.etas = etas

    def apply(self, qs):
        self.x = self.x - self.etas(self.t) * qs[0]


class NQGDServer(_ServerBase):
    """Averages K decoded descent directions."""

    def apply(self, qs):
        total = qs[0].copy()
        for q in qs[1:]:
            total += q
        self.x = self.x - (self.hp.eta / len(qs)) * total


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

_DQ_PAIRS = {
    "dq-gd": (DQGDWorker, DQGDServer, "dq-gd"),
    "dq-agd": (DQAGDWorker, DQAGDServer, "dq-agd"),
    "dq-hb": (DQHBWorker, DQHBServer, "dq-hb"),
}


def build_dq_engine(algo, objective, hp, schedule, R, containment="strict",
                    saturate=False, channel=None):
    """Wire up one single-worker DQ engine over a bit-exact channel.

    Both halves get their own schedule cursor and coder so nothing is
    shared beyond public constants.
    """
    from .transport import Channel

    worker_cls, server_cls, _ = _DQ_PAIRS[algo]
    n = objective.n
    spec = QuantizerSpec(n, R)
    worker = worker_cls(objective.grad, hp, schedule, BitCoder(spec, saturate),
                        containment)
    server = server_cls(objective.x0, hp, schedule, BitCoder(spec, saturate))
    channel = channel if channel is not None else Channel(n, R)
    return worker, server, channel


def build_nq_engine(problem, hp, sigma_nq, rates, containment="strict",
                    saturate=False):
    """K-worker naive quantization; rates is one integer per worker."""
    from .schedules import RangeSchedule
    from .transport import Channel

    n = problem.x0.shape[0]
    workers, channels, schedules, coders = [], [], [], []
    for obj, R_k in zip(problem.locals_, rates):
        sched = RangeSchedule(
            scheme="nq-gd", L=obj.L, D=problem.D, sigma=sigma_nq,
            rho=np.sqrt(n), R=R_k,
        )
        spec = QuantizerSpec(n, R_k)
        workers.append(
            NQGDWorker(obj.grad, hp, sched, BitCoder(spec, saturate), containment)
        )
        channels.append(Channel(n, R_k))
        schedules.append(sched)
        coders.append(BitCoder(spec, saturate))
    server = NQGDServer(problem.x0, hp, schedules, coders)
    return workers, server, channels
