"""Iteration engines: unquantized GD/AGD/HB and their quantized versions.

Every method has one update rule, `step`, fed with grad(x_t) when
unquantized and with the decoded q_t on a quantized server.

Quantized engines are split into a worker half (owns the gradient oracle
and the error memory) and a server half (owns the iterates); the two
halves exchange data only through a transport channel, and each evaluates
the public dynamic-range schedule on its own. Servers never see gradients
or quantization errors, workers never see the optimizer.

Rows. The server holds one row per channel. Channels that share a coder
(one per rate) are decoded in one call, with one range per row, and the
rows are summed in channel order, q_0 + q_1 + ..., into the direction: the
last row of one np.add.accumulate over them (np.add.reduce sums in another
order for some row counts). Every server takes this one path: a
one-channel engine is row 0, and its direction is q_0 itself. The
quantizer module's BitCoder codes any number of rows of one rate in one
pass, each row bit-equal to the quantizer's flat reference, and one row at
a float range keeps the flat shapes.

Every worker, DQ or naive, one channel or K, runs one round
(_WorkerBase.round); the methods differ only in the quantizer input, one
worker class each. As on the server, its shape follows the cursor: one
channel is a flat row at a float range, K channels a (K, n) stack at the
(K, 1) column of their ranges (schedules.naive_rows). The server packs one
downlink frame per broadcast and queues it on every channel; each channel
checks the length of its frame, and K channels' frames are read as one
stack of iterates. One stacked oracle (problems.LeastSquaresStack) gives
the K gradients and one matmul every row's u_k @ u_k, each bit-equal to
its row's flat call, and each rate's rows are quantized and packed in one
pass, one payload per channel.

The worker compensates past quantization errors so that it always
evaluates the gradient on the unquantized method's trajectory; the exact
bookkeeping per algorithm:

  dq-gd   z = x + eta*e1,                     u = grad(z) - e1
  dq-agd  c = e1 + gamma*(e1 - e2),
          z = x + eta*c,                      u = grad(z) - c
  dq-hb   c = e1 + gamma*(e1 - e2),
          z = x + eta*e1,                     u = grad(z) - c
  nq-gd   u = grad(x)                         (no compensation)

e1, e2 are the last two quantization errors (zero-initialized). A
compensating worker reconstructs through the coder's one cell-center map,
as the server decodes, so e1 is exactly what the server applied minus u,
in every round; a naive worker keeps no memory and never reconstructs.
The containment invariant ||u_t|| <= r_t is asserted each round with a
small relative slack for float roundoff (containment="strict"). The
heavy-ball schedule at alpha = 0 has only an empirical guarantee, so its
engine runs with containment="saturate": the worker records each escape
and the quantizer clamps to its range instead of raising. The builders
derive the schedule, hyperparameters and containment from the problem
alone. Hot path: that norm and the harness's distances are
math.sqrt(u.dot(u)), as np.linalg.norm takes it, and one channel is
collected without a list.

Cycles. Below the threshold rate the range recursion reaches a fixed
point in floating point, and a stalled run often cycles exactly through
its iterates and errors. run_protocol, the one loop that sees both
parties, restores such a cycle's rounds instead of computing them:

  1. One range. Rounds are saved and compared only while the server
     cursor's last two ranges are equal (from t = 2, and only for a scheme
     with feedback), and the saved round is dropped when the range moves.
  2. Deterministic round. At a fixed r a round is a function of the
     server's state and the worker side's memory (e1, e2) alone: the
     quantizer input never reads t, a payload is its bits alone, and the
     frame's t only labels an escape.
  3. Checked rounds. So once the bytes of that state at the start of round
     t equal those at round s < t, round t + k repeats round s + k mod p,
     p = t - s, if it runs at that round's range: each restored round first
     steps both cursors to it (ScheduleCursor.step_to). At the first range
     that differs, the round is computed and the detector starts over.

Brent's cycle detector (R. P. Brent, BIT 20, 1980) compares each round's
starting state with one saved round's, the bytes of x first and the rest
only when x matches; when window rounds pass with no match it saves the
current round and doubles window, up to _CYCLE_SLOTS, the longest period
it finds. The rounds since the save are held with the state and
observables each left behind, so at a hit they are one period: the
server's state, the worker's memory, ||u|| and r, the channel trace
entries and the escapes, relabelled with their round. Every round still
reaches on_iteration and stop, and each party ends where a computed run
ends, bit for bit. server.cycle is then (s, p), s the saved round: on the
cycle, but not always its first round; server.replayed counts the
rounds restored.
"""

import dataclasses
import itertools
import math

import numpy as np

from . import bounds
from .hyperparams import agd_lambda, optimal_hyperparams
from .quantizer import BitCoder, QuantizerSpec, RangeViolationError
from .schedules import RangeSchedule, ScheduleCursor, naive_rows
from .transport import Channel, pack_iterate, unpack_iterates

# absorbs roundoff in the containment check; the underlying inequality is
# exact in real arithmetic and can be tight on adversarial instances
CONTAINMENT_RTOL = 1e-9
# strict raises on an escape; saturate counts it and clamps the quantizer
CONTAINMENT = ("strict", "saturate")
# the longest period run_protocol finds at one range, and the most rounds it
# holds; stalled runs cycle with short periods; 0 finds none
_CYCLE_SLOTS = 64


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
# worker halves


class _WorkerBase:
    """The one worker round, for one channel or K: read the iterates, step
    the ranges, measure, check and code the quantizer inputs (a subclass
    gives them) and send one payload per channel, each coder's rows in one
    pass. A compensating worker (one channel) codes through BitCoder.encode
    and keeps the error memory (e1, e2); a naive one keeps none and never
    reconstructs. Each coder's saturate flag is its rows' containment: an
    escape raises when strict and is recorded otherwise."""

    compensates = True

    def __init__(self, grad, hp, schedules, coders):
        self.grad = grad
        self.hp = hp
        self.cursor = _cursor(schedules)
        self.coders = coders
        self._groups = _rate_groups(coders)
        self.e1 = self.e2 = None
        # with K rows, the largest r_k and ||u_k|| of the last round
        self.last_r = self.last_u_norm = None
        self.violations = []

    @property
    def memory(self):
        """The error memory a round reads: (e1, e2), or () when naive."""
        return (self.e1, self.e2) if self.compensates else ()

    @memory.setter
    def memory(self, value):
        if self.compensates:
            self.e1, self.e2 = value

    def quantizer_input(self, x):
        raise NotImplementedError

    def round(self, channels):
        flat = len(channels) == 1  # a flat row, else a (K, n) stack
        if flat:
            t, x = channels[0].recv_iterate()
            ts = (t,)
        else:
            ts, x = unpack_iterates([ch.recv_frame() for ch in channels])
        if self.compensates and self.e1 is None:
            self.e1, self.e2 = np.zeros(x.shape), np.zeros(x.shape)
        r = self.cursor.step()
        u = self.quantizer_input(x)
        bound = r * (1.0 + CONTAINMENT_RTOL)
        if flat:
            norms = self.last_u_norm = math.sqrt(u.dot(u))
            inside = norms <= bound  # a NaN norm escapes
            self.last_r = r
        else:
            norms = np.sqrt(np.matmul(u[:, None, :], u[:, :, None])[:, 0])
            inside = np.count_nonzero(norms <= bound) == len(u)
            self.last_u_norm, self.last_r = float(norms.max()), float(r.max())
        if not inside:
            self._first_escape(ts, norms, r, u)
        try:
            if self.compensates:  # one channel; the next round reads its error
                wire, recon = self.coders[0].encode(r, u)
                self.e2, self.e1 = self.e1, recon - u
                channels[0].send_payload(wire)
            else:
                one = len(self._groups) == 1  # then its rows are all of u
                for coder, rows in self._groups:
                    wires = coder.encode_rows(r if one else r[rows],
                                              u if one else u[rows])
                    for k, wire in zip(rows, wires):
                        channels[k].send_payload(wire)
        except RangeViolationError:
            if inside:  # else every strict row was coded alone already
                self._first_escape(ts, norms, r, u)
            raise

    def _first_escape(self, ts, norms, ranges, u):
        """The rows one at a time, in channel order, as K workers would run
        them: a row that escapes its range raises under a strict coder and
        is recorded under a saturating one, and a strict row is coded alone,
        so that the first to leave its cube raises as its own worker
        would."""
        if u.ndim == 1:  # one flat row, checked without the row loop
            self._escape_row(self.coders[0], ts[0], norms, ranges, u)
            return
        for coder, t, u_norm, r, row in zip(self.coders, ts,
                                            norms[:, 0].tolist(),
                                            ranges[:, 0].tolist(), u):
            self._escape_row(coder, t, u_norm, r, row)

    def _escape_row(self, coder, t, u_norm, r, row):
        if not u_norm <= r * (1.0 + CONTAINMENT_RTOL):
            if not coder.saturate:
                raise ScheduleViolationError(t, u_norm, r)
            self.violations.append(t)
        elif not coder.saturate:
            coder.encode_rows(r, row)


class NQGDWorker(_WorkerBase):
    # no compensation, so no error memory: at one channel the local oracle,
    # at K the problem's stack
    compensates = False

    def quantizer_input(self, x):
        return self.grad(x)


class DQGDWorker(_WorkerBase):
    def quantizer_input(self, x):
        z = x + self.hp.eta * self.e1
        return self.grad(z) - self.e1


class DQAGDWorker(_WorkerBase):
    def quantizer_input(self, x):
        c = self.e1 + self.hp.gamma * (self.e1 - self.e2)
        z = x + self.hp.eta * c
        return self.grad(z) - c


class DQHBWorker(_WorkerBase):
    # same quantizer input as the accelerated variant, but the gradient
    # point compensates only the last error
    def quantizer_input(self, x):
        c = self.e1 + self.hp.gamma * (self.e1 - self.e2)
        z = x + self.hp.eta * self.e1
        return self.grad(z) - c


def _cursor(schedules):
    """One cursor for a party's channels: it steps a float range for one
    channel, and the (K, 1) column of K naive ranges (naive_rows)."""
    return ScheduleCursor(schedules[0] if len(schedules) == 1
                          else naive_rows(schedules))


def _rate_groups(coders):
    """(coder, channel indices) of each distinct coder, in order of first
    use; the indices increase."""
    members = {}
    for k, coder in enumerate(coders):
        members.setdefault(coder, []).append(k)
    return list(members.items())


# ---------------------------------------------------------------------------
# server halves


class _ServerBase:
    """Owns the iterates of one method and steps on the decoded direction.

    With K channels the K decoded rows are summed in channel order and the
    stepsize is eta/K (naive quantization averages them); K = 1 is the DQ
    server, whose direction is its one row. Channels that share a coder
    object are decoded in one call.
    """

    def __init__(self, algo, x0, hp, schedules, coders):
        self.algo = algo
        self.state = initial_state(algo, x0)
        self.hp = dataclasses.replace(hp, eta=hp.eta / len(coders))
        self.cursor = _cursor(schedules)
        self.coders = coders
        self._groups = _rate_groups(coders)
        # rows in channel order, when one decode does not return them all
        self._stack = (np.empty((len(coders), self.x.shape[0]))
                       if len(self._groups) > 1 else None)
        self.t = 0
        self.cycle = None  # (start, period) of the last cycle run_protocol finds
        self.replayed = 0  # rounds restored from cycles

    @property
    def x(self):
        return self.state[0]

    def broadcast(self, channels):
        """(t, x) down every channel, as one frame packed once."""
        frame = pack_iterate(self.t, self.state[0])
        for ch in channels:
            ch.send_frame(frame)

    def collect(self, channels):
        r = self.cursor.step()  # a float, or the (K, 1) column of K ranges
        wires = ((channels[0].recv_payload_bits(),) if len(channels) == 1
                 else [ch.recv_payload_bits() for ch in channels])
        q = self._stack
        if q is None:  # one coder decodes every channel, in order
            q = self.coders[0].decode(r, wires)
        else:
            for coder, rows in self._groups:
                q[rows] = coder.decode(r[rows], [wires[k] for k in rows])
        direction = q
        if q.ndim == 2:  # q_0 + q_1 + ..., left to right
            direction = np.add.accumulate(q, axis=0)[-1]
        self.state = step(self.algo, self.state, direction, self.hp)
        self.t += 1


def run_protocol(server, worker, channels, steps, on_iteration=None, stop=None):
    """Strictly alternating rounds; returns the number of rounds run.

    The one worker side serves every channel, as one flat row (every DQ
    engine, and nq-gd at K = 1) or as the rows of one stack. Rounds
    restored from a cycle (see Cycles) count as run, and every round
    reaches on_iteration and stop.
    """
    cycles = (_Cycles(server, worker, channels) if _CYCLE_SLOTS
              and server.cursor.schedule.scheme != "nq-gd" else None)
    for t in range(steps):
        if cycles is None or not cycles.restore(t):
            server.broadcast(channels)
            worker.round(channels)
            server.collect(channels)
        if on_iteration is not None:
            on_iteration(t, server, worker)
        if stop is not None and stop(t, server):
            return t + 1
    return steps


class _Cycles:
    """run_protocol's memory of the rounds run at one range: Brent's cycle
    detector, one saved round and the outcomes of the rounds since, and
    once a cycle is found, its period."""

    def __init__(self, server, worker, channels):
        self.server = server
        self.worker = worker
        self.channels = channels
        self._start_over()

    def _start_over(self):
        # (round, bytes of x, rest of the server state + worker memory)
        self.saved = None
        self.window = 1  # rounds compared with the saved one before a new save
        # (server state, worker memory, ||u||, r) of each round since the save
        self.outcomes = []
        self.period = None  # its rounds' outcomes, escapes and log entries

    def restore(self, t):
        """True if round t is restored from the found period, once both
        cursors step to the range its round ran at; False for a round to
        compute, and at a range that differs the detector starts over.

        An escape is labelled with its round's server.t. The period's arrays
        are restored once per period, so they become read-only.
        """
        server, worker = self.server, self.worker
        if self.period is None:
            start = self.enter(t)
            if start is None:
                return False
            p = t - start
            server.cycle = (start, p)
            for state, memory, _, _ in self.outcomes:
                for a in state + memory:
                    a.flags.writeable = False
            escaped = set(worker.violations[-p:])
            # each round appends one entry to every channel trace
            self.logs = ([ch.trace.downlink_bytes for ch in self.channels]
                         + [ch.trace.uplink_bits for ch in self.channels])
            self.period = itertools.cycle(list(zip(
                self.outcomes, [j in escaped for j in range(start, t)],
                zip(*[log[-p:] for log in self.logs]))))
        (state, memory, u_norm, r), escape, entries = next(self.period)
        # both ends step one recursion from the same constants: both step,
        # or neither does
        if not (server.cursor.step_to(r) and worker.cursor.step_to(r)):
            self._start_over()
            return False
        for log, entry in zip(self.logs, entries):
            log.append(entry)
        if escape:
            worker.violations.append(server.t)
        worker.memory = memory
        worker.last_u_norm, worker.last_r = u_norm, r
        server.state = state
        server.t += 1
        server.replayed += 1
        return True

    def enter(self, t):
        """Before round t: the saved round if round t starts from the same
        state, else None; saves and compares rounds only while the server
        cursor's last two ranges are equal.

        A stalled run that drifts never repeats its iterate, so the bytes of
        x are compared first, and the rest of the state only when x matches.
        """
        cursor = self.server.cursor
        if cursor.r1 != cursor.r2 or t < 2:  # r_{-1} = r_{-2} = 0 are no ranges
            if self.saved is not None:
                self._start_over()
            return None
        state, worker = self.server.state, self.worker
        memory = worker.memory
        x = state[0].tobytes()
        if self.saved is not None:
            self.outcomes.append((state, memory, worker.last_u_norm,
                                  worker.last_r))
            start, saved_x, rest = self.saved
            if x == saved_x and all(a.tobytes() == b.tobytes() for a, b in
                                    zip(state[1:] + memory, rest)):
                return start
            if t - start < self.window:
                return None
            self.window = min(2 * self.window, _CYCLE_SLOTS)
        self.saved = (t, x, state[1:] + memory)
        self.outcomes = []
        return None


# ---------------------------------------------------------------------------
# assembly

# worker class and server update rule of each DQ method
_DQ_PAIRS = {
    "dq-gd": (DQGDWorker, "gd"),
    "dq-agd": (DQAGDWorker, "agd"),
    "dq-hb": (DQHBWorker, "hb"),
}


def dq_schedule(algo, objective, R, alpha=0.0):
    """Range schedule and optimal hyperparameters of one DQ method."""
    if algo not in _DQ_PAIRS:
        raise ValueError(f"not a DQ algorithm: {algo!r}")
    hp = optimal_hyperparams(objective.L, objective.mu, _DQ_PAIRS[algo][1])
    extras = {}
    if algo == "dq-agd":
        if hp.sigma == 0.0:  # kappa = 1: one-step convergence, no schedule
            raise ValueError("the accelerated schedule is undefined at "
                             "condition number 1; use dq-gd")
        extras["lam"] = agd_lambda(objective.kappa)
    elif algo == "dq-hb":
        extras["alpha"] = alpha
    schedule = RangeSchedule(scheme=algo, L=objective.L, D=objective.D,
                             sigma=hp.sigma, gamma=hp.gamma,
                             rho=QuantizerSpec(objective.n, R).rho, R=R,
                             **extras)
    return schedule, hp


def build_dq_engine(algo, objective, R, alpha=0.0, containment=None):
    """Wire up one single-worker DQ engine over a bit-exact channel.

    containment=None is "strict" wherever containment is provable for the
    schedule, and "saturate" for dq-hb at alpha = 0, which has no
    guarantee; any other value raises ValueError. Both halves get their own
    schedule cursor and coder so nothing is shared beyond public constants.
    """
    if containment is None:
        containment = "saturate" if algo == "dq-hb" and alpha == 0.0 else "strict"
    if containment not in CONTAINMENT:
        raise ValueError(f"containment must be one of {CONTAINMENT}, "
                         f"got {containment!r}")
    schedule, hp = dq_schedule(algo, objective, R, alpha)
    worker_cls, rule = _DQ_PAIRS[algo]
    spec = QuantizerSpec(objective.n, R)
    saturate = containment == "saturate"
    worker = worker_cls(objective.grad, hp, [schedule],
                        [BitCoder(spec, saturate)])
    server = _ServerBase(rule, objective.x0, hp, [schedule],
                         [BitCoder(spec, saturate)])
    return worker, server, Channel(objective.n, R)


def build_nq_engine(problem, rates):
    """K-worker naive quantization; rates is one integer per worker.

    Returns (worker side, server, channels): one NQGDWorker for every K,
    over the local oracle at K = 1 and as the rows of the problem's stack
    at K > 1. Workers of one rate share a coder on each end, so each rate is
    coded in one call per round. Containment is provable for the naive
    schedule, so every worker is strict.
    """
    n = problem.x0.shape[0]
    specs = {R: QuantizerSpec(n, R) for R in rates}
    sigma_nq = bounds.nq_sigma(problem.L_list, problem.mu, rates, n)
    hp = optimal_hyperparams(problem.L, problem.mu, "gd")
    schedules = [RangeSchedule(scheme="nq-gd", L=obj.L, D=problem.D,
                               sigma=sigma_nq, rho=specs[R_k].rho, R=R_k)
                 for obj, R_k in zip(problem.locals_, rates)]

    def coders():
        by_rate = {R: BitCoder(spec) for R, spec in specs.items()}
        return [by_rate[R] for R in rates]

    grad = problem.locals_[0].grad if problem.K == 1 else problem.stack.grad
    worker = NQGDWorker(grad, hp, schedules, coders())
    server = _ServerBase("gd", problem.x0, hp, schedules, coders())
    return worker, server, [Channel(n, R) for R in rates]
