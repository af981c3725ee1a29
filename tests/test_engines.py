import math
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dqgrad import engines, quantizer
from dqgrad.bounds import agd_unquantized_envelopes
from dqgrad.engines import (
    _DQ_PAIRS,
    DQAGDWorker,
    DQGDWorker,
    DQHBWorker,
    NQGDWorker,
    ScheduleViolationError,
    _ServerBase,
    build_dq_engine,
    build_nq_engine,
    dq_schedule,
    initial_state,
    run_protocol,
    step,
)
from dqgrad.harness import _drive, run_dq, run_nq
from dqgrad.hyperparams import HyperParams, optimal_hyperparams
from dqgrad.problems import make_gaussian_ls, make_interpolation_problem, make_worst_case_gd
from dqgrad.quantizer import (
    BitCoder,
    QuantizerSpec,
    RangeViolationError,
    decode_payload,
    reconstruct,
)
from dqgrad.rng import make_rng
from dqgrad.schedules import RangeSchedule, waterfill_bits
from dqgrad.selfcheck import tracking_deviation
from dqgrad.transport import Channel, FramingError, pack_iterate
from dqgrad import bounds

from doubles import ExactCoder, LoopbackChannel


def quadratic_1d():
    # f(x) = x^2/2: gradient is the identity
    return lambda x: x


def unquantized(algo, grad, x0, hp, steps):
    """States 1..steps of the unquantized method."""
    state = initial_state(algo, x0)
    out = []
    for _ in range(steps):
        state = step(algo, state, grad(state[0]), hp)
        out.append(state)
    return out


def constant_range(r):
    # the nq-gd recursion at sigma = 1 and L*D = r gives r_t = r for every t
    return RangeSchedule("nq-gd", L=r, D=1.0, sigma=1.0)


def test_gd_one_exact_step():
    hp = HyperParams(eta=1.0, gamma=0.0, sigma=0.0)
    ((x,),) = unquantized("gd", quadratic_1d(), np.array([1.0]), hp, 1)
    assert x[0] == 0.0


def test_hb_with_zero_momentum_is_gd():
    _, obj = make_gaussian_ls(20, 8, 6, 3)
    hp = HyperParams(eta=0.3, gamma=0.0, sigma=0.0)
    gd = unquantized("gd", obj.grad, obj.x0, hp, 50)
    hb = unquantized("hb", obj.grad, obj.x0, hp, 50)
    for a, b in zip(gd, hb):
        assert np.array_equal(a[0], b[0])


def test_step_matches_the_textbook_agd_recursion():
    _, obj = make_gaussian_ls(20, 8, 6, 4)
    hp = optimal_hyperparams(obj.L, obj.mu, "agd")
    state = initial_state("agd", obj.x0)
    x, y = np.array(obj.x0), np.array(obj.x0)
    for _ in range(20):
        state = step("agd", state, obj.grad(state[0]), hp)
        y_new = x - hp.eta * obj.grad(x)
        x, y = y_new + hp.gamma * (y_new - y), y_new
        assert np.array_equal(state[0], x)
        assert np.array_equal(state[1], y)


def test_step_rejects_an_unknown_algorithm():
    hp = HyperParams(eta=0.1, gamma=0.0, sigma=0.0)
    x = np.ones(3)
    for algo in ("sgd", "dq-gd"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            step(algo, (x,), x, hp)
        with pytest.raises(ValueError, match="unknown algorithm"):
            initial_state(algo, x)


def test_agd_run_respects_its_envelope():
    # 100 steps on the worst-case instance stay under the y-iterate envelope
    gen = make_rng(0)
    kappa = 4.0
    hp_gd = optimal_hyperparams(1.0, 1.0 / kappa, "gd")
    obj = make_worst_case_gd(gen.standard_normal(6), 1.0, 1.0 / kappa, 2.0, hp_gd.eta)
    hp = optimal_hyperparams(obj.L, obj.mu, "agd")
    for t, (_, y) in enumerate(unquantized("agd", obj.grad, obj.x0, hp, 100), 1):
        y_env, _ = agd_unquantized_envelopes(t, kappa, obj.D)
        assert np.linalg.norm(y - obj.x_star) <= y_env * (1 + 1e-9)


def _zero_error_run(algo, obj, hp, steps):
    """DQ engine over a lossless loopback with a perfect quantizer."""
    worker_cls, rule = _DQ_PAIRS[algo]
    schedule, _ = dq_schedule(algo, obj, R=8)
    coder = ExactCoder()
    # the schedule is irrelevant at zero quantization error
    worker = worker_cls(obj.grad, hp, [schedule], [coder])
    server = _ServerBase(rule, obj.x0, hp, [schedule], [coder])
    chan = LoopbackChannel()
    xs = []
    run_protocol(server, worker, [chan], steps,
                 on_iteration=lambda t, s, w: xs.append(s.x.copy()))
    return xs


@pytest.mark.parametrize("algo,ref", [
    ("dq-gd", "gd"), ("dq-agd", "agd"), ("dq-hb", "hb"),
])
def test_zero_error_channel_reproduces_unquantized_bitwise(algo, ref):
    _, obj = make_gaussian_ls(24, 10, 8, 5)
    hp = optimal_hyperparams(obj.L, obj.mu, ref)
    xs = _zero_error_run(algo, obj, hp, 60)
    twin = unquantized(ref, obj.grad, obj.x0, hp, 60)
    assert len(xs) == len(twin)
    for x, state in zip(xs, twin):
        assert np.array_equal(x, state[0])


def test_server_averages_k_directions_bitwise():
    # K = 3 workers: one gd step at eta/3 on the sum of the decoded directions
    gen = make_rng(21)
    _, obj = make_gaussian_ls(20, 8, 5, 21)
    hp = optimal_hyperparams(obj.L, obj.mu, "gd")
    K = 3
    server = _ServerBase("gd", obj.x0, hp, [constant_range(1.0)] * K,
                         [ExactCoder() for _ in range(K)])
    channels = [LoopbackChannel() for _ in range(K)]
    x = np.array(obj.x0)
    for _ in range(10):
        server.broadcast(channels)
        qs = [gen.standard_normal(8) for _ in range(K)]
        for ch, q in zip(channels, qs):
            ch.recv_iterate()
            ch.send_payload(q)
        server.collect(channels)
        x = x - (hp.eta / 3) * (qs[0] + qs[1] + qs[2])
        assert np.array_equal(server.x, x)


@pytest.mark.parametrize("algo", ["dq-agd", "dq-hb"])
def test_zero_momentum_reduces_to_dq_gd_bitwise(algo):
    # same hyperparameters and same schedule: the momentum engines with
    # gamma = 0 must replay dq-gd bit for bit, real quantizer included
    _, obj = make_gaussian_ls(24, 10, 8, 6)
    hp = optimal_hyperparams(obj.L, obj.mu, "gd")
    schedule, _ = dq_schedule("dq-gd", obj, R=4)
    R = 4
    spec = QuantizerSpec(obj.n, R)

    def run(which):
        worker_cls, rule = _DQ_PAIRS[which]
        worker = worker_cls(obj.grad, hp, [schedule], [BitCoder(spec)])
        server = _ServerBase(rule, obj.x0, hp, [schedule], [BitCoder(spec)])
        xs = []
        run_protocol(server, worker, [Channel(obj.n, R)], 80,
                     on_iteration=lambda t, s, w: xs.append(s.x.copy()))
        return xs

    ref = run("dq-gd")
    for x, y in zip(ref, run(algo)):
        assert np.array_equal(x, y)


def test_agd_and_hb_share_quantizer_input():
    # identical error histories give identical u_t for the two momentum engines
    gen = make_rng(8)
    _, obj = make_gaussian_ls(20, 8, 5, 7)
    hp = optimal_hyperparams(obj.L, obj.mu, "hb")
    schedule, _ = dq_schedule("dq-hb", obj, R=5)
    wa = DQAGDWorker(obj.grad, hp, [schedule], [ExactCoder()])
    wh = DQHBWorker(obj.grad, hp, [schedule], [ExactCoder()])
    for w in (wa, wh):
        w.e1 = gen.standard_normal(8)
        w.e2 = gen.standard_normal(8)
    wh.e1[:] = wa.e1
    wh.e2[:] = wa.e2
    x = gen.standard_normal(8)
    # the gradient points differ, so compare with the same compensation
    # applied to a common gradient access
    ua = wa.quantizer_input(x)
    uh = wh.quantizer_input(x)
    corr = wa.e1 + hp.gamma * (wa.e1 - wa.e2)
    assert np.array_equal(ua, obj.grad(x + hp.eta * corr) - corr)
    assert np.array_equal(uh, obj.grad(x + hp.eta * wa.e1) - corr)


@pytest.mark.parametrize("algo,kappa,R", [
    ("dq-gd", 5.0, 4), ("dq-agd", 12.0, 6), ("dq-hb", 12.0, 6),
])
def test_tracking_identities(algo, kappa, R):
    _, obj = make_gaussian_ls(32, 16, kappa, 11)
    dev = tracking_deviation(algo, obj, R, steps=200)
    assert dev <= 1e-10


def test_schedule_violation_raises():
    _, obj = make_gaussian_ls(16, 6, 4, 13)
    hp = optimal_hyperparams(obj.L, obj.mu, "gd")
    tiny = constant_range(1e-9)
    worker = DQGDWorker(obj.grad, hp, [tiny], [BitCoder(QuantizerSpec(6, 4))])
    server = _ServerBase("gd", obj.x0, hp, [tiny], [BitCoder(QuantizerSpec(6, 4))])
    with pytest.raises(ScheduleViolationError):
        run_protocol(server, worker, [Channel(6, 4)], 5)


def test_non_finite_quantizer_input_violates_containment():
    _, obj = make_gaussian_ls(16, 6, 4, 13)
    hp = optimal_hyperparams(obj.L, obj.mu, "gd")

    def nan_grad(x):
        return np.full_like(x, np.nan)

    wide = constant_range(1e9)
    spec = QuantizerSpec(6, 4)
    worker = DQGDWorker(nan_grad, hp, [wide], [BitCoder(spec)])
    server = _ServerBase("gd", obj.x0, hp, [wide], [BitCoder(spec)])
    with pytest.raises(ScheduleViolationError):
        run_protocol(server, worker, [Channel(6, 4)], 5)

    # saturate mode counts the escape; the saturating quantizer still refuses
    worker = DQGDWorker(nan_grad, hp, [wide],
                        [BitCoder(spec, saturate=True)])
    server = _ServerBase("gd", obj.x0, hp, [wide], [BitCoder(spec, saturate=True)])
    with pytest.raises(RangeViolationError):
        run_protocol(server, worker, [Channel(6, 4)], 5)
    assert worker.violations == [0]


def test_hb_alpha_zero_can_violate_containment():
    # the experimental heavy-ball setting has no containment guarantee;
    # saturate mode keeps the run alive and counts the escapes
    _, obj = make_gaussian_ls(32, 16, 25, 14)
    rec = run_dq("dq-hb", obj, 8, t_max=300, alpha=0.0)
    assert rec.violations > 0
    rec1 = run_dq("dq-hb", obj, 8, t_max=300, alpha=1.0)
    assert rec1.violations == 0


@pytest.mark.parametrize("algo", ["dq-gd", "dq-agd", "dq-hb"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_builder_saturates_only_heavy_ball_at_alpha_zero(algo, alpha):
    _, obj = make_gaussian_ls(32, 16, 25, 14)
    worker, server, _ = build_dq_engine(algo, obj, 8, alpha)
    saturate = algo == "dq-hb" and alpha == 0.0
    assert worker.coders[0].saturate is saturate
    assert server.coders[0].saturate is saturate
    # an explicit value overrides the default on both halves
    worker, server, _ = build_dq_engine(algo, obj, 8, alpha, containment="strict")
    assert not worker.coders[0].saturate and not server.coders[0].saturate


@pytest.mark.parametrize("bad", ["strcit", "record", ""])
def test_unknown_containment_is_rejected(bad):
    # a typo must not fall through to the quantizer's RangeViolationError
    _, obj = make_gaussian_ls(32, 16, 25, 14)
    with pytest.raises(ValueError, match="containment"):
        run_dq("dq-hb", obj, 8, containment=bad)


def test_nq_multiworker_run_and_envelope():
    # smoothness 4 vs 1 under a 2-bit sum rate: the whole budget goes to
    # the smoother-to-quantize worker and the silent one still converges
    prob = make_interpolation_problem(2, 8, 16, [4.0, 2.0], 15, L_list=[4.0, 1.0])
    assert prob.L_list == pytest.approx([4.0, 1.0], rel=1e-9)
    rates = waterfill_bits(prob.L_list, 2)
    assert rates == [2, 0]
    rec, channels = run_nq(prob, rates, t_max=400)
    n = 8
    sigma_nq = bounds.nq_sigma(prob.L_list, prob.mu, rates, n)
    for t, d in enumerate(rec.distances):
        assert d <= sigma_nq**t * prob.D * (1 + 1e-9)
    assert rec.violations == 0
    for ch, R_k in zip(channels, rates):
        assert all(b == n * R_k for b in ch.trace.uplink_bits)


def test_stored_error_stays_within_covering_radius():
    # every round of a strict run: ||q - u|| <= r_t * rho * 2^-R
    _, obj = make_gaussian_ls(32, 16, 7, 18)
    R = 5
    worker, server, chan = build_dq_engine("dq-gd", obj, R)
    eps = np.sqrt(16) * 2.0 ** (-R)

    def observe(t, srv, w):
        assert np.linalg.norm(w.e1) <= w.last_r * eps * (1 + 1e-12)

    run_protocol(server, worker, [chan], 120, on_iteration=observe)


def test_worker_and_server_reconstruct_alike_in_every_round():
    # the saturating dq-hb run at kappa = 5, R = 8 reaches ranges whose cell
    # width underflows to 0; the worker's stored error must still come from
    # what the server decodes, round by round, in all 1500 rounds
    _, obj = make_gaussian_ls(32, 16, 5.0, 3)
    worker, server, channel = build_dq_engine("dq-hb", obj, 8)
    worker_recon, server_recon = [], []
    encode, decode = worker.coders[0].encode, server.coders[0].decode

    def tapped_encode(r, u):
        wire, recon = encode(r, u)
        worker_recon.append(recon.tobytes())
        return wire, recon

    def tapped_decode(rs, wires):
        q = decode(rs, wires)
        server_recon.append(q.tobytes())
        return q

    worker.coders[0].encode = tapped_encode
    server.coders[0].decode = tapped_decode
    rec = _drive("dq-hb", 8, obj, server, worker, [channel], 1500)
    assert rec.terminal_T == 1500 and server.cycle is None
    assert len(worker_recon) == len(server_recon) == 1500
    assert [t for t, (a, b) in enumerate(zip(worker_recon, server_recon))
            if a != b] == []


def test_nq_single_worker_zero_rate_is_stationary():
    _, obj = make_gaussian_ls(16, 6, 4, 16)
    rec, _ = run_nq(obj, [0], t_max=20)
    # a silent worker sends nothing and the server never moves
    assert all(d == pytest.approx(obj.D) for d in rec.distances)


def _bits(v):
    return struct.pack("<d", v)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 1100),
                  elements=st.floats(allow_nan=True, allow_infinity=True)
                  | st.floats(-1e3, 1e3)))
def test_sqrt_of_self_dot_is_the_vector_norm(v):
    # engines and harness take norms as math.sqrt(v.dot(v)) on the hot path,
    # the dot np.linalg.norm takes; v @ v gives the same bits
    with np.errstate(over="ignore", invalid="ignore"):
        ref = float(np.linalg.norm(v))
        for fast in (math.sqrt(v.dot(v)), math.sqrt(v @ v)):
            if math.isnan(ref):
                assert math.isnan(fast)
            else:
                assert _bits(fast) == _bits(ref)


# ---------------------------------------------------------------------------
# rounds served from a proven cycle


def _stalled_gaussian_k5():
    # trial 0 of the stock gaussian-k5 sweep: dq-gd at R = 2 stalls at the
    # fixed point of its range and cycles with period 6 from round 96; the
    # detector saves round 98 on the cycle
    ss = np.random.SeedSequence(7, spawn_key=(0,))
    return make_gaussian_ls(32, 16, 5.0, ss)[1]


def settled_range(r):
    # dq-gd at eps = rho * 2**-R = 1 and sigma = 0: r_t = r for every t
    return RangeSchedule("dq-gd", L=r, D=1.0, sigma=0.0, rho=2.0, R=1)


def _tapped_run(obj, t_max):
    """dq-gd at R = 2: the record, the channel trace and every payload sent."""
    worker, server, channel = build_dq_engine("dq-gd", obj, 2)
    sent = []
    send = channel.send_payload

    def tap(payload):
        sent.append((payload.bits, payload.nbits))
        send(payload)

    channel.send_payload = tap
    rec = _drive("dq-gd", 2, obj, server, worker, [channel], t_max)
    return rec, channel.trace, sent


def _zero_gradient_engine(schedule):
    """A saturating dq-gd worker with grad = 0, n = 16, R = 1, eta = 1.

    At a constant range r, u is 0 and -r/2 per coordinate by turns, so
    ||u|| = 2r escapes the range every other round, and x cycles 0, -r/2.
    """
    n, R = 16, 1
    hp = HyperParams(eta=1.0, gamma=0.0, sigma=0.0)
    spec = QuantizerSpec(n, R)
    worker = DQGDWorker(np.zeros_like, hp, [schedule], [BitCoder(spec, True)])
    server = _ServerBase("gd", np.zeros(n), hp, [schedule],
                         [BitCoder(spec, True)])
    return worker, server, [Channel(n, R)]


def _detector_log(monkeypatch):
    """(saved round or None, outcomes held) after run_protocol enters each
    round."""
    log = []

    class Logged(engines._Cycles):
        def enter(self, t):
            start = super().enter(t)
            log.append((self.saved and self.saved[0], len(self.outcomes)))
            return start

    monkeypatch.setattr(engines, "_Cycles", Logged)
    return log


def _same_bits(a, b):
    return np.asarray(a, dtype="<f8").tobytes() == np.asarray(b, dtype="<f8").tobytes()


@pytest.mark.parametrize("seed,kappa", [(7, 5.0), (8, 25.0)])
def test_replay_sends_the_bits_a_computed_round_would(monkeypatch, seed, kappa):
    # the stalled gaussian-k5 and momentum-k25 trials, served from their
    # cycle and computed in full with no slots at all
    ss = np.random.SeedSequence(seed, spawn_key=(0,))
    obj = make_gaussian_ls(32, 16, kappa, ss)[1]
    rec, trace, sent = _tapped_run(obj, 2000)
    monkeypatch.setattr(engines, "_CYCLE_SLOTS", 0)
    ref, ref_trace, ref_sent = _tapped_run(obj, 2000)
    assert rec.replayed > 1000 and ref.replayed == 0 and ref.cycle is None
    for name in ("distances", "u_norms", "ranges"):
        assert _same_bits(getattr(rec, name), getattr(ref, name))
    assert rec.bits_per_iteration == ref.bits_per_iteration
    assert rec.violations == ref.violations
    assert trace == ref_trace
    # only the rounds before start + period are computed, and the computed
    # run's payloads repeat with that period from the saved round on
    start, period = rec.cycle
    assert sent == ref_sent[:start + period] and len(ref_sent) == 2000
    assert ref_sent[start + period:] == ref_sent[start:2000 - period]


def test_a_stalled_run_computes_few_gradients():
    obj = _stalled_gaussian_k5()
    worker, server, channel = build_dq_engine("dq-gd", obj, 2)
    calls = []

    def grad(z):
        calls.append(None)
        return obj.grad(z)

    worker.grad = grad
    rec = _drive("dq-gd", 2, obj, server, worker, [channel], 10_000)
    assert rec.terminal_T == 10_000
    assert rec.cycle == (98, 6) == server.cycle
    assert len(calls) == sum(rec.cycle)
    assert rec.replayed == 10_000 - len(calls)


@pytest.mark.parametrize("slots", [4, engines._CYCLE_SLOTS])
def test_cycle_detector_is_bounded_and_idle_while_the_range_moves(monkeypatch,
                                                                   slots):
    # the detector saves no round while the range still moves, holds at
    # most `slots` outcomes, and finds no period longer than that
    monkeypatch.setattr(engines, "_CYCLE_SLOTS", slots)
    log = _detector_log(monkeypatch)
    worker, server, channel = build_dq_engine("dq-gd", _stalled_gaussian_k5(), 2)
    ranges = []

    def observe(t, srv, w):
        ranges.append(w.last_r)

    assert run_protocol(server, worker, [channel], 600,
                        on_iteration=observe) == 600
    moved = [t for t in range(1, len(log)) if ranges[t] != ranges[t - 1]]
    assert len(moved) > 50 and all(log[t][0] is None for t in moved)
    held = [n for _, n in log]
    assert max(held) <= slots
    if slots < 6:  # shorter than the period: saves every `slots` rounds, never hits
        assert server.cycle is None and len(log) == 600
        # a full window is dropped as the next round is saved
        assert max(held) == slots - 1 and len({s for s, _ in log}) > 100
    else:  # at the hit the outcomes are exactly one period
        assert server.cycle == (98, 6) and len(log) == 98 + 6 + 1
        assert log[-1] == (98, 6)


def test_replayed_error_memory_is_read_only():
    # a period's arrays are restored once per period, so nobody may write
    # to them, the last ones the run leaves behind included
    worker, server, channel = build_dq_engine("dq-gd", _stalled_gaussian_k5(), 2)
    run_protocol(server, worker, [channel], 300)
    assert server.cycle is not None
    for a in (*server.state, *worker.memory):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        worker.e1 += 1.0


def test_replayed_rounds_still_check_containment(monkeypatch):
    # the escapes of the period come back at their shifted rounds
    target = SimpleNamespace(D=4.0, x_star=np.ones(16))

    def run():
        worker, server, channels = _zero_gradient_engine(settled_range(1.0))
        return _drive("dq-gd", 1, target, server, worker, channels, 40), worker

    rec, worker = run()
    # the range stands still, and round 2 is the first saved; round 3 is saved
    # when round 2 does not come back within one round, and round 5 starts
    # from its state: rounds 0-4 are computed and 5-39 served from the period
    assert rec.cycle == (3, 2) and rec.replayed == 35
    assert worker.violations == list(range(1, 40, 2))
    assert rec.violations == 20
    monkeypatch.setattr(engines, "_CYCLE_SLOTS", 0)
    ref, ref_worker = run()
    assert ref.cycle is None and ref.replayed == 0
    assert ref_worker.violations == worker.violations
    assert _same_bits(ref.u_norms, rec.u_norms)
    assert _same_bits(ref.distances, rec.distances)


def test_cycle_table_waits_for_the_peak_of_a_stalled_range(monkeypatch):
    # a heavy-ball range with alpha > 0 stands still from round 0, though
    # its leading term t**alpha * sigma**t still rises to its peak at
    # t = alpha / ln(1/sigma) = 2.1; each restored round steps both cursors
    # to its range first. (Past round 10 the subexponential factor
    # overflows; the run stops before.)
    sigma, alpha = math.exp(-100.0), 210.0
    L = 1.0 / (math.e**alpha * math.sqrt(2.0))  # r_0 = 1 exactly
    schedule = RangeSchedule("dq-hb", L=L, D=1.0, sigma=sigma, rho=2.0, R=1,
                             alpha=alpha)
    log = _detector_log(monkeypatch)
    worker, server, channels = _zero_gradient_engine(schedule)
    ranges = []

    def observe(t, srv, w):
        ranges.append(w.last_r)

    assert run_protocol(server, worker, channels, 10, on_iteration=observe) == 10
    assert set(ranges) == {1.0}
    # round 2 is saved, then round 3 with a window of two, and round 5
    # starts from the state of round 3
    assert [s for s, _ in log[:5]] == [None, None, 2, 3, 3]
    assert server.cycle == (3, 2) and server.replayed == 5
    monkeypatch.setattr(engines, "_CYCLE_SLOTS", 0)
    ref_worker, ref_server, ref_channels = _zero_gradient_engine(schedule)
    run_protocol(ref_server, ref_worker, ref_channels, 10)
    assert ref_worker.violations == worker.violations
    assert _same_bits(ref_server.x, server.x)


def test_cycle_table_compares_the_whole_state_of_rounds_that_share_x():
    # x is compared first; a round that shares x with the saved one but not
    # its error memory is no hit, nor is one that shares only the memory
    a, b = np.zeros(2), np.ones(2)
    m = [(np.full(2, v), np.full(2, -v)) for v in (1.0, 2.0)]
    server = SimpleNamespace(state=None,
                             cursor=SimpleNamespace(r1=1.0, r2=1.0))
    worker = SimpleNamespace(memory=None, last_u_norm=0.0, last_r=1.0)
    cycles = engines._Cycles(server, worker, [])
    found, saved = [], []
    # from round 2, the first whose last two ranges are both ranges
    for t, (x, memory) in enumerate([(a, m[0]), (a, m[1]), (b, m[1]),
                                     (a, m[1])], start=2):
        server.state, worker.memory = (x,), memory
        found.append(cycles.enter(t))
        saved.append(cycles.saved[0])
    assert found == [None, None, None, 3] and saved == [2, 3, 3, 3]
    assert len(cycles.outcomes) == 2


@settings(max_examples=300, deadline=None)
@given(lead=st.integers(0, 40), period=st.integers(1, 80),
       settle=st.integers(0, 50), slots=st.sampled_from([1, 4, 64]))
def test_cycle_detector_finds_exactly_the_periods_it_can_hold(lead, period,
                                                              settle, slots):
    # round t starts from state i(t) = t during the lead-in and then repeats
    # states lead, ..., lead + period - 1; x takes three values, so the error
    # memory tells most rounds that share x apart
    def state(t):
        return t if t < lead else lead + (t - lead) % period

    cursor = SimpleNamespace(r1=2.0, r2=1.0)  # the range moves
    server = SimpleNamespace(state=None, cursor=cursor)
    worker = SimpleNamespace(memory=None, last_u_norm=None, last_r=1.0)
    start = None
    with mock.patch.object(engines, "_CYCLE_SLOTS", slots):
        cycles = engines._Cycles(server, worker, [])
        # long enough to save a round on the cycle at a window >= period
        for t in range(settle + lead + 2 * slots + 4 * period + 4):
            if t == settle:
                cursor.r1 = 1.0  # and stands still from here on
            i = state(t)
            server.state = (np.array([float(i % 3)]), np.zeros(1))
            worker.memory = (np.array([float(i)]),)
            worker.last_u_norm = float(i)
            start = cycles.enter(t)
            assert len(cycles.outcomes) <= slots
            if t < settle:
                assert cycles.saved is None
            if start is not None:
                break
    if period > slots:
        assert start is None
        return
    assert start is not None and t - start == period
    assert start >= max(lead, settle)
    # the outcomes are the one period of rounds start, ..., t - 1
    assert [o[2] for o in cycles.outcomes] == [
        float(state(j)) for j in range(start + 1, t + 1)]


def _end_state(server, worker, channels):
    """Every party's state after a run, as comparable values."""
    def cursor(c):
        return (c.t, c.r1, c.r2)

    return (
        [np.asarray(a).tobytes() for a in (*server.state, *worker.memory)],
        server.t, [cursor(c) for c in (server.cursor, worker.cursor)],
        worker.last_u_norm, worker.last_r, list(worker.violations),
        [(ch.trace.downlink_bytes, ch.trace.uplink_bits) for ch in channels],
        [(len(ch._down), len(ch._up)) for ch in channels],
    )


@pytest.mark.parametrize("stop_at", [None, 1234])
@pytest.mark.parametrize("engine", ["stalled-k5", "zero-gradient"])
def test_a_skipped_run_ends_where_a_computed_run_ends(monkeypatch, engine,
                                                      stop_at):
    def build():
        if engine == "stalled-k5":
            return build_dq_engine("dq-gd", _stalled_gaussian_k5(), 2)
        worker, server, channels = _zero_gradient_engine(settled_range(1.0))
        return worker, server, channels[0]

    def run():
        worker, server, channel = build()
        seen = []

        def observe(t, srv, w):
            seen.append((t, srv.x.tobytes(), w.e1.tobytes(), w.last_u_norm))

        def stop(t, srv):
            return t == stop_at

        rounds = run_protocol(server, worker, [channel], 3000,
                              on_iteration=observe, stop=stop)
        return rounds, seen, _end_state(server, worker, [channel]), server

    rounds, seen, end, server = run()
    assert server.cycle is not None
    monkeypatch.setattr(engines, "_CYCLE_SLOTS", 0)
    ref_rounds, ref_seen, ref_end, ref_server = run()
    assert ref_server.cycle is None
    assert rounds == ref_rounds == (3000 if stop_at is None else stop_at + 1)
    assert seen == ref_seen
    assert end == ref_end


def test_a_range_that_moves_hands_its_round_back_to_be_computed(monkeypatch):
    # a stand-in schedule whose range stands still at 1.0 for rounds 0-11
    # and is 2.0 from round 12 on: rounds are restored from the period only
    # while both cursors step to 1.0, round 12 is computed, and the
    # detector starts over at the new range
    schedule = SimpleNamespace(scheme="dq-gd",
                               next=lambda t, r1, r2: 1.0 if t < 12 else 2.0)

    def run():
        worker, server, channels = _zero_gradient_engine(schedule)
        computed, seen = [], []
        grad = worker.grad

        def counted(z):
            computed.append(server.t)
            return grad(z)

        def observe(t, srv, w):
            seen.append((t, srv.x.tobytes(), w.e1.tobytes(), w.last_u_norm,
                         w.last_r))

        worker.grad = counted
        assert run_protocol(server, worker, channels, 40,
                            on_iteration=observe) == 40
        return computed, seen, _end_state(server, worker, channels), server

    computed, seen, end, server = run()
    monkeypatch.setattr(engines, "_CYCLE_SLOTS", 0)
    ref_computed, ref_seen, ref_end, ref_server = run()
    assert ref_computed == list(range(40)) and ref_server.replayed == 0
    # round 5 starts from the state of round 3, and rounds 5-11 are restored
    assert computed[:6] == [0, 1, 2, 3, 4, 12]
    assert server.replayed == 40 - len(computed) > 7
    assert seen == ref_seen
    assert end == ref_end


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kappa=st.floats(2.0, 50.0))
def test_skipping_cycles_changes_no_bit(seed, kappa):
    _, obj = make_gaussian_ls(32, 16, kappa, seed)
    for algo in ("dq-gd", "dq-agd", "dq-hb"):
        rec = run_dq(algo, obj, 2, t_max=1500)
        with mock.patch.object(engines, "_CYCLE_SLOTS", 0):
            ref = run_dq(algo, obj, 2, t_max=1500)
        assert ref.cycle is None
        for name in ("distances", "u_norms", "ranges"):
            assert _same_bits(getattr(rec, name), getattr(ref, name))
        assert rec.bits_per_iteration == ref.bits_per_iteration
        assert rec.violations == ref.violations


# --- rows: the naive workers and the server's decode as (K, n) stacks --------


def _shared_coders(n, rates):
    """One BitCoder per rate, shared by its channels, as build_nq_engine does."""
    by_rate = {R: BitCoder(QuantizerSpec(n, R)) for R in rates}
    return [by_rate[R] for R in rates]


@settings(max_examples=100, deadline=None)
@given(rates=st.lists(st.sampled_from([0, 1, 3, 8]), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_server_row_sum_is_the_left_to_right_sum(rates, seed):
    # mixed rates, silent channels included: the direction is the flat
    # decode of each channel, summed q0 + q1 + ... in channel order
    gen = make_rng(seed)
    K, n = len(rates), 5
    ranges = gen.random(K) * 10.0 ** gen.integers(-3, 4, size=K)
    hp = HyperParams(eta=0.7, gamma=0.0, sigma=0.0)
    x0 = gen.standard_normal(n)
    server = _ServerBase("gd", x0, hp, [constant_range(r) for r in ranges],
                         _shared_coders(n, rates))
    channels = [Channel(n, R) for R in rates]
    qs = []
    for ch, R, r in zip(channels, rates, ranges):
        idx = gen.integers(0, 1 << R, size=n)
        payload = quantizer.Payload.from_indices(idx, R)
        ch.send_payload(payload)
        spec = QuantizerSpec(n, R)
        qs.append(reconstruct(spec, r, decode_payload(payload.bits, n * R, n, R)))
    server.collect(channels)
    direction = qs[0]
    for q in qs[1:]:
        direction = direction + q
    assert server.x.tobytes() == (x0 - (0.7 / K) * direction).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1024])
def test_accumulate_sums_rows_left_to_right(n):
    # the server's one-call row sum: the last row of np.add.accumulate over
    # the rows is q0 + q1 + ... in channel order, for every row count;
    # np.add.reduce sums some of these in another order
    gen = make_rng(n)
    hp = HyperParams(eta=0.5, gamma=0.0, sigma=0.0)
    reduce_differs = False
    for G in range(1, 65):
        q = gen.standard_normal((G, n)) * 10.0 ** gen.integers(-8, 9, size=(G, 1))
        total = q[0]
        for row in q[1:]:
            total = total + row
        assert np.add.accumulate(q, axis=0)[-1].tobytes() == total.tobytes()
        reduce_differs |= np.add.reduce(q, axis=0).tobytes() != total.tobytes()
        # and the server steps on that sum, one channel per row
        coder = ExactCoder()
        server = _ServerBase("gd", np.zeros(n), hp, [constant_range(1.0)] * G,
                             [coder] * G)
        channels = [LoopbackChannel() for _ in range(G)]
        for ch, row in zip(channels, q):
            ch.send_payload(row)
        server.collect(channels)
        assert server.x.tobytes() == (np.zeros(n) - (0.5 / G) * total).tobytes()
    if n == 1:
        assert reduce_differs


def _flat_worker_round(problem, rates, channels, t):
    """The payload bits each naive worker would send on its own."""
    n = problem.x0.shape[0]
    sigma = bounds.nq_sigma(problem.L_list, problem.mu, rates, n)
    out = []
    for obj, R, ch in zip(problem.locals_, rates, channels):
        _, x = ch.recv_iterate()
        r = RangeSchedule("nq-gd", L=obj.L, D=problem.D, sigma=sigma,
                          rho=QuantizerSpec(n, R).rho, R=R).next(t, 0.0, 0.0)
        payload, _ = BitCoder(QuantizerSpec(n, R)).encode(r, obj.grad(x))
        out.append(payload.bits)
    return out


@pytest.mark.parametrize("rates", [[5, 3, 5, 0], [4, 4, 4], [7]])
def test_naive_rows_send_what_each_worker_would(rates):
    prob = make_interpolation_problem(len(rates), 12, 24, [4.0, 2.0, 8.0, 3.0][:len(rates)],
                                      19, L_list=[4.0, 1.0, 4.0, 0.25][:len(rates)])
    worker, server, channels = build_nq_engine(prob, rates)
    twins = [Channel(12, R) for R in rates]
    for t in range(30):
        server.broadcast(channels)
        for ch in twins:
            ch.send_iterate(t, server.x)
        worker.round(channels)
        sent = [ch._up[0][0] for ch in channels]
        assert sent == _flat_worker_round(prob, rates, twins, t)
        server.collect(channels)


def _escape_rows(us, rates=(2, 3, 2)):
    """A K-channel NQGDWorker over fixed quantizer inputs at range 1; rows
    0 and 2 share a coder, so they are quantized together and before row
    1."""
    n = len(us[0])
    worker = NQGDWorker(lambda X: np.array(us, dtype=np.float64), None,
                        [constant_range(1.0)] * len(us), _shared_coders(n, rates))
    channels = [Channel(n, R) for R in rates]
    for ch in channels:
        ch.send_iterate(4, np.zeros(n))
    return worker, channels


OUT = [0.0, 1.0 + 5e-10, 0.0]  # inside the norm slack, outside the cube
BIG = [0.0, 0.0, 2.0]  # outside both


@pytest.mark.parametrize("us,row,coord", [
    ([[0.0] * 3, OUT, BIG], 1, 1),  # a cube escape before a norm escape
    ([[0.0] * 3, OUT, [1.0 + 5e-10, 0.0, 0.0]], 1, 1),  # in both groups
    ([[0.0] * 3, [0.0] * 3, OUT], 2, 1),
])
def test_naive_rows_raise_the_first_cube_escape_in_channel_order(us, row, coord):
    worker, channels = _escape_rows(us)
    with pytest.raises(RangeViolationError) as exc:
        worker.round(channels)
    with pytest.raises(RangeViolationError) as flat:
        QuantizerSpec(3, (2, 3, 2)[row]).scaled(1.0).quantize(np.array(us[row]))
    assert (exc.value.coord, exc.value.value, exc.value.r) == (
        flat.value.coord, flat.value.value, flat.value.r) == (coord, 1.0 + 5e-10, 1.0)


def test_naive_rows_raise_the_first_norm_escape_in_channel_order():
    worker, channels = _escape_rows([[0.0] * 3, BIG, [np.nan] * 3])
    with pytest.raises(ScheduleViolationError) as exc:
        worker.round(channels)
    assert (exc.value.t, exc.value.u_norm, exc.value.r) == (4, 2.0, 1.0)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_naive_rows_raise_the_escaping_rows_own_error(k):
    # one cursor steps every row's range as a column, and the first row
    # that leaves its range raises with its own t, ||u|| and r, once the
    # rows before it have passed; a later escape does not matter
    ranges = [1.0, 2.0, 0.5, 4.0]
    us = [[0.0, r / 2.0, 0.0] for r in ranges]
    us[k] = [0.0, 3.0 * ranges[k], 0.0]
    us[-1] = [np.nan] * 3 if k < 3 else us[-1]
    worker = NQGDWorker(lambda X: np.array(us), None,
                        [constant_range(r) for r in ranges],
                        _shared_coders(3, (2, 3, 2, 3)))
    channels = [Channel(3, R) for R in (2, 3, 2, 3)]
    for t, ch in zip((4, 5, 6, 7), channels):
        ch.send_iterate(t, np.zeros(3))
    with pytest.raises(ScheduleViolationError) as exc:
        worker.round(channels)
    assert (exc.value.t, exc.value.u_norm, exc.value.r) == (
        4 + k, 3.0 * ranges[k], ranges[k])
    assert type(exc.value.u_norm) is float and type(exc.value.r) is float


def test_naive_rows_check_every_frame_before_containment():
    # row 0 leaves its range and channel 2 holds a mis-sized frame: the
    # stacked read checks every frame first, so the round raises
    # FramingError, with every channel's frame taken
    worker, channels = _escape_rows([BIG, [0.0] * 3, [0.0] * 3])
    channels[2]._down[0] = pack_iterate(4, np.zeros(4))
    with pytest.raises(FramingError, match="expected a 28-byte"):
        worker.round(channels)
    assert not any(ch._down for ch in channels)


ONE_PASS = ("_cells", "_pack", "_unpack", "_centers")
PUBLIC_ROUTE = ("quantize", "encode_payload", "decode_payload", "reconstruct",
                "from_indices")


def test_naive_rows_code_each_rate_once_per_round(monkeypatch):
    # K = 8 workers at one rate, then at two (interleaved channels): each
    # rate's rows take one pass per round, the cell map and the bit packing
    # on the workers, the unpacking and the cell centers on the server, and
    # neither end takes the public route; naive workers keep no error
    # memory, so they never reconstruct
    calls = dict.fromkeys(ONE_PASS + PUBLIC_ROUTE, 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(quantizer.ScaledQuantizer, "quantize")
    counted(quantizer.Payload, "from_indices")
    for name in ONE_PASS + ("encode_payload", "decode_payload", "reconstruct"):
        counted(quantizer, name)
    for L_list, sum_rate, rates in [([2.0] * 8, 40, [5] * 8),
                                    ([4.0, 1.0] * 4, 48, [7, 5] * 4)]:
        calls.update(dict.fromkeys(calls, 0))
        prob = make_interpolation_problem(8, 16, 32, [2.0] * 8, 23,
                                          L_list=L_list)
        assert waterfill_bits(prob.L_list, sum_rate) == rates
        rec, _ = run_nq(prob, rates, t_max=50)
        per_round = rec.terminal_T * len(set(rates))
        assert rec.terminal_T > 1
        assert calls == {**dict.fromkeys(ONE_PASS, per_round),
                         **dict.fromkeys(PUBLIC_ROUTE, 0)}


@pytest.mark.parametrize("K", [1, 3])
def test_naive_workers_keep_no_memory_and_never_reconstruct(monkeypatch, K):
    # one worker or K, a naive worker sends grad(x) as it is: it has no
    # error memory to keep, so its round never maps cells to their centers
    prob = make_interpolation_problem(K, 12, 24, [4.0, 2.0, 8.0][:K], 29)
    worker, server, channels = build_nq_engine(prob, [4] * K)
    assert type(worker) is NQGDWorker
    centers, calls = quantizer._centers, []

    def counted(*args, **kwargs):
        calls.append(args)
        return centers(*args, **kwargs)

    monkeypatch.setattr(quantizer, "_centers", counted)
    for t in range(20):
        server.broadcast(channels)
        worker.round(channels)
        assert calls == [] and worker.memory == (), t
        server.collect(channels)
        assert len(calls) == 1  # the server decodes through the centers
        calls.clear()
    assert worker.violations == []
