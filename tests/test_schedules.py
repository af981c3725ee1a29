import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqgrad.hyperparams import agd_lambda, optimal_hyperparams
from dqgrad.rng import make_rng
from dqgrad.schedules import (
    SCHEMES,
    RangeSchedule,
    ScheduleCursor,
    naive_rows,
    waterfill,
    waterfill_bits,
)


def unroll(schedule, steps):
    cur = ScheduleCursor(schedule)
    return [cur.step() for _ in range(steps)]


def test_first_order_recursion_by_hand():
    # sigma=0.5, L*D=1, eps=0.25: r = 1, 0.75, 0.4375, ...
    s = RangeSchedule(scheme="dq-gd", L=1.0, D=1.0, sigma=0.5, rho=1.0, R=2)
    assert s.eps == 0.25
    r = unroll(s, 3)
    assert r[0] == 1.0
    assert r[1] == pytest.approx(0.75)
    assert r[2] == pytest.approx(0.4375)


def test_stateless_next_matches_cursor():
    s = RangeSchedule(scheme="dq-agd", L=2.0, D=1.5, sigma=0.7, gamma=0.3,
                      rho=2.0, R=3, lam=4.0)
    r1 = r2 = 0.0
    for t, r in enumerate(unroll(s, 30)):
        assert s.next(t, r1, r2) == r
        r2, r1 = r1, r


def test_momentum_recursion_with_zero_gamma_scales_like_first_order():
    # same recursion shape as dq-gd, scaled by the lambda prefactor
    lam = np.sqrt(5.0)
    agd = RangeSchedule(scheme="dq-agd", L=1.0, D=1.0, sigma=0.5, gamma=0.0,
                        rho=1.0, R=2, lam=lam)
    gd = RangeSchedule(scheme="dq-gd", L=1.0, D=1.0, sigma=0.5, rho=1.0, R=2)
    for a, g in zip(unroll(agd, 20), unroll(gd, 20)):
        assert a == pytest.approx(lam * g, rel=1e-12)


def test_zero_feedback_gives_pure_leading_term():
    for scheme, kw in (
        ("dq-gd", {}),
        ("dq-agd", {"gamma": 0.4, "lam": 3.0}),
        ("dq-hb", {"gamma": 0.4}),
    ):
        s = RangeSchedule(scheme=scheme, L=1.0, D=2.0, sigma=0.6, rho=1.0,
                          R=400, **kw)
        for t, r in enumerate(unroll(s, 10)):
            assert r == pytest.approx(s.leading(t), rel=1e-12)


def test_hb_alpha_zero_keeps_nonzero_start():
    s = RangeSchedule(scheme="dq-hb", L=1.0, D=1.0, sigma=0.5, gamma=0.25,
                      rho=1.0, R=2, alpha=0.0)
    assert unroll(s, 1)[0] == pytest.approx(np.sqrt(2.0))
    s1 = RangeSchedule(scheme="dq-hb", L=1.0, D=1.0, sigma=0.5, gamma=0.25,
                       rho=1.0, R=2, alpha=1.0)
    # max(t,1)**alpha keeps r_0 positive for alpha > 0 as well
    assert unroll(s1, 1)[0] == pytest.approx(np.e * np.sqrt(2.0))


def test_nq_schedule_is_geometric():
    s = RangeSchedule(scheme="nq-gd", L=3.0, D=2.0, sigma=0.8, rho=4.0, R=5)
    r = unroll(s, 6)
    for t in range(6):
        assert r[t] == pytest.approx(0.8**t * 6.0)


def test_waterfill_two_workers():
    nu, rates = waterfill([4.0, 1.0], 2.0)
    assert nu == pytest.approx(1.0, abs=1e-9)
    assert rates[0] == pytest.approx(2.0, abs=1e-9)
    assert rates[1] == pytest.approx(0.0, abs=1e-9)


def test_waterfill_symmetry():
    nu, rates = waterfill([3.0] * 4, 6.0)
    for r in rates:
        assert r == pytest.approx(1.5, abs=1e-9)


def test_waterfill_zero_budget():
    nu, rates = waterfill([2.0, 7.0, 1.0], 0.0)
    assert nu >= 7.0
    assert rates == [0.0, 0.0, 0.0]


def test_waterfill_sum_identity_and_monotonicity():
    gen = make_rng(21)
    for _ in range(100):
        K = int(gen.integers(1, 8))
        L = (10.0 ** gen.uniform(-2, 2, size=K)).tolist()
        R = float(gen.uniform(0, 30))
        nu, rates = waterfill(L, R)
        assert sum(rates) == pytest.approx(R, abs=1e-9)
        order = np.argsort(L)
        for a, b in zip(order, order[1:]):
            assert rates[a] <= rates[b] + 1e-9
        for Lk, Rk in zip(L, rates):
            if Rk > 1e-9:
                assert Rk == pytest.approx(np.log2(Lk / nu), abs=1e-7)


def test_waterfill_bits_matches_closed_form():
    assert waterfill_bits([4.0, 1.0], 2) == [2, 0]
    assert waterfill_bits([1.0, 1.0], 4) == [2, 2]
    # greedy minimizes sum L_k 2^-R_k over integer allocations
    gen = make_rng(9)
    for _ in range(50):
        L = (10.0 ** gen.uniform(-1, 1, size=3)).tolist()
        R = int(gen.integers(0, 9))
        rates = waterfill_bits(L, R)
        best = sum(Lk * 2.0 ** (-Rk) for Lk, Rk in zip(L, rates))
        for _ in range(200):
            alt = gen.multinomial(R, [1 / 3] * 3).tolist()
            val = sum(Lk * 2.0 ** (-Rk) for Lk, Rk in zip(L, alt))
            assert best <= val + 1e-12


def test_hyperparams_reference_values():
    hp = optimal_hyperparams(4.0, 1.0, "gd")
    assert (hp.eta, hp.sigma) == (pytest.approx(0.4), pytest.approx(0.6))
    hp = optimal_hyperparams(4.0, 1.0, "agd")
    assert hp.eta == pytest.approx(0.25)
    assert hp.gamma == pytest.approx(1.0 / 3.0)
    assert hp.sigma == pytest.approx(np.sqrt(0.5))
    hp = optimal_hyperparams(4.0, 1.0, "hb")
    assert hp.eta == pytest.approx(4.0 / 9.0)
    assert hp.gamma == pytest.approx(1.0 / 9.0)
    assert hp.sigma == pytest.approx(1.0 / 3.0)


def test_hyperparams_validation():
    from dqgrad.hyperparams import InvalidConstantsError

    with pytest.raises(InvalidConstantsError):
        optimal_hyperparams(1.0, 2.0, "gd")
    with pytest.raises(InvalidConstantsError):
        optimal_hyperparams(1.0, 0.0, "gd")
    with pytest.raises(InvalidConstantsError):
        optimal_hyperparams(1.0, 1.0, "newton")


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(SCHEMES),
       L=st.floats(1e-3, 1e3), D=st.floats(1e-3, 1e3), sigma=st.floats(0.0, 0.999),
       gamma=st.floats(0.0, 1.0), rho=st.floats(0.5, 40.0), R=st.integers(0, 62),
       lam=st.floats(0.5, 10.0), alpha=st.floats(0.0, 3.0))
def test_channel_ends_stay_in_schedule_sync(scheme, L, D, sigma, gamma, rho, R,
                                            lam, alpha):
    # worker and server each unroll their own copy of the public constants
    consts = dict(scheme=scheme, L=L, D=D, sigma=sigma, gamma=gamma, rho=rho,
                  R=R, lam=lam, alpha=alpha)
    worker, server = RangeSchedule(**consts), RangeSchedule(**consts)
    assert worker.eps == server.eps == rho * 2.0**-R
    assert unroll(worker, 60) == unroll(server, 60)
    assert worker.eps == rho * 2.0**-R  # cached, unchanged after use


# ---------------------------------------------------------------------------
# settled ranges


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(("dq-gd", "dq-agd", "dq-hb")),
       kappa=st.floats(1.5, 100.0), n=st.sampled_from((4, 16, 64)),
       R=st.integers(1, 4), alpha=st.sampled_from((0.0, 0.5, 3.0)),
       LD=st.floats(1e-3, 1e3))
def test_a_settled_range_stands_still_for_good(scheme, kappa, n, R, alpha, LD):
    # the paper's constants, with eps = sqrt(n) * 2**-R from 1/8 to 8 and
    # exactly 1 at (n, R) = (4, 1), (16, 2), (64, 3)
    hp = optimal_hyperparams(1.0, 1.0 / kappa, scheme[3:])
    s = RangeSchedule(scheme=scheme, L=LD, D=1.0, sigma=hp.sigma,
                      gamma=hp.gamma, rho=math.sqrt(n), R=R,
                      lam=agd_lambda(kappa) if scheme == "dq-agd" else 1.0,
                      alpha=alpha if scheme == "dq-hb" else 0.0)
    peak = s.alpha / -math.log(s.sigma) if s.alpha else 0.0
    cur = ScheduleCursor(s)
    while not cur.settled():
        if cur.t == 3000:
            return
        cur.step()
    r = cur.step()
    # below eps = 1 only a range that collapsed into the subnormals, where
    # rounding holds it, or that grew to inf stands still
    assert s.eps >= 1.0 or not sys.float_info.min <= r < math.inf
    assert cur.t - 1 >= peak
    assert all(cur.step() == r for _ in range(2000))


def test_a_stalled_range_settles_only_past_its_peak():
    # eps = 1, gamma = 0: the heavy-ball range stands still from t = 1, and
    # its leading term is absorbed at t = 2, but t**alpha * sigma**t still
    # rises there: its peak is at alpha / ln(1/sigma) = 2.1
    sigma, alpha = math.exp(-100.0), 210.0
    s = RangeSchedule(scheme="dq-hb", L=1.0, D=1.0, sigma=sigma, rho=2.0, R=1,
                      alpha=alpha)
    r = s.next(0, 0.0, 0.0)
    assert s.next(1, r, 0.0) == s.next(2, r, r) == r
    assert r + 2.0 * s.leading(2) == r
    assert not s.settled(2, r, r)
    assert s.settled(3, r, r)


@pytest.mark.parametrize("scheme", ["dq-gd", "dq-agd", "dq-hb", "nq-gd"])
def test_settled_needs_a_fixed_point(scheme):
    # eps = 1 and sigma = 0: from t = 2 on the leading term is 0
    s = RangeSchedule(scheme=scheme, L=1.0, D=1.0, sigma=0.0, rho=2.0, R=1)
    assert not s.settled(1, 1.0, 1.0)  # r_{t-2} is not a range yet
    assert not s.settled(5, 1.0, 2.0)
    assert not s.settled(5, math.nan, math.nan)
    # gd's feedback is r itself; a zero momentum makes the others alike; the
    # naive range has no feedback at all
    assert s.settled(5, 1.0, 1.0) == (scheme != "nq-gd")
    grows = RangeSchedule(scheme=scheme, L=1.0, D=1.0, sigma=1.5, rho=2.0, R=1)
    assert not grows.settled(5, 1.0, 1.0)
    # sigma = 1/2: 2**-5 is not absorbed into 1, 2**-60 is; past t = 1022,
    # sigma**t is no normal float and its rounding error is no longer relative
    halves = RangeSchedule(scheme=scheme, L=1.0, D=1.0, sigma=0.5, rho=2.0, R=1)
    assert [halves.settled(t, 1.0, 1.0) for t in (5, 60, 1100)] == [
        False, scheme != "nq-gd", False]


# ---------------------------------------------------------------------------
# the K naive rows of one cursor


# sigma**t: normal throughout, through the subnormals to 0 (0.9 near t = 7000,
# 0.5 near t = 1074), 0 from t = 1 on, and 1
@pytest.mark.parametrize("sigma", [0.999, 0.9, 0.5, 0.0, 1.0])
def test_one_cursor_of_naive_rows_steps_as_its_rows_bitwise(sigma):
    Ls = [1.0, 0.25, 7.3, 1e-300, 3e300, 5e-324, 0.0, 1.0 / 3.0]
    D = 1.7
    rows = [RangeSchedule("nq-gd", L=L, D=D, sigma=sigma, rho=4.0, R=R)
            for L, R in zip(Ls, range(1, 9))]
    stacked, flat = ScheduleCursor(naive_rows(rows)), [ScheduleCursor(s) for s in rows]
    seen_subnormal = False
    for t in range(10_001):
        column = stacked.step()
        assert column.shape == (len(rows), 1)
        ref = np.array([[c.step()] for c in flat])
        assert column.tobytes() == ref.tobytes(), t
        seen_subnormal |= 0.0 < sigma**t < sys.float_info.min
        # a column never reaches a comparison of ranges
        assert stacked.settled() is False
    assert stacked.t == 10_001
    assert seen_subnormal == (sigma in (0.9, 0.5))
    assert not stacked.schedule.L.flags.writeable


def test_naive_rows_need_one_sigma_and_one_D():
    a = RangeSchedule("nq-gd", L=1.0, D=2.0, sigma=0.5)
    for other in (dict(sigma=0.6), dict(D=3.0), dict(scheme="dq-gd")):
        b = RangeSchedule(**{"scheme": "nq-gd", "L": 2.0, "D": 2.0,
                             "sigma": 0.5, **other})
        with pytest.raises(ValueError, match="one sigma and one D"):
            naive_rows([a, b])
