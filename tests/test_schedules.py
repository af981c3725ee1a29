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
            assert r == pytest.approx(s.next(t, 0.0, 0.0), rel=1e-12)


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
    assert stacked.t == 10_001
    assert seen_subnormal == (sigma in (0.9, 0.5))
    assert not stacked.schedule.L.flags.writeable


def _bits(r):
    return np.asarray(r, dtype=np.float64).tobytes()


def _textbook(s, t, r1, r2):
    """r_t as the module docstring writes it, in its order of operations."""
    lead = s.sigma**t * s.L * s.D
    if s.scheme == "dq-gd":
        return lead + s.eps * r1 if t else s.L * s.D
    if s.scheme == "nq-gd":
        return lead
    if s.scheme == "dq-agd":
        lead = lead * s.lam
    else:
        sub = max(t, 1) ** s.alpha * math.e**s.alpha
        lead = s.sigma**t * sub * math.sqrt(2.0) * s.L * s.D
    return lead + s.eps * (r1 + s.gamma * (r1 + r2))


@pytest.mark.parametrize("scheme,alpha,kappa,R", [
    ("dq-gd", 0.0, 5.0, 2), ("dq-gd", 0.0, 25.0, 8), ("dq-agd", 0.0, 25.0, 2),
    ("dq-agd", 0.0, 25.0, 6), ("dq-hb", 0.0, 5.0, 2), ("dq-hb", 0.0, 25.0, 8),
    ("dq-hb", 0.5, 5.0, 2), ("dq-hb", 3.0, 25.0, 4), ("nq-gd", 0.0, 5.0, 4),
    ("nq-rows", 0.0, 5.0, 4)])
def test_one_call_step_keeps_both_ends_on_the_next_recursion(scheme, alpha,
                                                             kappa, R):
    # n = 16: eps = 1 at R = 2, where the dq ranges stall or grow; the
    # cursor's one-call step gives the textbook recursion's ranges bit for
    # bit for 5000 rounds on both ends
    hp = optimal_hyperparams(1.0, 1.0 / kappa, "gd" if "nq" in scheme
                             else scheme[3:])
    consts = dict(L=2.5, D=1.3, sigma=hp.sigma, gamma=hp.gamma, rho=4.0, R=R,
                  lam=agd_lambda(kappa), alpha=alpha)
    if scheme == "nq-rows":
        s = naive_rows([RangeSchedule("nq-gd", **{**consts, "L": L})
                        for L in (2.5, 0.25, 1e-3)])
    else:
        s = RangeSchedule(scheme, **consts)
    worker, server = ScheduleCursor(s), ScheduleCursor(s)
    r1 = r2 = 0.0
    for t in range(5000):
        r = _textbook(s, t, r1, r2)
        assert _bits(worker.step()) == _bits(server.step()) == _bits(r), t
        assert _bits(s.next(t, r1, r2)) == _bits(r), t
        r2, r1 = r1, r


# a range, its neighbours an ulp away, the zeros, inf and NaN
_RANGES = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(("dq-gd", "dq-agd", "dq-hb")),
       sigma=st.floats(0.0, 1.0), gamma=st.floats(0.0, 0.99),
       R=st.integers(0, 8), alpha=st.sampled_from((0.0, 0.5)),
       t=st.integers(0, 3000), r1=_RANGES, r2=_RANGES, data=st.data())
def test_step_to_steps_only_onto_the_bits_of_the_next_range(
        scheme, sigma, gamma, R, alpha, t, r1, r2, data):
    s = RangeSchedule(scheme, L=2.5, D=1.3, sigma=sigma, gamma=gamma,
                      rho=4.0, R=R, alpha=alpha)
    cur = ScheduleCursor(s)
    cur.t, cur.r1, cur.r2 = t, r1, r2
    nxt = s.next(t, r1, r2)
    near = [nxt, -nxt, math.nextafter(nxt, math.inf),
            math.nextafter(nxt, -math.inf)]
    r = data.draw(st.sampled_from(near) | _RANGES)
    stepped = cur.step_to(r)
    assert stepped == (_bits(r) == _bits(nxt))
    if stepped:
        assert (cur.t, _bits(cur.r1), _bits(cur.r2)) == (t + 1, _bits(nxt),
                                                          _bits(r1))
    else:
        assert (cur.t, _bits(cur.r1), _bits(cur.r2)) == (t, _bits(r1),
                                                          _bits(r2))


def test_a_schedule_pickles_with_its_recursion_bound():
    # the bound recursion is built of module functions, so a schedule that
    # has stepped still travels to a pool worker
    import pickle

    s = RangeSchedule("dq-hb", L=2.0, D=1.5, sigma=0.7, gamma=0.3, rho=2.0,
                      R=3, alpha=0.5)
    r = s.next(4, 1.0, 0.5)
    assert pickle.loads(pickle.dumps(s)).next(4, 1.0, 0.5) == r


def test_naive_rows_need_one_sigma_and_one_D():
    a = RangeSchedule("nq-gd", L=1.0, D=2.0, sigma=0.5)
    for other in (dict(sigma=0.6), dict(D=3.0), dict(scheme="dq-gd")):
        b = RangeSchedule(**{"scheme": "nq-gd", "L": 2.0, "D": 2.0,
                             "sigma": 0.5, **other})
        with pytest.raises(ValueError, match="one sigma and one D"):
            naive_rows([a, b])
