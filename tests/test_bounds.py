import math

import numpy as np
import pytest

from dqgrad import bounds
from dqgrad.harness import run_dq, run_nq
from dqgrad.hyperparams import (
    gamma_agd,
    gamma_hb,
    optimal_hyperparams,
    sigma_agd,
    sigma_gd,
    sigma_hb,
)
from dqgrad.problems import make_gaussian_ls
from dqgrad.quantizer import QuantizerSpec
from dqgrad.rng import make_rng


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_achievable_examples():
    assert bounds.achievable_rate("dq-gd", 4, 1, 3, rho=1.0) == pytest.approx(0.6)
    raw = bounds.achievable_rate("dq-gd", 4, 16, 2)  # rho = 4
    assert raw == pytest.approx(1.0)
    assert bounds.clip_for_plot(raw) == 1.0
    # naive quantization pays additively
    assert bounds.achievable_rate("nq-gd", 4, 1, 3, rho=1.0) == pytest.approx(
        0.6 + (8 / 5) * 0.125
    )


def test_agd_curve_with_zero_momentum_equals_gd_curve():
    for R in range(1, 10):
        for n in (1, 4, 16):
            eps = QuantizerSpec(n, R).rho * 2.0 ** (-R)
            agd = max(sigma_gd(3.0), eps * bounds.phi(n, R, 0.0))
            assert agd == pytest.approx(bounds.achievable_rate("dq-gd", 3.0, n, R))
    assert bounds.phi(4, 3, 0.0) == pytest.approx(1.0)


def test_phi_roots_solve_characteristic_polynomial():
    plus, minus = bounds.phi_roots(1 / 3, 1.0, 2)  # eps = 0.25
    for root in (plus, minus):
        assert abs(bounds.char_poly(root, 1 / 3, 1.0, 2)) <= 1e-12
    assert plus > 0 >= minus
    assert plus == pytest.approx(0.25 * bounds.phi(1, 2, 1 / 3, rho=1.0))


def test_phi_zero_momentum_roots():
    plus, minus = bounds.phi_roots(0.0, 1.0, 3)
    assert plus == pytest.approx(0.125)
    assert minus == pytest.approx(0.0)


def test_vieta_identities():
    gen = make_rng(31)
    for _ in range(100):
        gamma = float(gen.uniform(0, 0.95))
        rho = float(gen.uniform(1, 8))
        R = int(gen.integers(1, 13))
        eps = rho * 2.0 ** (-R)
        plus, minus = bounds.phi_roots(gamma, rho, R)
        assert plus + minus == pytest.approx(eps * (1 + gamma), rel=1e-12)
        assert plus * minus == pytest.approx(-eps * gamma, rel=1e-10, abs=1e-15)
        assert abs(bounds.char_poly(plus, gamma, rho, R)) <= 1e-12
        assert abs(bounds.char_poly(minus, gamma, rho, R)) <= 1e-12


def test_thresholds_zero_momentum():
    r1, r2 = bounds.thresholds(16, 0.6, 0.0)
    assert r1 == pytest.approx(math.log2(4.0))
    assert r2 == pytest.approx(math.log2(4.0 / 0.6))


def test_threshold_marks_one_step_convergence():
    r1, r2 = bounds.thresholds(4, 0.0, 0.0)
    assert r2 is None


def test_r2_equivalence_with_char_poly_sign():
    # R >= R2 iff the error-decay root is at most sigma, i.e. p(sigma) >= 0
    gen = make_rng(7)
    for _ in range(200):
        kappa = float(gen.uniform(1.2, 60))
        n = int(gen.integers(1, 64))
        R = int(gen.integers(1, 14))
        sigma, gamma = sigma_agd(kappa), gamma_agd(kappa)
        _, r2 = bounds.thresholds(n, sigma, gamma)
        rho = QuantizerSpec(n, R).rho
        eps = rho * 2.0 ** (-R)
        lhs = eps * bounds.phi(n, R, gamma) <= sigma
        assert lhs == (R >= r2)


def test_hb_has_largest_matching_threshold():
    for kappa in (2.0, 5.0, 10.0, 50.0):
        n = 16
        r2 = {
            "gd": bounds.thresholds(n, sigma_gd(kappa), 0.0)[1],
            "agd": bounds.thresholds(n, sigma_agd(kappa), gamma_agd(kappa))[1],
            "hb": bounds.thresholds(n, sigma_hb(kappa), gamma_hb(kappa))[1],
        }
        assert r2["hb"] > r2["gd"]
        assert r2["hb"] > r2["agd"]


def test_r2_crossing_location():
    # R2(agd) < R2(gd) exactly for condition numbers below the crossing
    def gap(kappa):
        return (
            bounds.thresholds(1, sigma_agd(kappa), gamma_agd(kappa))[1]
            - bounds.thresholds(1, sigma_gd(kappa), 0.0)[1]
        )

    root = bisect(gap, 2.0, 2.4)
    assert 2.0 < root < 2.4
    assert root == pytest.approx(2.1798, abs=2e-3)
    assert gap(root - 0.2) < 0 < gap(root + 0.2)


def test_sigma_ordering_and_crossing():
    gen = make_rng(13)
    for _ in range(200):
        kappa = float(gen.uniform(1.01, 80))
        assert sigma_hb(kappa) < min(sigma_gd(kappa), sigma_agd(kappa))
    # sigma_agd dips below sigma_gd past a single crossing
    f = lambda k: sigma_agd(k) - sigma_gd(k)
    root = bisect(f, 2.0, 50.0)
    assert root == pytest.approx(11.4445, abs=1e-3)
    assert f(root - 1.0) > 0 > f(root + 1.0)


def test_converse_examples():
    assert bounds.converse_curve("gd", 4, 3) == pytest.approx(0.6)
    assert bounds.converse_curve("gm", 4, 3) == pytest.approx(1 / 3)
    assert bounds.converse_curve("gd", 4, 0.5) == pytest.approx(2.0 ** -0.5)


def test_converse_never_exceeds_achievable():
    for kappa in (1.5, 4.0, 25.0):
        for n in (1, 4, 16, 64):
            for R in range(1, 13):
                for algo, fam in (("dq-gd", "gd"), ("nq-gd", "gd"),
                                  ("dq-agd", "gm"), ("dq-hb", "gm")):
                    if fam == "gm" and algo == "dq-agd":
                        # agd's own rate floor is sigma_hb only through the
                        # general converse; compare against it directly
                        pass
                    assert bounds.converse_curve(fam, kappa, R) <= (
                        bounds.achievable_rate(algo, kappa, n, R) + 1e-12
                    )


def test_dq_gd_envelope_starts_at_D():
    assert bounds.envelope_dq_gd(0, 1.0, 0.25, 3.0, 16, 4) == pytest.approx(3.0)


def test_equality_branch_of_transient_factor():
    # sigma == eps triggers the linear-in-t branch
    assert bounds.b_coefficient(7, 0.25, 0.25) == 8.0
    assert bounds.b_coefficient(7, 0.5, 0.25) == pytest.approx(1.0)


def test_dq_gd_envelope_dominates_runs():
    gen = make_rng(17)
    for trial in range(20):
        kappa = float(gen.uniform(2, 20))
        R = int(gen.integers(2, 11))
        _, obj = make_gaussian_ls(32, 16, kappa, 500 + trial)
        rec = run_dq("dq-gd", obj, R, t_max=300)
        for t, d in enumerate(rec.distances):
            env = bounds.envelope_dq_gd(t, obj.L, obj.mu, obj.D, 16, R)
            assert d <= env * (1 + 1e-9)


def test_nq_envelope_dominates_runs():
    gen = make_rng(19)
    for trial in range(20):
        kappa = float(gen.uniform(2, 20))
        R = int(gen.integers(2, 11))
        _, obj = make_gaussian_ls(32, 16, kappa, 700 + trial)
        rec, _ = run_nq(obj, [R], t_max=300)
        s = bounds.nq_sigma([obj.L], obj.mu, [R], 16)
        for t, d in enumerate(rec.distances):
            assert d <= bounds.envelope_nq_gd(t, s, obj.D) * (1 + 1e-9)


def test_agd_unquantized_envelope_values():
    y_env, x_env = bounds.agd_unquantized_envelopes(0, 4.0, 1.0)
    assert y_env == pytest.approx(math.sqrt(5.0))
    assert y_env >= 1.0
    s, g = sigma_agd(4.0), gamma_agd(4.0)
    lam = (1 + g + g / s) * math.sqrt(5.0)
    assert x_env == pytest.approx(lam)
    assert bounds.agd_unquantized_envelopes(3, 4.0, 2.0)[0] == pytest.approx(
        s**3 * math.sqrt(5.0) * 2.0
    )


def test_agd_runs_stay_under_y_envelope():
    gen = make_rng(23)
    for trial in range(20):
        kappa = float(gen.uniform(1.5, 30))
        _, obj = make_gaussian_ls(32, 16, kappa, 900 + trial)
        from dqgrad.engines import initial_state, step
        hp = optimal_hyperparams(obj.L, obj.mu, "agd")
        state = initial_state("agd", obj.x0)
        floor = 1e-13 * max(1.0, obj.D)
        for t in range(1, 200):
            state = step("agd", state, obj.grad(state[0]), hp)
            _, y = state
            dist = np.linalg.norm(y - obj.x_star)
            if dist < floor:  # below here both sides are float noise
                break
            env = bounds.agd_unquantized_envelopes(t, obj.kappa, obj.D)[0]
            assert dist <= env * (1 + 1e-9)


def test_finite_t_dispatcher_matches_direct_calls():
    args = dict(L=1.0, mu=0.2, D=2.0, n=16, R=5)
    assert bounds.finite_t_envelope("dq-gd", 7, **args) == pytest.approx(
        bounds.envelope_dq_gd(7, **args)
    )
    assert bounds.finite_t_envelope("dq-agd", 7, **args) == pytest.approx(
        bounds.envelope_dq_agd(7, **args)
    )
    assert bounds.finite_t_envelope("dq-hb", 7, alpha=1.0, **args) == pytest.approx(
        bounds.envelope_dq_hb(7, alpha=1.0, **args)
    )


def test_rho_has_one_owner(monkeypatch, capsys):
    # the scalar kind's rho, patched to 2*sqrt(n), reaches the DQ and the
    # naive schedules, the sweep's bound column and `dqgrad bounds`
    from dqgrad.cli import main
    from dqgrad.engines import build_dq_engine, build_nq_engine
    from dqgrad.harness import ExperimentConfig, run_sweep
    from dqgrad.problems import make_interpolation_problem

    monkeypatch.setattr(QuantizerSpec, "rho",
                        property(lambda spec: 2.0 * math.sqrt(spec.n)))
    _, obj = make_gaussian_ls(32, 16, 5.0, 7)
    for algo in ("dq-gd", "dq-agd", "dq-hb"):
        worker, server, _ = build_dq_engine(algo, obj, 4)
        assert worker.cursor.schedule.rho == server.cursor.schedule.rho == 8.0
    for rates in ([4], [5, 3]):
        problem = make_interpolation_problem(len(rates), 16, 32,
                                             [4.0, 2.0][:len(rates)], 7)
        worker, server, _ = build_nq_engine(problem, rates)
        sigma = bounds.nq_sigma(problem.L_list, problem.mu, rates, 16, rho=8.0)
        for cursor in (worker.cursor, server.cursor):
            assert (cursor.schedule.rho, cursor.schedule.sigma) == (8.0, sigma)

    config = ExperimentConfig(algos=("dq-gd", "nq-gd"), rates=(2, 3), trials=1,
                              t_max=50)
    rows = run_sweep(config)
    assert [row.bound for row in rows] == [
        bounds.achievable_rate(algo, 5.0, 16, R, rho=8.0)
        for algo in ("dq-gd", "nq-gd") for R in (2, 3)]
    assert rows[0].bound != bounds.achievable_rate("dq-gd", 5.0, 16, 2, rho=4.0)

    assert main(["bounds", "--kappa", "4", "--n", "16"]) == 0
    assert capsys.readouterr().out.startswith("kappa=4.0 n=16 rho=8\n")
