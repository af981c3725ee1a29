"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Criteria 1, 2, 3, 9 and 10 are the rows of `dqgrad.selfcheck.CHECKS`,
which `dqgrad verify` also runs; here they run at full size. Two
sub-criteria are marked xfail(strict=True): the reference values they pin
down contradict what the implemented closed forms give; each carries the
measured truth in its printed line and is documented in the README.
"""

import math
import os

import numpy as np
import pytest

from dqgrad import bounds
from dqgrad.engines import build_dq_engine, run_protocol
from dqgrad.harness import (
    ExperimentConfig,
    run_dq,
    run_nq,
    run_sweep,
)
from dqgrad.hyperparams import (
    gamma_agd,
    gamma_hb,
    sigma_agd,
    sigma_gd,
    sigma_hb,
)
from dqgrad.problems import load_matrix_market, make_gaussian_ls
from dqgrad.rng import make_rng
from dqgrad.selfcheck import CHECKS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
# the sweep fixtures run on up to two of the CPUs this process may use;
# run_sweep gives the same rows at any jobs
JOBS = min(2, len(os.sched_getaffinity(0)))


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# --- 1, 2, 3, 9, 10: the rows shared with `dqgrad verify` -------------------


@pytest.mark.parametrize("row", CHECKS, ids=lambda row: f"c{row[0]}")
def test_shared_criterion(row):
    num, _, check, _, full = row
    ok, detail = check(full)
    report(num, ok, detail)
    assert ok


@pytest.mark.parametrize("cpus, pools", [(1, []), (2, [2]), (8, [2])])
def test_c3_maps_its_draws_over_a_pool_only_with_cpus_to_spare(
        monkeypatch, cpus, pools):
    import concurrent.futures

    from dqgrad import _blas, selfcheck

    started, real = [], concurrent.futures.ProcessPoolExecutor

    def recorded(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    monkeypatch.setattr(_blas, "cpu_count", lambda: cpus)
    ok, detail = selfcheck.check_containment(30)
    assert ok and detail.startswith("30 randomized runs")
    assert "0 violations" in detail
    assert started == pools


# --- 4 + 5: phase transition at kappa = 5 ------------------------------------

FIG2 = ExperimentConfig(
    name="fig2-gaussian",
    algos=("gd", "dq-gd", "nq-gd"),
    problem={"kind": "gaussian", "m": 32, "n": 16, "kappa": 5.0},
    rates=tuple(range(3, 11)),
    trials=50,
    seed=7,
    jobs=JOBS,
)


@pytest.fixture(scope="module")
def fig2_rows():
    return run_sweep(FIG2)


def test_c4_dq_gd_phase_transition(fig2_rows):
    kappa, rho = 5.0, 4.0
    s = sigma_gd(kappa)
    gd_mean = next(r.emp_mean for r in fig2_rows if r.algo == "gd")
    plateau_from = math.ceil(math.log2(rho / s)) + 1
    worst_excess, worst_gap = -1.0, -1.0
    for r in fig2_rows:
        if r.algo != "dq-gd":
            continue
        worst_excess = max(worst_excess, r.emp_mean - max(s, rho * 2.0 ** (-r.R)))
        if r.R >= plateau_from:
            worst_gap = max(worst_gap, abs(r.emp_mean - gd_mean))
    ok = worst_excess <= 0.02 and worst_gap <= 0.02
    report(4, ok, f"dq-gd mean <= max{{sigma, 4*2^-R}} + 0.02 "
                  f"(max excess {worst_excess:+.4f}); plateau within "
                  f"{worst_gap:.4f} of unquantized for R >= {plateau_from}")
    assert ok


def test_c5_nq_gd_bound_and_separation(fig2_rows):
    kappa = 5.0
    s = sigma_gd(kappa)
    worst_excess = -1.0
    separations = {}
    dq = {r.R: r.emp_mean for r in fig2_rows if r.algo == "dq-gd"}
    for r in fig2_rows:
        if r.algo != "nq-gd":
            continue
        bound = s + (2 * kappa / (kappa + 1)) * 4.0 * 2.0 ** (-r.R)
        worst_excess = max(worst_excess, r.emp_mean - bound)
        if r.R in (4, 5, 6):
            separations[r.R] = r.emp_mean - dq[r.R]
    ok = worst_excess <= 0.02 and all(v > 0 for v in separations.values())
    report(5, ok, f"nq-gd mean <= additive bound + 0.02 (max excess "
                  f"{worst_excess:+.4f}); nq - dq separation at R=4,5,6: "
                  + ", ".join(f"{v:+.3f}" for v in separations.values()))
    assert ok


# --- 6: momentum plateaus at kappa = 25 ---------------------------------------

FIG3 = ExperimentConfig(
    name="fig3-momentum",
    algos=("gd", "agd", "hb", "dq-gd", "dq-agd", "dq-hb"),
    problem={"kind": "gaussian", "m": 32, "n": 16, "kappa": 25.0},
    rates=tuple(range(4, 11)),
    trials=50,
    seed=11,
    hb_alpha=0.0,
    jobs=JOBS,
)

_R2_PLUS_1 = {
    "dq-gd": math.ceil(bounds.thresholds(16, sigma_gd(25.0), 0.0)[1]) + 1,
    "dq-agd": math.ceil(
        bounds.thresholds(16, sigma_agd(25.0), gamma_agd(25.0))[1]) + 1,
    "dq-hb": math.ceil(
        bounds.thresholds(16, sigma_hb(25.0), gamma_hb(25.0))[1]) + 1,
}


@pytest.fixture(scope="module")
def fig3_rows():
    return run_sweep(FIG3)


def _plateau_gap(rows, algo, ref_algo):
    ref = next(r.emp_mean for r in rows if r.algo == ref_algo)
    gaps = [abs(r.emp_mean - ref) for r in rows
            if r.algo == algo and r.R >= _R2_PLUS_1[algo]]
    return max(gaps), ref


def test_c6_dq_gd_plateau(fig3_rows):
    gap, _ = _plateau_gap(fig3_rows, "dq-gd", "gd")
    ok = gap <= 0.02
    report(6, ok, f"dq-gd plateau within {gap:.4f} of unquantized gd "
                  f"for R >= {_R2_PLUS_1['dq-gd']}")
    assert ok


def test_c6_dq_hb_plateau(fig3_rows):
    gap, _ = _plateau_gap(fig3_rows, "dq-hb", "hb")
    level = max(r.emp_mean for r in fig3_rows
                if r.algo == "dq-hb" and r.R >= _R2_PLUS_1["dq-hb"])
    ok = gap <= 0.02 and level <= sigma_hb(25.0) + 0.02
    report(6, ok, f"dq-hb plateau within {gap:.4f} of unquantized hb and at "
                  f"{level:.4f} <= sigma_hb + 0.02 = {sigma_hb(25.0) + 0.02:.4f}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the accelerated scheme's range schedule follows its worst-case "
           "rate sigma_agd = 0.894, while unquantized AGD empirically runs "
           "at ~0.81 on least squares (not its worst case); the plateau "
           "therefore sits ~0.09 above the unquantized empirical factor",
)
def test_c6_dq_agd_plateau_matches_unquantized(fig3_rows):
    gap, ref = _plateau_gap(fig3_rows, "dq-agd", "agd")
    ok = gap <= 0.02
    report(6, ok, f"dq-agd plateau vs unquantized agd empirical ({ref:.4f}): "
                  f"gap {gap:.4f} (spec tolerance 0.02; known unattainable, "
                  f"see README)")
    assert ok


def test_c6_dq_agd_plateau_at_design_rate(fig3_rows):
    # what the schedule does guarantee: the plateau rests on sigma_agd
    level = max(r.emp_mean for r in fig3_rows
                if r.algo == "dq-agd" and r.R >= _R2_PLUS_1["dq-agd"])
    ok = abs(level - sigma_agd(25.0)) <= 0.02
    report(6, ok, f"dq-agd plateau {level:.4f} within 0.02 of its design "
                  f"rate sigma_agd = {sigma_agd(25.0):.4f}")
    assert ok


# --- 7: finite-t envelopes ----------------------------------------------------


def test_c7_finite_t_envelopes():
    gen = make_rng(77)
    checks = 0
    violations = 0
    for algo in ("dq-gd", "dq-agd", "dq-hb", "nq-gd"):
        for trial in range(20):
            kappa = float(gen.uniform(2.0, 30.0))
            n = int(gen.choice([4, 16]))
            R = int(gen.integers(2, 11))
            _, obj = make_gaussian_ls(2 * n, n, kappa, 70_000 + trial)
            alpha = 1.0 if algo == "dq-hb" else 0.0
            if algo == "nq-gd":
                rec, _ = run_nq(obj, [R], t_max=300)
                s = bounds.nq_sigma([obj.L], obj.mu, [R], n)
                for t, d in enumerate(rec.distances):
                    checks += 1
                    violations += d > bounds.envelope_nq_gd(t, s, obj.D) * (1 + 1e-9)
            elif algo == "dq-agd":
                # the momentum envelope bounds the gradient-step iterate
                worker, server, channel = build_dq_engine(algo, obj, R, alpha)
                dists = [obj.D]
                run_protocol(
                    server, worker, [channel], 300,
                    on_iteration=lambda t, srv, w: dists.append(
                        float(np.linalg.norm(srv.state[1] - obj.x_star))),
                    stop=lambda t, srv: np.linalg.norm(srv.state[1] - obj.x_star)
                    < 1e-13 * max(1, obj.D),
                )
                for t, d in enumerate(dists):
                    checks += 1
                    violations += d > bounds.envelope_dq_agd(
                        t, obj.L, obj.mu, obj.D, n, R) * (1 + 1e-9)
            else:
                rec = run_dq(algo, obj, R, t_max=300, alpha=alpha)
                for t, d in enumerate(rec.distances):
                    checks += 1
                    violations += d > bounds.finite_t_envelope(
                        algo, t, obj.L, obj.mu, obj.D, n, R, alpha=alpha
                    ) * (1 + 1e-9)
    ok = violations == 0
    report(7, ok, f"{checks} envelope evaluations over 20 runs x 4 schemes, "
                  f"{violations} violations")
    assert ok


# --- 8: root and threshold algebra -------------------------------------------


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    if flo * f(hi) >= 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: "
                         f"f(lo)={f(lo):.6f}, f(hi)={f(hi):.6f}")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c8_characteristic_roots():
    gen = make_rng(8)
    worst = 0.0
    for _ in range(100):
        gamma = float(gen.uniform(0.0, 0.95))
        rho = float(gen.uniform(1.0, 8.0))
        R = int(gen.integers(1, 13))
        plus, minus = bounds.phi_roots(gamma, rho, R)
        worst = max(worst, abs(bounds.char_poly(plus, gamma, rho, R)),
                    abs(bounds.char_poly(minus, gamma, rho, R)))
    ok = worst <= 1e-12
    report(8, ok, f"p(phi_plus/minus) = 0 over 100 random draws, "
                  f"max |p| = {worst:.2e} <= 1e-12")
    assert ok


def test_c8_matching_threshold_crossing():
    def gap(kappa):
        return (bounds.thresholds(1, sigma_agd(kappa), gamma_agd(kappa))[1]
                - bounds.thresholds(1, sigma_gd(kappa), 0.0)[1])

    root = _bisect(gap, 2.0, 2.4)
    ok = 2.0 < root < 2.4
    report(8, ok, f"R2(agd) crosses R2(gd) at kappa = {root:.4f}, "
                  f"inside (2.0, 2.4)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="with sigma_agd = sqrt(1 - 1/sqrt(kappa)) and sigma_gd = "
           "(kappa-1)/(kappa+1), the crossing solves u^3 - 3u^2 - u - 1 = 0 "
           "(u = sqrt(kappa)), i.e. kappa = 11.4445 -- outside the required "
           "(11.5, 12.2) bracket",
)
def test_c8_rate_crossing_bracket():
    f = lambda k: sigma_agd(k) - sigma_gd(k)
    true_root = _bisect(f, 2.0, 50.0)
    print(f"\n[criterion 8] FAIL (expected): sigma_agd = sigma_gd at kappa = "
          f"{true_root:.4f}, outside the required bracket (11.5, 12.2); "
          f"see README")
    root = _bisect(f, 11.5, 12.2)  # raises: no sign change in this bracket
    assert 11.5 < root < 12.2


def test_c8_sigma_crossing_true_location():
    f = lambda k: sigma_agd(k) - sigma_gd(k)
    root = _bisect(f, 2.0, 50.0)
    ok = abs(root - 11.4445) <= 1e-3 and f(root - 1) > 0 > f(root + 1)
    report(8, ok, f"sigma_agd/sigma_gd crossing measured at kappa = "
                  f"{root:.4f} (supplementary to the xfailed bracket check)")
    assert ok


# --- 11: real-matrix replication -----------------------------------------------


def _ash331_path():
    real = os.path.join(DATA_DIR, "ash331.mtx")
    if os.path.exists(real):
        return real, "SuiteSparse ash331"
    return (os.path.join(DATA_DIR, "ash331_synthetic.mtx"),
            "synthetic ash331 stand-in (same shape/sparsity; fetch the real "
            "matrix with tests/data/fetch_ash331.py)")


@pytest.fixture(scope="module")
def ash_rows():
    path, label = _ash331_path()
    A = load_matrix_market(path)
    assert A.shape == (331, 104)
    config = ExperimentConfig(
        name="ash331",
        algos=("gd", "dq-gd", "nq-gd"),
        problem={"kind": "mtx", "path": path, "matrix": A},
        rates=tuple(range(1, 13)),
        trials=20,
        seed=13,
        t_max=4000,
        jobs=JOBS,
    )
    return run_sweep(config), label


def test_c11_ash331_replication(ash_rows):
    rows, label = ash_rows
    n = 104
    rho = math.sqrt(n)
    kappa = next(iter({r.unquantized_sigma for r in rows if r.algo == "gd"}))
    # recover kappa from sigma_gd = (k-1)/(k+1)
    kappa = (1 + kappa) / (1 - kappa)
    dq = {r.R: r.emp_mean for r in rows if r.algo == "dq-gd"}
    nq = {r.R: r.emp_mean for r in rows if r.algo == "nq-gd"}
    dominated = all(dq[R] < nq[R] for R in dq if dq[R] < 1 and nq[R] < 1)
    excess_dq = max(dq[R] - (bounds.achievable_rate("dq-gd", kappa, n, R, rho))
                    for R in dq)
    excess_nq = max(nq[R] - (bounds.achievable_rate("nq-gd", kappa, n, R, rho))
                    for R in nq)
    ok = dominated and excess_dq <= 0.02 and excess_nq <= 0.02
    both_lt1 = [R for R in sorted(dq) if dq[R] < 1 and nq[R] < 1]
    report(11, ok, f"{label}: kappa = {kappa:.2f}; dq-gd below nq-gd at every "
                   f"R in {both_lt1} where both < 1; bound excesses "
                   f"dq {excess_dq:+.4f}, nq {excess_nq:+.4f} (<= 0.02)")
    assert ok
