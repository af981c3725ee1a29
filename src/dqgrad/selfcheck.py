"""Runtime invariant checks behind the `dqgrad verify` subcommand.

These are fast versions of the properties the test suite pins down:
error-compensated runs track their unquantized twins, quantizer inputs
stay inside the scheduled dynamic range, the adversarial GD instance
contracts at exactly its worst-case rate, and payload coding round-trips.
"""

import numpy as np

from .engines import build_dq_engine, initial_state, run_protocol, step
from .harness import dq_schedule, run_dq
from .hyperparams import optimal_hyperparams
from .problems import make_gaussian_ls, make_worst_case_gd
from .quantizer import decode_payload, encode_payload
from .rng import make_rng
from .schedules import waterfill

# ratios measured closer to the optimizer than this are float noise
RATIO_GUARD = 1e-6


def tracking_deviation(algo, objective, R, steps, alpha=0.0):
    """Worst deviation from the twin-trajectory identity over a run.

    The identity is exact in real arithmetic for any quantization-error
    sequence, so this measures accumulated float drift only. Runs are not
    stopped at the precision floor and containment is not enforced: past
    the floor the quantizer input is float noise below the scheduled
    range, which is irrelevant to the identity being checked.
    """
    schedule, hp = dq_schedule(algo, objective, R, alpha=alpha)
    worker, server, channel = build_dq_engine(
        algo, objective, hp, schedule, R, containment="record", saturate=True
    )
    rule = algo.removeprefix("dq-")
    twin = initial_state(rule, objective.x0)
    worst = 0.0

    def observe(t, srv, ws):
        nonlocal twin, worst
        twin = step(rule, twin, objective.grad(twin[0]), hp)
        x_t, e_t, e_prev = twin[0], ws[0].e1, ws[0].e2
        if rule == "agd":
            y_t = twin[1]
            worst = max(
                worst,
                float(np.linalg.norm(srv.state[1] - (y_t - hp.eta * e_t))),
                float(np.linalg.norm(
                    srv.x - (x_t - hp.eta * e_t
                             - hp.eta * hp.gamma * (e_t - e_prev)))),
            )
        else:
            worst = max(worst, float(np.linalg.norm(srv.x - (x_t - hp.eta * e_t))))

    run_protocol(server, [worker], [channel], steps, on_iteration=observe)
    return worst


def containment_violations(algo, objective, R, t_max, alpha=0.0):
    """Count of rounds whose quantizer input left the scheduled range."""
    rec = run_dq(algo, objective, R, t_max=t_max, alpha=alpha,
                 containment="record")
    return rec.violations


def worst_case_ratio_error(kappa, x0, steps=60):
    """Max deviation of GD's per-step ratio from its worst-case rate."""
    L, mu, D = 1.0, 1.0 / kappa, 2.0
    hp = optimal_hyperparams(L, mu, "gd")
    obj = make_worst_case_gd(x0, L, mu, D, hp.eta)
    state = initial_state("gd", x0)
    worst = 0.0
    for _ in range(steps):
        new = step("gd", state, obj.grad(state[0]), hp)
        d0 = np.linalg.norm(state[0] - obj.x_star)
        d1 = np.linalg.norm(new[0] - obj.x_star)
        if d0 < RATIO_GUARD * max(1.0, D):
            break
        worst = max(worst, abs(d1 / d0 - hp.sigma))
        state = new
    return worst


def run_verification(quick=True):
    """Returns [(name, passed, detail)]; everything deterministic."""
    out = []
    trials = 3 if quick else 10
    steps = 80 if quick else 200

    worst = 0.0
    for algo, kappa, R in (("dq-gd", 5, 4), ("dq-agd", 10, 6), ("dq-hb", 10, 6)):
        for s in range(trials):
            _, obj = make_gaussian_ls(24, 12, kappa, 100 + s)
            worst = max(worst, tracking_deviation(algo, obj, R, steps))
    out.append(("tracking identities (dq-gd/dq-agd/dq-hb)", worst <= 1e-10,
                f"max deviation {worst:.2e}"))

    total = 0
    for algo, alpha in (("dq-gd", 0.0), ("dq-agd", 0.0), ("dq-hb", 1.0)):
        for s in range(trials * 2):
            kappa = 1.5 + 7.0 * (s % 5)
            _, obj = make_gaussian_ls(32, 16, kappa, 200 + s)
            total += containment_violations(algo, obj, 2 + s % 8, 150, alpha)
    out.append(("quantizer-input containment", total == 0,
                f"{total} violations"))

    err = max(worst_case_ratio_error(k, make_rng(0).standard_normal(4))
              for k in (2, 4, 10))
    out.append(("worst-case GD per-step equality", err <= 1e-9,
                f"max |ratio - sigma| = {err:.2e}"))

    nu, rates = waterfill([4.0, 1.0], 2.0)
    ok = abs(nu - 1.0) <= 1e-9 and abs(rates[0] - 2.0) <= 1e-9 and rates[1] <= 1e-9
    out.append(("waterfilling closed form", ok, f"nu={nu:.12g} rates={rates}"))

    gen = make_rng(0)
    ok = True
    for _ in range(50 if quick else 1000):
        n = int(gen.integers(1, 40))
        R = int(gen.integers(0, 12))
        idx = gen.integers(0, 1 << R, size=n) if R else np.zeros(n, dtype=int)
        buf, nbits = encode_payload(idx, R)
        ok = ok and nbits == n * R and np.array_equal(
            decode_payload(buf, nbits, n, R), idx)
    out.append(("payload bit round trip", ok, ""))
    return out
