"""The acceptance criteria that `dqgrad verify` and the test suite share.

Each row of `CHECKS` is (criterion, name, check, quick size, full size),
and `check(size)` returns (ok, detail) over the first `size` seeded draws
of its criterion. `tests/test_acceptance.py` runs every row at full size;
`dqgrad verify` runs the quick size and `dqgrad verify --full` the full
one. Every check reduces its draws by max or by count, so a quick run,
which sees a prefix of the draws, passes whenever the full run does.
"""

import numpy as np

from .engines import build_dq_engine, initial_state, run_protocol, step
from .harness import _pool_map, run_dq, run_nq
from .hyperparams import optimal_hyperparams
from .problems import (_cpu_count, make_gaussian_ls, make_interpolation_problem,
                       make_worst_case_gd)
from .quantizer import BitCoder, QuantizerSpec, decode_payload, encode_payload
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
    worker, server, channel = build_dq_engine(algo, objective, R, alpha,
                                              containment="saturate")
    hp = worker.hp
    rule = algo.removeprefix("dq-")
    twin = initial_state(rule, objective.x0)
    worst = 0.0

    def compare_with_twin(t, srv, w):
        nonlocal twin, worst
        twin = step(rule, twin, objective.grad(twin[0]), hp)
        x_t, e_t, e_prev = twin[0], w.e1, w.e2
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

    run_protocol(server, worker, [channel], steps,
                 on_iteration=compare_with_twin)
    return worst


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


def check_worst_case_gd(size):
    """GD contracts at exactly (kappa-1)/(kappa+1) on its worst case."""
    gen = make_rng(1)
    starts = [(kappa, n) for kappa in (2.0, 4.0, 10.0) for n in (2, 8)]
    worst = 0.0
    for kappa, n in starts[:size]:
        err = worst_case_ratio_error(kappa, gen.standard_normal(n), steps=400)
        worst = max(worst, err)
    return worst <= 1e-9, (f"per-step ratio matches (kappa-1)/(kappa+1), "
                           f"max |ratio - sigma| = {worst:.2e} <= 1e-9")


def check_tracking(size):
    """Each DQ server equals its unquantized twin minus the error terms."""
    # R >= 4 keeps every draw above the momentum schemes' matching threshold
    # at kappa <= 30; below the linear-convergence threshold the range
    # recursion (correctly) diverges and absolute float drift scales with
    # the exploding iterates rather than with the identity being checked
    worst = {}
    for algo in ("dq-gd", "dq-agd", "dq-hb"):
        gen = make_rng(2)
        dev = 0.0
        for trial in range(size):
            kappa = float(gen.uniform(2.0, 30.0))
            R = int(gen.integers(4, 9))
            _, obj = make_gaussian_ls(32, 16, kappa, 20_000 + trial)
            dev = max(dev, tracking_deviation(algo, obj, R, steps=200))
        worst[algo] = dev
    ok = all(v <= 1e-10 for v in worst.values())
    detail = ", ".join(f"{a}: {v:.2e}" for a, v in worst.items())
    return ok, (f"{size} instances x 200 iterations, max deviation {detail} "
                f"(<= 1e-10)")


def check_containment(size):
    """The quantizer input never leaves its scheduled range."""
    # schedules with a provable containment guarantee run strict; the heavy-ball
    # schedule needs its subexponential exponent positive (1 suffices on
    # least squares), since the experimental alpha = 0 loses the guarantee
    gen = make_rng(3)
    algos = (("dq-gd", 0.0), ("dq-agd", 0.0), ("dq-hb", 1.0))
    draws = []
    for i in range(size):
        algo, alpha = algos[i % 3]
        kappa = float(gen.uniform(1.5, 50.0))
        n = int(gen.choice([4, 16, 64]))
        R = int(gen.integers(1, 13))
        draws.append((algo, alpha, kappa, n, R, 30_000 + i))
    # independent runs: on two CPUs, a two-worker pool, each worker on one
    # BLAS thread (on two, c3 took twice as long as serially); started by
    # run_sweep's own helper, since a spawned worker re-runs the caller's
    # main script
    workers = min(2, _cpu_count(), size)
    violations = sum(_pool_map(_violations, draws, workers, chunksize=25))
    return violations == 0, (
        f"{size} randomized runs (kappa in [1.5,50], R in [1,12], "
        f"n in {{4,16,64}}), {violations} violations of ||u_t|| <= r_t")


def _violations(draw):
    """Containment violations of one c3 run."""
    algo, alpha, kappa, n, R, seed = draw
    _, obj = make_gaussian_ls(2 * n, n, kappa, seed)
    return run_dq(algo, obj, R, t_max=250, alpha=alpha,
                  containment="saturate").violations


def check_waterfilling(size):
    """The closed-form example, then the sum identity and monotonicity."""
    nu, rates = waterfill([4.0, 1.0], 2.0)
    exact = abs(nu - 1.0) <= 1e-9 and abs(rates[0] - 2.0) <= 1e-9 and rates[1] <= 1e-9
    gen = make_rng(9)
    sum_ok = mono_ok = True
    for _ in range(size):
        K = int(gen.integers(1, 9))
        L = (10.0 ** gen.uniform(-2, 2, size=K)).tolist()
        R = float(gen.uniform(0.0, 24.0))
        nu_i, r_i = waterfill(L, R)
        sum_ok &= abs(sum(r_i) - R) <= 1e-9
        order = np.argsort(L)
        mono_ok &= all(r_i[a] <= r_i[b] + 1e-9 for a, b in zip(order, order[1:]))
    return exact and sum_ok and mono_ok, (
        f"L=[4,1], R=2 -> nu={nu:.10f}, rates=({rates[0]:.10f}, "
        f"{rates[1]:.1e}); sum identity and monotonicity over {size} "
        f"random instances: {sum_ok and mono_ok}")


def check_bit_exactness(size):
    """The coder every run uses codes as the quantizer's reference does,
    the reference's payloads round-trip, and every uplink message carries
    n*R_k bits."""
    gen = make_rng(10)
    ok_codec = True
    for _ in range(size):
        n, R = int(gen.integers(1, 48)), int(gen.integers(1, 13))
        r = float(10.0 ** gen.uniform(-3, 3))
        spec, u = QuantizerSpec(n, R), gen.uniform(-r, r, size=n)
        idx, recon = spec.scaled(r).quantize(u)
        buf, nbits = encode_payload(idx, R)
        coder = BitCoder(spec)
        payload, coded = coder.encode(r, u)
        ok_codec &= (nbits == payload.nbits == n * R and payload.bits == buf
                     and coder.encode_rows(r, u) == [payload]
                     and coded.tobytes() == recon.tobytes()
                     and np.array_equal(decode_payload(buf, nbits, n, R), idx)
                     and coder.decode(r, [payload.bits]).tobytes()
                     == recon.tobytes())

    _, obj = make_gaussian_ls(24, 8, 6.0, 55)
    rec = run_dq("dq-gd", obj, 5, t_max=400)
    ok_single = all(b == 8 * 5 for b in rec.bits_per_iteration)

    prob = make_interpolation_problem(2, 8, 16, [4.0, 1.0], 56)
    _, channels = run_nq(prob, [2, 0], t_max=100)
    ok_multi = (all(b == 8 * 2 for b in channels[0].trace.uplink_bits)
                and all(b == 0 for b in channels[1].trace.uplink_bits))
    return ok_codec and ok_single and ok_multi, (
        f"{size} draws: BitCoder's payloads and both ends' reconstructions "
        f"are the reference's bit for bit, and the reference's payloads "
        f"round-trip; every uplink message carries exactly n*R_k bits "
        f"(single and 2-worker runs)")


# c1 and c9 take milliseconds, so the quick run already covers all their draws
CHECKS = (
    (1, "worst-case GD per-step equality", check_worst_case_gd, 6, 6),
    (2, "tracking identities", check_tracking, 3, 20),
    (3, "quantizer-input containment", check_containment, 30, 1000),
    (9, "waterfilling", check_waterfilling, 100, 100),
    (10, "bit exactness", check_bit_exactness, 1000, 10_000),
)
