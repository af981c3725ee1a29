"""Command line front end.

Subcommands:
  sweep      run the experiments in a config file, emit CSV/SVG
  bounds     print the closed-form contraction curves for a (kappa, n) pair
  verify     run acceptance criteria 1, 2, 3, 9 and 10 on the suite's draws
  waterfill  sum-rate allocation for given smoothness constants
"""

import argparse
import dataclasses
import math
import sys

from . import bounds as bmod
from .configfile import ConfigError, load_experiments
from .harness import TrialError, emit_csv, emit_svg, run_sweep
from .quantizer import MAX_RATE
from .schedules import SCHEMES, waterfill


def _cmd_sweep(args):
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 1
    try:
        configs = load_experiments(args.config, args.section)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for config in configs:
        if args.jobs is not None:
            config = dataclasses.replace(config, jobs=args.jobs)
        print(f"[{config.name}] {len(config.algos)} algos x "
              f"{len(config.rates)} rates x {config.trials} trials")
        try:
            rows = run_sweep(config)
        except TrialError as exc:
            print(f"error: [{config.name}] {exc}", file=sys.stderr)
            return 1
        for r in rows:
            print(f"  {r.algo:8s} R={r.R:<3d} emp={r.emp_mean:.4f} "
                  f"[{r.emp_p05:.4f}, {r.emp_p95:.4f}] bound={min(r.bound, 1):.4f}")
        try:
            if config.csv:
                emit_csv(rows, config.csv)
                print(f"  wrote {config.csv}")
            if config.svg:
                emit_svg(rows, config.svg, title=config.name)
                print(f"  wrote {config.svg}")
        except OSError as exc:
            print(f"error writing output: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_bounds(args):
    from .hyperparams import gamma_agd, gamma_hb, sigma_agd, sigma_gd, sigma_hb

    algos = args.algos.split(",") if args.algos else list(SCHEMES)
    bad = [f"{name} must be {rule}" for name, ok, rule in (
        ("kappa", 1.0 <= args.kappa < math.inf, "finite and at least 1"),
        ("n", args.n >= 1, "at least 1"),
        ("rho", args.rho is None or 0.0 < args.rho < math.inf, "finite and positive"),
        ("rmin", args.rmin >= 1, "at least 1"),
        ("rmax", args.rmax <= MAX_RATE, f"at most {MAX_RATE}, the largest rate"),
        ("rmin", args.rmin <= args.rmax, "at most rmax"),
        ("every algo", set(algos) <= set(SCHEMES), f"one of {', '.join(SCHEMES)}"),
    ) if not ok]
    if bad:
        print(f"error: {bad[0]}", file=sys.stderr)
        return 1
    rho = args.rho if args.rho is not None else bmod.default_rho(args.n)
    header = "R " + " ".join(f"{a:>10s}" for a in algos) + f" {'conv-gd':>10s} {'conv-gm':>10s}"
    print(f"kappa={args.kappa} n={args.n} rho={rho:g}")
    print(header)
    for R in range(args.rmin, args.rmax + 1):
        vals = [bmod.clip_for_plot(bmod.achievable_rate(a, args.kappa, args.n, R, rho))
                for a in algos]
        row = f"{R:<2d}" + " ".join(f"{v:10.6f}" for v in vals)
        row += f" {bmod.converse_curve('gd', args.kappa, R):10.6f}"
        row += f" {bmod.converse_curve('gm', args.kappa, R):10.6f}"
        print(row)
    schemes = (("dq-gd", sigma_gd(args.kappa), 0.0),
               ("dq-agd", sigma_agd(args.kappa), gamma_agd(args.kappa)),
               ("dq-hb", sigma_hb(args.kappa), gamma_hb(args.kappa)))
    for name, sigma, gamma in schemes:
        r1, r2 = bmod.thresholds(args.n, sigma, gamma, rho)
        r2_text = f"{r2:.3f}" if r2 is not None else "n/a (one-step convergence)"
        print(f"{name}: linear convergence above R1={r1:.3f}, "
              f"matches unquantized at R2={r2_text}")
    return 0


def _cmd_verify(args):
    from . import selfcheck

    failed = 0
    for num, name, check, quick, full in selfcheck.CHECKS:
        ok, detail = check(full if args.full else quick)
        print(f"[{'PASS' if ok else 'FAIL'}] c{num} {name} ({detail})")
        failed += not ok
    return 1 if failed else 0


def _cmd_waterfill(args):
    try:
        L = [float(v) for v in args.L.split(",")]
        nu, rates = waterfill(L, args.R)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"nu = {nu:.12g}")
    for k, (Lk, Rk) in enumerate(zip(L, rates)):
        print(f"worker {k}: L={Lk:g} R={Rk:.12g} bits/dimension")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dqgrad",
        description="Quantized gradient descent experiments on a "
                    "rate-limited worker/server channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run experiments from a config file")
    p.add_argument("config", help="INI config; one section per experiment")
    p.add_argument("--section", help="run only this section")
    p.add_argument("--jobs", type=int, help="parallel trial workers")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="print theory curves")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, default=None,
                   help="covering efficiency (default sqrt(n))")
    p.add_argument("--rmin", type=int, default=1)
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--algos", help="comma list, default all quantized schemes")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run the shared acceptance criteria")
    p.add_argument("--full", action="store_true",
                   help="run them at the acceptance suite's sizes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("waterfill", help="sum-rate allocation")
    p.add_argument("--L", required=True, help="comma list of smoothness constants")
    p.add_argument("--R", type=float, required=True, help="total rate budget")
    p.set_defaults(func=_cmd_waterfill)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
