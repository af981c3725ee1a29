"""dqgrad benchmark: three workloads, end-to-end metrics, traced per layer.

    python3 perfbench/run.py --workload stock-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process
    python3 perfbench/run.py --check-stock         # stock trial counts vs out/
    python3 perfbench/run.py --record-pins         # re-record pins.json

Run it from anywhere inside a source checkout; it imports dqgrad from the
checkout's src/ and writes only under .bench_out/ (and pins.json when
recording). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give the
environment and every metric with its spread. See README.md.
"""

import os

# One BLAS/OpenMP thread, set before anything loads numpy. At n=1024 the
# BLAS thread count changes the result bits, and one thread steadies timing.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from instruments import (  # noqa: E402
    CODEC_AND_GRAD, MODULES, NAMES, WITH_CALLS, RunCounter, Tracer)
from speed import HostSpeed  # noqa: E402
from workloads import POOL, WORKLOADS, load_dqgrad  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
PINS = BENCH_DIR / "pins.json"

SETUP_SAMPLES = 5  # fresh-interpreter set-ups per run; setup_s is their median
MIN_UNITS = 3  # timed units per run, whatever --seconds says
UNTRACED_SHARE = 1 / 3  # of --seconds, spent untraced in a traced run

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("rounds_per_s", "rounds/s"), ("peak_rss_mb", "MB"))


def per_layer_spec():
    """(name, unit, better) of every metric a traced run reports."""
    spec = []
    for name in NAMES:
        if name in WITH_CALLS:
            spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec += [(f"{module}.self_s", "s", "lower") for module in MODULES]
    spec += [
        ("problems.grad.gflop", "GFLOP", "lower"),
        ("problems.grad.flop_per_byte", "flop/B", "higher"),
        ("engines.rounds", "count", "lower"),
        ("harness.runs", "count", "lower"),
        ("harness.t_max_runs", "count", "lower"),
        ("harness.t_max_round_frac", "ratio", "lower"),
        ("transport.uplink_bits", "bit", "lower"),
        ("transport.downlink_bytes", "B", "lower"),
        ("trace.codec_grad_frac", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return spec


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_sha():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dqgrad").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def env_info():
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measuring


def _pin(name, index):
    try:
        entries = json.loads(PINS.read_text())["workloads"][name]
    except (OSError, KeyError, ValueError):
        return None
    return entries[index] if index < len(entries) else None


def _setup(workload, index):
    """Import dqgrad and build the workload's inputs; returns (dq, state, s)."""
    t0 = time.perf_counter()
    dq = load_dqgrad()
    state = workload.setup(dq, ROOT, index, OUT_DIR / workload.name)
    return dq, state, time.perf_counter() - t0


def _probe_setup(name, seed):
    """(seconds, speed factor) of one fresh interpreter's set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    seconds, factor = done.stdout.split()[-2:]
    return float(seconds), float(factor)


def _check_unit(digest, counter, pin):
    problems = list(counter.errors)
    if pin is None:
        problems.append("no pinned digest for this seed index "
                        "(re-record with --record-pins)")
        return problems
    if digest != pin["digest"]:
        problems.append(f"output digest {digest} differs from the pinned "
                        f"{pin['digest']}")
    counts = counter.snapshot()
    if counts != pin["counts"]:
        problems.append(f"exact counts {counts} differ from the pinned "
                        f"{pin['counts']}")
    return problems


def run_units(workload, dq, state, counter, speed, budget, min_units, pin):
    """Repeat the unit until `budget` seconds are used; stop on a failure.

    A unit's time covers its steps: the rounds, writing the outputs and
    reading them back for the digest. Each step's time is also divided by
    its speed factor, the mean of the host speed measured just before and
    just after it. Returns (samples, problems).
    """
    samples, elapsed = [], []
    start = time.perf_counter()
    before = speed.factor()
    while True:
        t_unit = time.perf_counter()
        counter.reset()
        counter.errors.clear()
        sample = dict.fromkeys(("raw_wall_s", "raw_cpu_s", "wall_s", "cpu_s"), 0.0)
        digest = hashlib.sha256()
        try:
            for step in workload.steps(dq, state):
                w0, c0 = time.perf_counter(), time.process_time()
                digest.update(step())
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
                after = speed.factor()
                factor, before = (before + after) / 2, after
                sample["raw_wall_s"] += wall
                sample["raw_cpu_s"] += cpu
                sample["wall_s"] += wall / factor
                sample["cpu_s"] += cpu / factor
            problems = _check_unit(digest.hexdigest(), counter, pin)
        except Exception:
            problems = ["unit raised:\n" + traceback.format_exc()]
        sample.update(runs=counter.runs, failed_runs=counter.failed_runs,
                      counts=counter.snapshot())
        samples.append(sample)
        elapsed.append(time.perf_counter() - t_unit)
        if problems:
            return samples, problems
        if (len(samples) >= min_units and time.perf_counter() - start
                + statistics.median(elapsed) > budget):
            return samples, problems


def measure(workload, seed, seconds):
    """End-to-end metrics: untraced units after SETUP_SAMPLES set-ups.

    The process's own set-up is one sample when it imported dqgrad; the
    others come from fresh interpreters. Every time is divided by the
    host speed factor measured around it (see speed.py).
    """
    index = seed % POOL
    fresh = "dqgrad" not in sys.modules
    dq, state, own = _setup(workload, index)
    speed = HostSpeed(workload.blas_share)
    setups = [(own, speed.factor())] if fresh else []
    setups += [_probe_setup(workload.name, seed)
               for _ in range(SETUP_SAMPLES - len(setups))]
    counter = RunCounter(dq)
    counter.install()
    try:
        samples, problems = run_units(workload, dq, state, counter, speed,
                                      seconds, MIN_UNITS,
                                      _pin(workload.name, index))
    finally:
        counter.remove()
    series = {
        "setup_s": [raw / factor for raw, factor in setups],
        "wall_s": [s["wall_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "rounds_per_s": [s["counts"]["engines.rounds"] / s["wall_s"]
                         for s in samples],
        "raw_setup_s": [raw for raw, _ in setups],
        "raw_wall_s": [s["raw_wall_s"] for s in samples],
        "speed_factor": [s["raw_wall_s"] / s["wall_s"] for s in samples],
    }
    values = {name: statistics.median(series[name])
              for name in ("setup_s", "wall_s", "cpu_s", "rounds_per_s")}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ({name: (values[name], unit) for name, unit in END_TO_END},
            series, samples, problems)


def _as_count(value):
    return int(value) if float(value).is_integer() else value


def trace(workload, seed, seconds):
    """Per-layer metrics: untraced units, then a traced set-up and units."""
    index = seed % POOL
    pin = _pin(workload.name, index)
    start = time.perf_counter()
    dq, state, _ = _setup(workload, index)
    speed = HostSpeed(workload.blas_share)
    counter = RunCounter(dq)
    tracer = Tracer(dq, counter)
    counter.install()
    try:
        plain, problems = run_units(workload, dq, state, counter, speed,
                                    seconds * UNTRACED_SHARE, 1, pin)
        traced = []
        if not problems:
            tracer.install()
            try:
                # rebuilt under the wrappers: Objective.grad binds at construction
                state = workload.setup(dq, ROOT, index, OUT_DIR / workload.name)
                base = tracer.totals()
                traced, problems = run_units(
                    workload, dq, state, counter, speed,
                    seconds - (time.perf_counter() - start), 1, pin)
            finally:
                tracer.remove()
    finally:
        counter.remove()
    samples = plain + traced
    if problems:
        return {}, {}, samples, problems

    # per unit of work, with the traced set-up counted once
    total, n = tracer.totals(), len(traced)
    per_unit = {key: [b + (t - b) / n for b, t in zip(base[key], total[key])]
                for key in ("self_s", "calls")}
    values = {}
    for i, name in enumerate(NAMES):
        if name in WITH_CALLS:
            values[f"{name}.calls"] = _as_count(per_unit["calls"][i])
        values[f"{name}.self_s"] = per_unit["self_s"][i]
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            s for name, s in zip(NAMES, per_unit["self_s"])
            if name.split(".")[0] == module)
    flops = base["grad_flops"] + (total["grad_flops"] - base["grad_flops"]) / n
    values["problems.grad.gflop"] = flops / 1e9
    values["problems.grad.flop_per_byte"] = (
        total["grad_flops"] / total["grad_bytes"] if total["grad_bytes"] else 0.0)
    counts = traced[0]["counts"]
    for key in ("engines.rounds", "harness.runs", "harness.t_max_runs",
                "transport.uplink_bits", "transport.downlink_bytes"):
        values[key] = counts[key]
    values["harness.t_max_round_frac"] = (
        counts["harness.t_max_rounds"] / counts["engines.rounds"]
        if counts["engines.rounds"] else 0.0)
    # at nominal host speed, so drift between the two phases cancels
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    values["trace.codec_grad_frac"] = sum(
        per_unit["self_s"][NAMES.index(name)] for name in CODEC_AND_GRAD
    ) / statistics.fmean(s["raw_wall_s"] for s in traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    OUT_DIR.mkdir(exist_ok=True)
    kept = tracer.write_spans(OUT_DIR / f"{workload.name}-seed{seed}-spans.npz")
    series = {"untraced_wall_s": [s["wall_s"] for s in plain],
              "traced_wall_s": [s["wall_s"] for s in traced],
              "traced_raw_wall_s": [s["raw_wall_s"] for s in traced],
              "spans_kept": [kept]}
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
    return metrics, series, samples, problems


# ---------------------------------------------------------------------------
# reporting


def _spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def _report(name, seed, trace_on, metrics, series, samples, problems):
    attempted = max(1, sum(s["runs"] for s in samples))
    failed = attempted if problems else sum(s["failed_runs"] for s in samples)
    print(f"[{name}] seed {seed} (instance index {seed % POOL}), "
          f"{len(samples)} units, trace={int(trace_on)}")
    for metric, (value, unit) in metrics.items():
        extra = _spread(series[metric]) if metric in series else ""
        print(f"  {metric:44s} {value:<14.6g} {unit:9s} {extra}")
    for key, values in series.items():
        if key not in metrics:
            print(f"  {key:44s} {_spread(values)}")
    print(f"  {'failed_frac':44s} {failed / attempted:<14.6g} {'ratio':9s} "
          f"{failed} of {attempted} runs")
    for problem in problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    return attempted, failed


def benchmark(names, seed, seconds, trace_on):
    env = env_info()
    print("env: " + json.dumps(env, sort_keys=True))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"env": env, "seed": seed, "seconds": seconds, "trace": trace_on,
              "workloads": {}}
    for name in names:
        run = trace if trace_on else measure
        metrics, series, samples, problems = run(WORKLOADS[name], seed, seconds)
        attempted, failed = _report(name, seed, trace_on, metrics, series,
                                    samples, problems)
        prefix = "" if len(names) == 1 else f"{name}."
        result["correct"] &= not problems
        result["attempted"] += attempted
        result["failed"] += failed
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        record["workloads"][name] = {"series": series, "samples": samples,
                                     "problems": problems}
    OUT_DIR.mkdir(exist_ok=True)
    tag = names[0] if len(names) == 1 else "all"
    out = OUT_DIR / f"{tag}-seed{seed}-trace{int(trace_on)}.json"
    out.write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def check_stock():
    """Stock trial counts reproduce the committed out/ files byte for byte."""
    dq = load_dqgrad()
    configs = dq.configfile.load_experiments(str(ROOT / "configs" / "experiments.ini"))
    out = OUT_DIR / "check-stock"
    ok = True
    for c in configs:
        mine = dataclasses.replace(c, jobs=1, csv=str(out / Path(c.csv).name),
                                   svg=str(out / Path(c.svg).name))
        t0 = time.perf_counter()
        rows = dq.harness.run_sweep(mine)
        dq.harness.emit_csv(rows, mine.csv)
        dq.harness.emit_svg(rows, mine.svg, title=c.name)
        print(f"[{c.name}] {c.trials} trials in {time.perf_counter() - t0:.1f} s")
        for committed, produced in ((c.csv, mine.csv), (c.svg, mine.svg)):
            same = Path(committed).read_bytes() == Path(produced).read_bytes()
            ok &= same
            shown = Path(committed).resolve().relative_to(ROOT)
            print(f"  {'match  ' if same else 'DIFFERS'} {shown}")
    return 0 if ok else 1


def record_pins(names):
    """Digest and exact counts of one unit for every instance index."""
    try:
        pins = json.loads(PINS.read_text())
    except OSError:
        pins = {"workloads": {}}
    dq = load_dqgrad()
    counter = RunCounter(dq)
    counter.install()
    try:
        for name in names:
            workload, entries = WORKLOADS[name], []
            for index in range(POOL):
                state = workload.setup(dq, ROOT, index, OUT_DIR / name)
                counter.reset()
                digest = hashlib.sha256()
                for step in workload.steps(dq, state):
                    digest.update(step())
                digest = digest.hexdigest()
                if counter.errors:
                    raise RuntimeError("; ".join(counter.errors))
                entries.append({"digest": digest, "counts": counter.snapshot()})
                print(f"[{name}] index {index}: {digest[:16]} "
                      f"{counter.snapshot()}", flush=True)
            pins["workloads"][name] = entries
    finally:
        counter.remove()
    pins["pool"] = POOL
    pins["env"] = env_info()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-stock", action="store_true",
                        help="run the stock sweeps and compare with out/")
    parser.add_argument("--record-pins", action="store_true",
                        help="re-record pins.json for --workload (default all)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/dqgrad/__init__.py", "configs/experiments.ini")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a dqgrad checkout, missing {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload in (None, "all") else [args.workload]
    if args.check_stock:
        return check_stock()
    if args.record_pins:
        return record_pins(names)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workload = WORKLOADS[args.workload]
        _, _, seconds = _setup(workload, args.seed % POOL)
        print(repr(seconds), repr(HostSpeed(workload.blas_share).factor()))
        return 0
    return benchmark(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
