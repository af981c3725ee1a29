"""Experiment orchestration: rate sweeps, contraction estimation, reports.

A sweep draws `trials` seeded problem instances, runs every requested
algorithm at every rate until the distance to the optimizer crosses the
precision floor (or diverges, or t_max), estimates each run's contraction
factor, and aggregates mean and 5th/95th percentiles next to the
closed-form bound, the unquantized rate, and the converse. Identical
config + seed gives a byte-identical CSV.

The estimator takes the geometric mean of per-step ratios over the last
half of above-floor iterations: the raw T-th root would carry the
transient constant, and the tail half suppresses it.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _blas, bounds, rng as rngmod
from .engines import (
    build_dq_engine,
    build_nq_engine,
    initial_state,
    run_protocol,
    step,
)
from .hyperparams import optimal_hyperparams, sigma_agd, sigma_gd, sigma_hb
from .problems import (
    LeastSquares,
    MultiWorkerProblem,
    make_gaussian_ls,
    make_interpolation_problem,
)
from .quantizer import MAX_RATE
from .schedules import SCHEMES, waterfill_bits

UNQUANTIZED = ("gd", "agd", "hb")
# a run stops once its distance to the optimizer falls below
# FLOOR_SCALE * max(1, D) or rises above DIVERGENCE_SCALE * max(1, D)
FLOOR_SCALE = 1e-13
DIVERGENCE_SCALE = 1e9


class InsufficientDataError(Exception):
    pass


class TrialError(Exception):
    """Engine/transport failure annotated with the trial that hit it.

    Carries the cause as its repr, so that it pickles back from a pool
    worker whatever the cause's own constructor takes.
    """

    def __init__(self, trial, detail):
        super().__init__(trial, detail)
        self.trial = trial

    def __str__(self):
        return f"trial {self.trial}: {self.args[1]}"


@dataclass
class RunRecord:
    """Per-iteration trace of one run; distances[0] is the start."""

    algo: str
    R: int | None
    floor: float
    distances: list = field(default_factory=list)
    u_norms: list = field(default_factory=list)
    ranges: list = field(default_factory=list)
    bits_per_iteration: list = field(default_factory=list)
    violations: int = 0
    # (start, period) of the last cycle a run was served from; start, the
    # round the detector saved, is on the cycle but not always its first
    cycle: tuple | None = None
    replayed: int = 0  # rounds restored from cycles

    @property
    def terminal_T(self):
        return len(self.distances) - 1

    @property
    def min_headroom(self):
        """Smallest r_t - ||u_t|| over the rounds; negative on an escape.

        With K workers it is taken between the per-round maxima over the
        workers; inf for a run without quantized rounds.
        """
        headroom = np.subtract(self.ranges, self.u_norms)
        return float(np.min(headroom, initial=math.inf))

    def above_floor(self):
        d = np.asarray(self.distances)
        return d[d > self.floor]


def estimate_contraction(record, clip=True):
    """Tail-half geometric-mean per-step ratio, reported clipped at 1."""
    d = record.above_floor()
    if len(d) < 10:
        raise InsufficientDataError(
            f"only {len(d)} iterations above the precision floor"
        )
    T = len(d) - 1
    half = T // 2
    if d[T] == 0.0:
        return 0.0
    est = float((d[T] / d[half]) ** (1.0 / (T - half)))
    return min(est, 1.0) if clip else est


def _start(algo, R, D):
    """A record at start distance D, and the stop test on its last distance.

    run_protocol calls the test as stop(t, server); it reads only the record.
    """
    scale = max(1.0, D)
    floor, ceiling = FLOOR_SCALE * scale, DIVERGENCE_SCALE * scale
    record = RunRecord(algo=algo, R=R, floor=floor)
    record.distances.append(D)
    distances = record.distances

    def stop(*_):
        dist = distances[-1]
        return not math.isfinite(dist) or dist < floor or dist > ceiling

    return record, stop


def run_unquantized(algo, objective, t_max=10_000):
    hp = optimal_hyperparams(objective.L, objective.mu, algo)
    record, stop = _start(algo, None, objective.D)
    state = initial_state(algo, objective.x0)
    for _ in range(t_max):
        state = step(algo, state, objective.grad(state[0]), hp)
        d = state[0] - objective.x_star
        record.distances.append(math.sqrt(d.dot(d)))
        if stop():
            break
    return record


def _drive(algo, R, problem, server, worker, channels, t_max):
    """Run the protocol until the stop test fires or t_max rounds pass.

    Each round records the distance to the optimizer and the worker side's
    quantizer input norm and range (with K rows, the largest of each); the
    uplink bits per round are summed over the channel traces once the run
    is over.
    """
    record, stop = _start(algo, R, problem.D)
    x_star = problem.x_star
    distances, u_norms, ranges = record.distances, record.u_norms, record.ranges

    def observe(t, srv, w):
        d = srv.state[0] - x_star
        distances.append(math.sqrt(d.dot(d)))
        u_norms.append(w.last_u_norm)
        ranges.append(w.last_r)

    run_protocol(server, worker, channels, t_max, on_iteration=observe,
                 stop=stop)
    record.bits_per_iteration = list(
        map(sum, zip(*(ch.trace.uplink_bits for ch in channels))))
    record.violations = len(worker.violations)
    record.cycle, record.replayed = server.cycle, server.replayed
    return record


def run_dq(algo, objective, R, t_max=10_000, alpha=0.0, containment=None):
    """One single-worker DQ run over the bit-exact channel."""
    worker, server, channel = build_dq_engine(algo, objective, R, alpha,
                                              containment)
    return _drive(algo, R, objective, server, worker, [channel], t_max)


def run_nq(problem, rates, t_max=10_000):
    """K-worker naive quantization at the given per-worker integer rates."""
    if not isinstance(problem, MultiWorkerProblem):
        problem = MultiWorkerProblem((problem,), problem.x_star, problem.x0)
    worker, server, channels = build_nq_engine(problem, rates)
    record = _drive("nq-gd", sum(rates), problem, server, worker, channels, t_max)
    return record, channels


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    algos: tuple = ("gd", "dq-gd", "nq-gd")
    problem: dict = field(default_factory=lambda: {"kind": "gaussian", "m": 32, "n": 16, "kappa": 5.0})
    rates: tuple = tuple(range(1, 11))
    trials: int = 50
    seed: int = 0
    t_max: int = 10_000
    hb_alpha: float = 0.0
    workers: int = 1
    allocation: str = "uniform"
    csv: str | None = None
    svg: str | None = None
    jobs: int = 1

    def __post_init__(self):
        # the shape and spectrum every trial's instance build would reject
        p = self.problem
        if p["kind"] == "mtx":
            A = np.asarray(p["matrix"])
            m, n = A.shape
            where = f" {p['path']}" if "path" in p else ""
            if m < n:
                raise ValueError(f"matrix{where} is {m} x {n}; least squares "
                                 f"needs at least as many rows as columns")
            # the rule and the constants every trial's spectrum_bounds gives
            s = np.linalg.svd(A, compute_uv=False)
            L, mu = float(s[0] ** 2), float(s[-1] ** 2)
            if not L >= mu > 0:
                raise ValueError(f"matrix{where} has smallest singular value "
                                 f"{float(s[-1])!r}; least squares needs "
                                 f"L >= mu > 0, got L={L}, mu={mu}")
        elif p["kind"] in ("gaussian", "interpolation"):
            m, n = p["m"], p["n"]
            if not m >= n >= 1:
                raise ValueError(f"need m >= n >= 1, got {m} x {n}")
            kappas = p["kappas"] if p["kind"] == "interpolation" else [p["kappa"]]
            for kappa in kappas:
                if not kappa >= 1:  # NaN fails too
                    raise ValueError(f"condition number must be >= 1, got {kappa}")
                if kappa == math.inf:
                    raise ValueError("condition number must be finite, got inf")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.hb_alpha < math.inf:  # NaN fails too
            raise ValueError(f"hb_alpha must be finite and >= 0, got {self.hb_alpha}")
        if not self.rates or min(self.rates) < 1:
            raise ValueError("rates must be a nonempty list of integers >= 1")
        if not self.algos:
            raise ValueError("algos must name at least one algorithm")
        for algo in self.algos:
            if algo not in UNQUANTIZED + SCHEMES:
                raise ValueError(f"unknown algorithm {algo!r}")
        # each algorithm's hyperparameters as its trials take them, at the
        # SVD's constants or a gaussian remap's endpoints (1, 1/kappa), and
        # dq_schedule's rule for dq-agd
        if p["kind"] in ("mtx", "gaussian"):
            if p["kind"] == "gaussian":
                L, mu = 1.0, 1.0 / p["kappa"]
            for algo in self.algos:
                rule = algo[3:] if algo in SCHEMES else algo  # nq-gd's is gd
                try:
                    hp = optimal_hyperparams(L, mu, rule)
                except ValueError as exc:
                    raise ValueError(f"{algo} fails every trial at L={L}, "
                                     f"mu={mu}: {exc}") from None
                if algo == "dq-agd" and hp.sigma == 0.0:
                    raise ValueError("dq-agd is undefined at condition "
                                     "number 1; use dq-gd")
        if self.allocation not in ("uniform", "waterfilling"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.problem["kind"] == "interpolation":
            if len(self.problem["kappas"]) != self.workers:
                raise ValueError(f"kappas lists {len(self.problem['kappas'])} "
                                 f"condition numbers for {self.workers} workers")
            for algo in self.algos:
                if algo != "nq-gd":
                    raise ValueError(f"{algo} needs a single-worker problem; "
                                     f"interpolation runs nq-gd only")
        elif self.workers != 1:
            raise ValueError(f"{self.workers} workers need problem = interpolation")
        for R in self.rates:
            if self.allocation == "uniform" and R % self.workers:
                raise ValueError(f"uniform allocation needs workers | R: "
                                 f"{self.workers} workers cannot split R = {R}")
            # the largest share of R, as uniform allocation and waterfilling
            # at the unit reference constants of _nq_bound split it
            share = -(-R // self.workers)
            if share > MAX_RATE:
                whose = "" if self.workers == 1 else f"'s share {share}"
                raise ValueError(f"rate {R}{whose} exceeds {MAX_RATE}")


@dataclass(frozen=True)
class SweepRow:
    algo: str
    R: int
    emp_mean: float
    emp_p05: float
    emp_p95: float
    bound: float
    unquantized_sigma: float
    converse: float


def _trial_problem(config, trial):
    kind = config.problem["kind"]
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
    if kind == "gaussian":
        p = config.problem
        _, obj = make_gaussian_ls(p["m"], p["n"], p["kappa"], ss)
        return obj
    if kind == "mtx":
        A = np.asarray(config.problem["matrix"])
        gen = rngmod.make_rng(ss)
        y = rngmod.standard_normal(gen, A.shape[0])
        x0 = rngmod.standard_normal(gen, A.shape[1])
        return LeastSquares(A, y).objective(x0)
    if kind == "interpolation":
        p = config.problem
        return make_interpolation_problem(
            config.workers, p["n"], p["m"], p["kappas"], ss
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def _rates_per_worker(config, R, L_list):
    """Integer rates per worker for the per-dimension sum rate R."""
    if config.allocation == "waterfilling":
        return waterfill_bits(L_list, R)
    return [R // config.workers] * config.workers


def _run_trial(config, trial):
    """All (algo, R) estimates for one seeded instance; picklable for jobs>1."""
    try:
        return _run_trial_inner(config, trial)
    except Exception as exc:
        raise TrialError(trial, repr(exc)) from exc


def _run_trial_inner(config, trial):
    problem = _trial_problem(config, trial)
    L_list = (problem.L_list if isinstance(problem, MultiWorkerProblem)
              else [problem.L])
    out = {}
    for algo in config.algos:
        if algo in UNQUANTIZED:
            rec = run_unquantized(algo, problem, config.t_max)
            out[(algo, None)] = estimate_contraction(rec)
            continue
        for R in config.rates:
            if algo == "nq-gd":
                rec, _ = run_nq(problem, _rates_per_worker(config, R, L_list),
                                config.t_max)
            else:
                rec = run_dq(algo, problem, R, config.t_max,
                             alpha=config.hb_alpha)
            out[(algo, R)] = estimate_contraction(rec)
    return out


def _reference_kappa(config):
    """Condition number the bound columns are evaluated at."""
    kind = config.problem["kind"]
    if kind == "gaussian":
        return float(config.problem["kappa"])
    if kind == "mtx":
        A = np.asarray(config.problem["matrix"])
        s = np.linalg.svd(A, compute_uv=False)
        return float((s[0] / s[-1]) ** 2)
    ks = config.problem["kappas"]
    return float(sum(ks) / len(ks))


def _nq_bound(config, kappa, n, R):
    """Allocation-aware contraction bound for naive quantization."""
    if config.workers == 1:
        return bounds.achievable_rate("nq-gd", kappa, n, R)
    # interpolation problems are built with unit smoothness targets, so
    # the reference constants are L_k = 1, mu_k = 1/kappa_k
    ks = config.problem["kappas"]
    L_list = [1.0] * config.workers
    mu_mean = sum(1.0 / k for k in ks) / len(ks)
    rates = _rates_per_worker(config, R, L_list)
    return bounds.nq_sigma(L_list, mu_mean, rates, n)


_CONVERSE_FAMILY = {"gd": "gd", "dq-gd": "gd", "nq-gd": "gd",
                    "agd": "gm", "dq-agd": "gm", "hb": "gm", "dq-hb": "gm"}
_SIGMA_OF = {"gd": sigma_gd, "dq-gd": sigma_gd, "nq-gd": sigma_gd,
             "agd": sigma_agd, "dq-agd": sigma_agd,
             "hb": sigma_hb, "dq-hb": sigma_hb}


def _pool_map(fn, items, workers, chunksize=1):
    """fn over items, results in order: on a pool of `workers` processes,
    each on one BLAS thread, or serially below two workers."""
    if workers < 2:
        return list(map(fn, items))
    # imported here: it costs a serial `import dqgrad` about 20 ms
    from concurrent.futures import ProcessPoolExecutor

    pin = functools.partial(_blas.pin_pool_worker, workers)
    with ProcessPoolExecutor(max_workers=workers, initializer=pin) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def run_sweep(config):
    """Mean and percentile empirical factors per (algo, R), with overlays.

    The trials run on one BLAS thread, in every pool worker too."""
    n = (config.problem.get("n")
         or np.asarray(config.problem["matrix"]).shape[1])
    # a pool starts all its workers at once, so it gets no more than trials
    workers = min(config.jobs, config.trials)
    with _blas.one_thread(n):
        trial_results = _pool_map(functools.partial(_run_trial, config),
                                  range(config.trials), workers)
        kappa = _reference_kappa(config)

    rows = []
    for algo in config.algos:
        for R in config.rates:
            key = (algo, None) if algo in UNQUANTIZED else (algo, R)
            ests = np.array([tr[key] for tr in trial_results])
            sigma_unq = _SIGMA_OF[algo](kappa)
            if algo in UNQUANTIZED:
                bound = sigma_unq
            elif algo == "nq-gd":
                bound = _nq_bound(config, kappa, n, R)
            else:
                bound = bounds.achievable_rate(algo, kappa, n, R)
            rows.append(
                SweepRow(
                    algo=algo,
                    R=R,
                    emp_mean=float(ests.mean()),
                    emp_p05=float(np.percentile(ests, 5)),
                    emp_p95=float(np.percentile(ests, 95)),
                    bound=bound,
                    unquantized_sigma=sigma_unq,
                    converse=bounds.converse_curve(_CONVERSE_FAMILY[algo], kappa, R),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# emission

CSV_HEADER = "algo,R,emp_mean,emp_p05,emp_p95,bound,unquantized_sigma,converse"


def _fmt(v):
    return format(v, ".17g")


def _ensure_parent(path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def emit_csv(rows, path):
    if not rows:
        raise ValueError("empty result table")
    _ensure_parent(path)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [r.algo, str(r.R), _fmt(r.emp_mean), _fmt(r.emp_p05),
                 _fmt(r.emp_p95), _fmt(r.bound), _fmt(r.unquantized_sigma),
                 _fmt(r.converse)]
            )
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def emit_svg(rows, path, title=""):
    """Contraction factor vs rate, one polyline per series, clipped at 1."""
    if not rows:
        raise ValueError("empty result table")
    _ensure_parent(path)
    width, height = 760, 520
    ml, mr, mt, mb = 60, 200, 40, 50
    rates = sorted({r.R for r in rows})
    rmin, rmax = min(rates), max(rates)

    def sx(R):
        if rmax == rmin:
            return ml + (width - ml - mr) / 2
        return ml + (R - rmin) * (width - ml - mr) / (rmax - rmin)

    def sy(v):
        v = min(v, 1.0)
        return mt + (1.0 - v) * (height - mt - mb)

    series = []
    algos = []
    for r in rows:
        if r.algo not in algos:
            algos.append(r.algo)
    for algo in algos:
        pts = [(r.R, r.emp_mean) for r in rows if r.algo == algo]
        series.append((f"{algo} empirical", pts, "2.5", None))
        if algo in SCHEMES:
            pts_b = [(r.R, r.bound) for r in rows if r.algo == algo]
            series.append((f"{algo} bound", pts_b, "1.5", "6 3"))
    seen_families = []
    for algo in algos:
        fam = _CONVERSE_FAMILY[algo]
        if fam not in seen_families:
            seen_families.append(fam)
            pts_c = [(r.R, r.converse) for r in rows if r.algo == algo]
            series.append((f"converse ({fam})", pts_c, "1.5", "2 3"))

    # the title as XML character data; xml.sax.saxutils.escape does the same
    # but imports urllib.request, about 40 ms and 6 MB
    text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="15">{text}</text>',
        f'<line x1="{ml}" y1="{sy(0)}" x2="{width - mr}" y2="{sy(0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{sy(0)}" x2="{ml}" y2="{mt}" stroke="black"/>',
    ]
    for R in rates:
        parts.append(
            f'<text x="{sx(R):.1f}" y="{height - mb + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{R}</text>'
        )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{ml - 8}" y="{sy(tick):.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{tick:g}</text>'
        )
    for i, (label, pts, w, dash) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(R):.2f},{sy(v):.2f}" for R, v in pts)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{w}"{dash_attr}/>'
        )
        ly = mt + 16 * i
        parts.append(
            f'<line x1="{width - mr + 10}" y1="{ly}" x2="{width - mr + 34}" '
            f'y2="{ly}" stroke="{color}" stroke-width="{w}"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{width - mr + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">'
        f"rate R (bits / dimension)</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
