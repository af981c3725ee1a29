import math
import warnings
import xml.dom.minidom
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dqgrad import _blas
from dqgrad.configfile import ConfigError, load_experiments, parse_rates
from dqgrad.harness import (
    CSV_HEADER,
    ExperimentConfig,
    InsufficientDataError,
    RunRecord,
    emit_csv,
    emit_svg,
    estimate_contraction,
    run_dq,
    run_nq,
    run_sweep,
    run_unquantized,
)
from dqgrad.problems import make_gaussian_ls, make_interpolation_problem


def record_from(dists, floor=1e-13):
    rec = RunRecord(algo="x", R=1, floor=floor)
    rec.distances = list(dists)
    return rec


def test_estimator_exact_geometric():
    rec = record_from([0.5**t for t in range(40)])
    assert estimate_contraction(rec) == pytest.approx(0.5, abs=1e-12)


def test_estimator_clips_nonconvergent():
    rec = record_from([1.0] * 40)
    assert estimate_contraction(rec) == 1.0
    assert estimate_contraction(rec, clip=False) == pytest.approx(1.0)
    rec2 = record_from([1.01**t for t in range(40)])
    assert estimate_contraction(rec2) == 1.0
    assert estimate_contraction(rec2, clip=False) > 1.0


def test_estimator_requires_enough_points():
    with pytest.raises(InsufficientDataError):
        estimate_contraction(record_from([1.0, 0.5, 0.25]))
    # points at or below the floor do not count
    with pytest.raises(InsufficientDataError):
        estimate_contraction(record_from([1e-20] * 50))


def test_estimator_tail_suppresses_transient():
    # constant prefactor decays out of the tail-half window
    dists = [5.0 * 0.7**t if t > 0 else 1.0 for t in range(60)]
    assert estimate_contraction(record_from(dists)) == pytest.approx(0.7, rel=1e-9)


def test_min_headroom_is_the_smallest_range_margin():
    rec = RunRecord(algo="x", R=1, floor=0.0)
    rec.ranges, rec.u_norms = [3.0, 2.0, 1.5], [1.0, 1.75, 0.5]
    assert rec.min_headroom == 0.25
    rec.u_norms[1] = math.nan  # a non-finite input is no headroom at all
    assert math.isnan(rec.min_headroom)
    assert RunRecord(algo="gd", R=None, floor=0.0).min_headroom == math.inf


def test_runs_report_headroom_and_replayed_rounds():
    _, obj = make_gaussian_ls(32, 16, 5.0, 3)
    strict = run_dq("dq-gd", obj, 4, t_max=500)
    assert strict.min_headroom == min(r - u for r, u in
                                      zip(strict.ranges, strict.u_norms)) > 0
    # the range keeps moving until the floor
    assert strict.cycle is None and strict.replayed == 0
    # heavy ball at alpha = 0 saturates once its range collapses
    saturated = run_dq("dq-hb", obj, 8, t_max=1500)
    assert saturated.violations > 0 and saturated.min_headroom < 0
    assert run_unquantized("gd", obj, t_max=50).min_headroom == math.inf
    # the naive ranges never settle, so no round is served from a cycle
    prob = make_interpolation_problem(2, 8, 16, [4.0, 2.0], 15)
    rec, _ = run_nq(prob, [3, 2], t_max=300)
    assert rec.cycle is None and rec.replayed == 0 and rec.min_headroom > 0
    # a stalled dq-gd run at eps = sqrt(16) * 2**-2 = 1 cycles; every round
    # after the period that follows the saved round is served from it
    stalled = run_dq("dq-gd", obj, 2, t_max=3000)
    start, period = stalled.cycle
    assert stalled.terminal_T == 3000
    assert stalled.replayed == 3000 - start - period > 2000


SMALL = ExperimentConfig(
    name="small",
    algos=("gd", "dq-gd", "nq-gd"),
    problem={"kind": "gaussian", "m": 16, "n": 8, "kappa": 4.0},
    rates=(2, 4, 6),
    trials=3,
    seed=5,
    t_max=2000,
)


def test_sweep_deterministic_and_csv_byte_identical(tmp_path):
    rows1 = run_sweep(SMALL)
    rows2 = run_sweep(SMALL)
    assert rows1 == rows2
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, p1)
    emit_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_unquantized_constant_across_rates():
    rows = run_sweep(SMALL)
    gd_rows = [r for r in rows if r.algo == "gd"]
    assert len(gd_rows) == 3
    assert len({r.emp_mean for r in gd_rows}) == 1


def test_sweep_quantized_monotone_in_rate():
    rows = run_sweep(SMALL)
    for algo in ("dq-gd", "nq-gd"):
        means = [r.emp_mean for r in rows if r.algo == algo]
        for a, b in zip(means, means[1:]):
            assert b <= a + 0.01


def test_sweep_parallel_jobs_match_serial():
    rows1 = run_sweep(SMALL)
    rows2 = run_sweep(
        ExperimentConfig(**{**SMALL.__dict__, "jobs": 2})
    )
    assert rows1 == rows2


@pytest.mark.parametrize("jobs, trials, want", [
    (8, 1, []), (8, 3, [3]), (2, 3, [2])])
def test_a_pool_starts_no_more_workers_than_trials(monkeypatch, jobs, trials,
                                                    want):
    # a process pool forks all its workers up front; this stand-in records
    # how many and runs the trials here
    import concurrent.futures

    started = []

    class Recorder:
        def __init__(self, max_workers, initializer=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    serial = ExperimentConfig(**{**SMALL.__dict__, "trials": trials,
                                 "t_max": 300})
    rows = run_sweep(ExperimentConfig(**{**serial.__dict__, "jobs": jobs}))
    assert started == want
    assert rows == run_sweep(serial)


def test_csv_roundtrip_full_precision(tmp_path):
    rows = run_sweep(SMALL)
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == row.algo
        assert int(cells[1]) == row.R
        for got, want in zip(cells[2:], (row.emp_mean, row.emp_p05, row.emp_p95,
                                         row.bound, row.unquantized_sigma,
                                         row.converse)):
            assert float(got) == want  # 17 significant digits round-trip


def test_csv_single_row(tmp_path):
    rows = run_sweep(ExperimentConfig(**{**SMALL.__dict__,
                                         "algos": ("dq-gd",), "rates": (4,)}))
    path = tmp_path / "one.csv"
    emit_csv(rows, path)
    assert len(path.read_text().strip().split("\n")) == 2


def test_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "no.csv")


def test_svg_is_wellformed_xml(tmp_path):
    rows = run_sweep(SMALL)
    path = tmp_path / "plot.svg"
    emit_svg(rows, path, title="small")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) >= len(SMALL.algos)
    for el in polylines:
        for pair in el.attrib["points"].split():
            x, y = pair.split(",")
            float(x), float(y)
    # a section name with markup characters is escaped, not written raw
    emit_svg(rows, path, title="[a & <b>]")
    xml.dom.minidom.parse(str(path))
    title = next(el for el in ET.parse(path).getroot().iter()
                 if el.tag.endswith("text"))
    assert title.text == "[a & <b>]"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(rates=(0, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(allocation="greedy")


def test_parse_rates_forms():
    assert parse_rates("3-6") == (3, 4, 5, 6)
    assert parse_rates("1,2,8") == (1, 2, 8)
    assert parse_rates("4") == (4,)


def test_config_file_loading(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[DEFAULT]\ntrials = 2\nseed = 3\n\n"
        "[quick]\nproblem = gaussian\nm = 16\nn = 8\nkappa = 4\n"
        "algos = gd, dq-gd\nrates = 2-4\ncsv = out.csv\n"
    )
    (configs,) = [load_experiments(str(cfg))[0]],
    config = configs[0]
    assert config.name == "quick"
    assert config.trials == 2
    assert config.rates == (2, 3, 4)
    assert config.algos == ("gd", "dq-gd")
    assert config.csv.endswith("out.csv")
    rows = run_sweep(config)
    assert {r.algo for r in rows} == {"gd", "dq-gd"}


def test_config_default_may_hold_problem_keys_of_any_kind(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[DEFAULT]\nn = 6\nm = 12\nkappas = 4, 2\npath = none.mtx\n\n"
        "[single]\nproblem = gaussian\nkappa = 4\nalgos = dq-gd\n\n"
        "[multi]\nproblem = interpolation\nworkers = 2\nalgos = nq-gd\n"
        "rates = 2,4\n"
    )
    single, multi = load_experiments(str(cfg))
    assert single.problem == {"kind": "gaussian", "m": 12, "n": 6, "kappa": 4.0}
    assert multi.problem["kappas"] == [4.0, 2.0]


def test_accelerated_schedule_rejects_condition_number_one():
    from dqgrad.engines import dq_schedule
    from dqgrad.problems import make_gaussian_ls

    _, obj = make_gaussian_ls(8, 4, 1.0, 0)
    with pytest.raises(ValueError, match="condition number 1"):
        dq_schedule("dq-agd", obj, R=4)
    # first-order and heavy-ball schedules degenerate gracefully instead
    dq_schedule("dq-gd", obj, R=4)
    dq_schedule("dq-hb", obj, R=4)


def test_emitters_create_parent_directories(tmp_path):
    rows = run_sweep(ExperimentConfig(**{**SMALL.__dict__,
                                         "algos": ("dq-gd",), "rates": (4,)}))
    nested = tmp_path / "a" / "b" / "out.csv"
    emit_csv(rows, nested)
    assert nested.exists()
    nested_svg = tmp_path / "c" / "plot.svg"
    emit_svg(rows, nested_svg)
    assert nested_svg.exists()


def test_trial_errors_carry_their_index():
    from dqgrad.harness import TrialError

    # orthonormal columns give kappa = 1, where the accelerated schedule is
    # undefined: that fails only when the trial builds its engine
    bad = ExperimentConfig(**{**SMALL.__dict__, "algos": ("dq-agd",),
                              "problem": {"kind": "mtx", "matrix": np.eye(3, 2)}})
    with pytest.raises(TrialError, match="trial 0.*condition number 1"):
        run_sweep(bad)


@pytest.mark.parametrize("problem,detail", [
    ({"kind": "gaussian", "m": 32, "n": 16, "kappa": math.inf},
     "condition number must be finite"),
    ({"kind": "gaussian", "m": 32, "n": 16, "kappa": 0.5},
     "condition number must be >= 1, got 0.5"),
    ({"kind": "gaussian", "m": 8, "n": 16, "kappa": 5.0},
     "need m >= n >= 1, got 8 x 16"),
    ({"kind": "interpolation", "m": 32, "n": 16, "kappas": [2.0, math.nan]},
     "condition number must be >= 1, got nan"),
    ({"kind": "mtx", "matrix": np.ones((2, 3))},
     "matrix is 2 x 3; least squares needs"),
    ({"kind": "mtx", "matrix": np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])},
     r"matrix has smallest singular value 0\.0; least squares needs "
     r"L >= mu > 0, got L=1\.0, mu=0\.0"),
    ({"kind": "mtx", "matrix": np.zeros((3, 2))},
     r"smallest singular value 0\.0; .* got L=0\.0, mu=0\.0"),
], ids=["kappa-inf", "kappa-below-1", "wide", "interpolation-kappa-nan",
        "mtx-wide", "mtx-rank-deficient", "mtx-zero"])
def test_a_config_rejects_its_problem_values_when_built(problem, detail):
    # programmatic configs are checked as config files are, before any trial
    workers = len(problem.get("kappas", [None]))
    algos = ("nq-gd",) if problem["kind"] == "interpolation" else SMALL.algos
    with pytest.raises(ValueError, match=detail):
        ExperimentConfig(**{**SMALL.__dict__, "problem": problem,
                            "workers": workers, "algos": algos,
                            "rates": (2 * workers,)})


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_experiments("/nonexistent/sweep.ini")


def test_config_missing_section(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[only]\nproblem = gaussian\nm = 4\nn = 2\nkappa = 2\n")
    with pytest.raises(ConfigError):
        load_experiments(str(cfg), section="other")


def test_multiworker_sweep_with_waterfilling():
    config = ExperimentConfig(
        name="interp",
        algos=("nq-gd",),
        problem={"kind": "interpolation", "n": 6, "m": 12, "kappas": [4.0, 2.0]},
        rates=(2, 4),
        trials=2,
        seed=8,
        workers=2,
        allocation="waterfilling",
        t_max=1500,
    )
    rows = run_sweep(config)
    assert len(rows) == 2
    # the bound column reflects the per-worker allocation, not the sum rate
    for r in rows:
        assert r.bound > r.unquantized_sigma
        assert 0 < r.emp_mean <= 1


def test_multiworker_uniform_split():
    config = ExperimentConfig(
        name="interp-uniform",
        algos=("nq-gd",),
        problem={"kind": "interpolation", "n": 6, "m": 12, "kappas": [3.0, 3.0]},
        rates=(4,),
        trials=2,
        seed=4,
        workers=2,
        allocation="uniform",
        t_max=1500,
    )
    (row,) = run_sweep(config)
    assert 0 < row.emp_mean <= 1
    # the per-dimension sum rate must split evenly, checked before any trial
    with pytest.raises(ValueError, match="workers"):
        ExperimentConfig(**{**config.__dict__, "rates": (3,)})


def test_config_file_interpolation_section(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[multi]\nproblem = interpolation\nn = 6\nm = 12\nkappas = 4, 2\n"
        "workers = 2\nallocation = waterfilling\nalgos = nq-gd\n"
        "rates = 2,4\ntrials = 2\nseed = 2\n"
    )
    (config,) = load_experiments(str(cfg))
    assert config.problem["kappas"] == [4.0, 2.0]
    assert config.workers == 2
    rows = run_sweep(config)
    assert len(rows) == 2


def test_mtx_config_runs(tmp_path):
    mtx = tmp_path / "tiny.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "6 3 8\n"
        "1 1 2.0\n2 2 1.5\n3 3 1.0\n4 1 0.5\n4 2 0.25\n5 3 0.5\n6 1 0.1\n6 3 0.2\n"
    )
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[mtx]\nproblem = mtx\npath = {mtx.name}\nalgos = dq-gd\n"
        "rates = 3,5\ntrials = 2\nseed = 1\n"
    )
    (config,) = load_experiments(str(cfg))
    rows = run_sweep(config)
    assert len(rows) == 2
    assert all(0 < r.emp_mean <= 1 for r in rows)


# --- one BLAS thread per sweep ------------------------------------------------

BLAS_SECTION = ExperimentConfig(
    name="n384", algos=("gd", "dq-gd"),
    problem={"kind": "gaussian", "m": 768, "n": 384, "kappa": 100.0},
    rates=(8,), trials=1, seed=3, t_max=300)


def _blas_sweep_bytes(tmp_path, threads):
    """The CSV bytes of BLAS_SECTION swept with numpy's BLAS at `threads`."""
    with _blas.threads(threads):
        rows = run_sweep(BLAS_SECTION)
        # the sweep puts the old count back
        assert _blas._blas_threads()[0]() == threads
    path = tmp_path / f"threads{threads}.csv"
    emit_csv(rows, path)
    return path.read_bytes()


def test_a_large_section_gives_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # from n = 384 up the BLAS thread count moves result bits; the sweep
    # pins one thread, so the count it is started with does not matter
    if _blas._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    assert _blas_sweep_bytes(tmp_path, 1) == _blas_sweep_bytes(tmp_path, 2)


def test_a_sweep_warns_at_large_n_when_blas_cannot_be_pinned(monkeypatch):
    monkeypatch.setattr(_blas, "_blas_threads", lambda: None)
    small = ExperimentConfig(algos=("gd",), trials=1, t_max=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_sweep(small)  # n = 16: nothing to warn about
    with pytest.warns(RuntimeWarning, match="n = 384"):
        run_sweep(BLAS_SECTION)


# --- two-thread gradients in serial sweeps and pool workers -------------------

SPLIT_SECTION = ExperimentConfig(
    name="split", algos=("gd", "dq-gd", "dq-hb"),
    problem={"kind": "gaussian", "m": 512, "n": 256, "kappa": 100.0},
    rates=(8,), trials=2, seed=4, t_max=40)


def _lowered_gate(monkeypatch, cpus):
    """SPLIT_SECTION's shape passes the gate, on `cpus` CPUs; the list of
    two-thread gradient calls, in this process."""
    two_threads = _blas.two_thread_grad
    ran = []

    def counted(A, y, x):
        ran.append(A.shape)
        return two_threads(A, y, x)

    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN", 512 * 256)
    monkeypatch.setattr(_blas, "GRAD_SPLIT_MIN_COLS", 256)
    monkeypatch.setattr(_blas, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_blas, "two_thread_grad", counted)
    monkeypatch.setattr(_blas, "_pool_workers", 1)
    return ran


def test_a_split_section_gives_the_same_bytes_with_and_without_jobs(
        tmp_path, monkeypatch):
    # the section sits above a lowered gate, so the serial sweep takes two
    # BLAS threads per gradient, and the pool forks its workers from a
    # process whose OpenBLAS has run two threads
    if _blas._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    ran = _lowered_gate(monkeypatch, 2)
    out = []
    for jobs in (1, 2):
        rows = run_sweep(ExperimentConfig(**{**SPLIT_SECTION.__dict__,
                                             "jobs": jobs}))
        path = tmp_path / f"jobs{jobs}.csv"
        emit_csv(rows, path)
        out.append(path.read_bytes())
        if jobs == 1:
            assert ran and set(ran) == {(512, 256)}
    assert out[0] == out[1]


@pytest.mark.parametrize("cpus, workers, raises", [
    (2, 2, False), (4, 2, True), (2, 1, True), (3, 2, False)])
def test_pool_workers_take_two_blas_threads_only_with_two_cpus_each(
        monkeypatch, cpus, workers, raises):
    # two workers that each took two threads on two CPUs ran an n = 1024
    # sweep slower than with one each; a lone worker may still raise
    if _blas._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    ran = _lowered_gate(monkeypatch, cpus)
    with _blas.threads(1):
        _blas.pin_pool_worker(workers)  # as the pool's initializer does
        _, obj = make_gaussian_ls(512, 256, 100.0, 3)
        obj.grad(obj.x0)
        assert _blas._blas_threads()[0]() == 1
    assert ran == [(512, 256)] * raises

