import pytest

from dqgrad import selfcheck
from dqgrad.cli import main


def test_bounds_subcommand(capsys):
    assert main(["bounds", "--kappa", "4", "--n", "1", "--rmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "dq-gd" in out
    # max{0.6, 2^-R} stays at 0.6 for every R >= 1 at rho = 1
    data_lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(data_lines) == 8
    for line in data_lines:
        assert line.split()[1] == "0.600000"
    # threshold footer: R2 for dq-gd at rho=1 is log2(1/0.6)
    assert "dq-gd: linear convergence above R1=0.000" in out
    assert "R2=0.737" in out


@pytest.mark.parametrize("args", [
    ["--kappa", "0", "--n", "4"], ["--kappa", "0.5", "--n", "4"],
    ["--kappa", "nan", "--n", "4"], ["--kappa", "inf", "--n", "4"],
    ["--kappa", "4", "--n", "0"], ["--kappa", "4", "--n", "-1"],
    ["--kappa", "4", "--n", "4", "--rho", "0"],
    ["--kappa", "4", "--n", "4", "--rho", "nan"],
    ["--kappa", "4", "--n", "4", "--algos", "dq-gd,dq-foo"],
    ["--kappa", "4", "--n", "4", "--rmin", "0"],
    ["--kappa", "4", "--n", "4", "--rmin", "-3", "--rmax", "2"],
    ["--kappa", "4", "--n", "4", "--rmax", "54"],
    ["--kappa", "4", "--n", "4", "--rmin", "1080", "--rmax", "1080"],
    ["--kappa", "4", "--n", "4", "--rmin", "6", "--rmax", "5"],
], ids=["kappa-0", "kappa-below-1", "kappa-nan", "kappa-inf", "n-0", "n-negative",
        "rho-0", "rho-nan", "algo-unknown", "rmin-0", "rmin-negative",
        "rmax-above-cap", "rates-above-cap", "rmin-above-rmax"])
def test_bounds_bad_input(capsys, args):
    assert main(["bounds", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_bounds_runs_up_to_the_largest_rate(capsys):
    assert main(["bounds", "--kappa", "4", "--n", "4", "--rmin", "53",
                 "--rmax", "53"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if ln[:1].isdigit()]
    assert [row.split()[0] for row in rows] == ["53"]


def test_waterfill_subcommand(capsys):
    assert main(["waterfill", "--L", "4,1", "--R", "2"]) == 0
    out = capsys.readouterr().out
    assert "nu = 1" in out
    assert "worker 0: L=4 R=2" in out
    assert "worker 1: L=1 R=0" in out


def test_waterfill_a_large_budget(capsys):
    # the water level's exponent is bisected, so nu = 2**-449.5 is no
    # underflowing product of the bracket's ends
    assert main(["waterfill", "--L", "1,2", "--R", "900"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rates = [float(ln.split("R=")[1].split()[0]) for ln in lines[1:]]
    assert len(rates) == 2 and sum(rates) == pytest.approx(900, abs=1e-9)
    assert rates[1] - rates[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("L,R", [
    ("4,oops", "2"), ("1,nan", "4"), ("1,inf", "4"), ("1,2", "nan"),
    ("1,2", "inf"),
], ids=["L-unparsable", "L-nan", "L-inf", "R-nan", "R-inf"])
def test_waterfill_bad_input(capsys, L, R):
    assert main(["waterfill", "--L", L, "--R", R]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_missing_config(capsys):
    assert main(["sweep", "/no/such/config.ini"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--kappa", "4", "--n", "1", "--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[tiny]\nproblem = gaussian\nm = 12\nn = 6\nkappa = 3\n"
        "algos = gd, dq-gd\nrates = 2-4\ntrials = 2\nseed = 9\n"
        "csv = tiny.csv\nsvg = tiny.svg\n"
    )
    assert main(["sweep", str(cfg)]) == 0
    assert (tmp_path / "tiny.csv").exists()
    assert (tmp_path / "tiny.svg").exists()
    out = capsys.readouterr().out
    assert "[tiny]" in out
    assert "wrote" in out


@pytest.mark.parametrize("jobs", ["-1", "0"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[tiny]\nproblem = gaussian\nm = 12\nn = 6\nkappa = 3\n"
                   "algos = gd\nrates = 2\ntrials = 2\ncsv = tiny.csv\n")
    assert main(["sweep", str(cfg), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
    assert not (tmp_path / "tiny.csv").exists()


def test_verify_subcommand(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for num in (1, 2, 3, 9, 10):
        assert sum(ln.startswith(f"[PASS] c{num} ") for ln in lines) == 1
    assert not any(ln.startswith("[FAIL]") for ln in lines)
    assert all(quick <= full for _, _, _, quick, full in selfcheck.CHECKS)


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    num, name, _, quick, full = selfcheck.CHECKS[0]
    failing = (num, name, lambda size: (False, "forced"), quick, full)
    monkeypatch.setattr(selfcheck, "CHECKS", (failing,) + selfcheck.CHECKS[1:])
    assert main(["verify"]) == 1
    assert f"[FAIL] c{num} {name} (forced)" in capsys.readouterr().out


GOOD = "algos = gd, dq-gd\nm = 32\nn = 16\nkappa = 5\n"


@pytest.mark.parametrize("body,detail", [
    (GOOD + "rates = 0-2\n", ""),
    (GOOD + "rates = 53-54\n", "rate 54 exceeds 53"),
    (GOOD + "rates = 3-1\n", ""),
    ("algos = gd, dq-gd\nn = 16\nkappa = 5\nrates = 2-3\n", ""),
    ("algos = gd, dq-gd\nm = 32\nkappa = 5\nrates = 2-3\n", ""),
    ("algos = gd, dq-gd\nm = 32\nn = 16\nrates = 2-3\n", ""),
    ("algos = gd, dq-foo\nm = 32\nn = 16\nkappa = 5\nrates = 2-3\n", ""),
    (GOOD + "m = 3\nrates = 2-3\n", ""),
    (None, ""),
    (GOOD + "rate = 2-3\n", "unknown key 'rate'"),
    (GOOD + "rates = 2-3\ntrial = 2\n", "unknown key 'trial'"),
    (GOOD + "rates = 2-3\njobs = 2\n", "unknown key 'jobs'"),
    (GOOD + "rates = 2-3\nfloor_scale = nan\n", "unknown key 'floor_scale'"),
    (GOOD + "rates = 2-3\n[DEFAULT]\nseeds = 3\n", "unknown key 'seeds'"),
    (GOOD + "rates = 2-3\npath = a.mtx\n", "unknown key 'path'"),
    ("algos = gd\nm = 4\nn = 6\nkappa = 5\nrates = 2\n",
     "need m >= n >= 1, got 4 x 6"),
    ("algos = gd\nm = 4\nn = 0\nkappa = 5\nrates = 2\n",
     "need m >= n >= 1, got 4 x 0"),
    ("algos = gd\nm = 32\nn = 16\nkappa = 0.5\nrates = 2\n",
     "condition number must be >= 1, got 0.5"),
    ("problem = interpolation\nn = 8\nm = 4\nkappas = 2\nalgos = nq-gd\n"
     "rates = 2\n", "need m >= n >= 1, got 4 x 8"),
], ids=["rate-zero", "rate-above-cap", "empty-range", "no-m", "no-n",
        "no-kappa", "unknown-algo", "duplicate-key", "no-section-header",
        "typo-rate", "typo-trial", "jobs-key", "floor-scale-key",
        "typo-in-default", "other-kind-key", "gaussian-wide",
        "gaussian-n-zero", "gaussian-kappa-below-1", "interpolation-wide"])
def test_sweep_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, body,
                                                      detail):
    # every case fails while loading, before a trial builds an instance
    cfg = tmp_path / "bad.ini"
    if body is None:  # keys before any [section]
        cfg.write_text("problem = gaussian\n" + GOOD + "csv = bad.csv\n")
        expected = f"error: {cfg}: "
    else:
        kind = "" if body.startswith("problem =") else "problem = gaussian\n"
        cfg.write_text("[bad]\n" + kind + "trials = 1\n"
                       + body + "csv = bad.csv\n")
        expected = "error: [DEFAULT] " if "[DEFAULT]" in body else "error: [bad] "
    assert main(["sweep", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(expected + detail)
    assert "Traceback" not in captured.err
    assert not (tmp_path / "bad.csv").exists()


INTERP = "problem = interpolation\nn = 4\nm = 8\nalgos = nq-gd\n"


@pytest.mark.parametrize("body,detail", [
    ("problem = gaussian\n" + GOOD + "workers = 0\nrates = 2\n",
     "workers must be >= 1"),
    ("problem = gaussian\n" + GOOD + "workers = 2\nrates = 2\n",
     "2 workers need problem = interpolation"),
    (INTERP + "kappas = 2, 3, 4\nworkers = 2\nrates = 2\n",
     "kappas lists 3 condition numbers for 2 workers"),
    (INTERP + "kappas = 2, 3\nworkers = 2\nrates = 2-3\n",
     "uniform allocation needs workers | R: 2 workers cannot split R = 3"),
    (INTERP + "kappas = 2, 3\nworkers = 2\nallocation = waterfilling\n"
     "rates = 106-107\n", "rate 107's share 54 exceeds 53"),
    (INTERP.replace("nq-gd", "gd, nq-gd") + "kappas = 2, 3\nworkers = 2\n"
     "rates = 2\n", "gd needs a single-worker problem"),
    (INTERP.replace("nq-gd", "dq-gd") + "kappas = 2\nrates = 2\n",
     "dq-gd needs a single-worker problem"),
], ids=["zero-workers", "workers-on-gaussian", "kappas-count", "uneven-split",
        "share-above-cap", "gd-on-interpolation", "dq-on-interpolation"])
def test_sweep_worker_problem_mismatch_fails_before_any_trial(
        tmp_path, capsys, monkeypatch, body, detail):
    from dqgrad import harness

    def no_trial(config, trial):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trial)
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[bad]\ntrials = 1\n" + body + "csv = bad.csv\n")
    assert main(["sweep", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [bad] " + detail)
    assert "Traceback" not in err
    assert not (tmp_path / "bad.csv").exists()


def test_sweep_rejects_a_wide_matrix_when_loading(tmp_path, capsys):
    (tmp_path / "wide.mtx").write_text(
        "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[wide]\nproblem = mtx\npath = wide.mtx\nalgos = gd, dq-gd\n"
                   "rates = 2\ntrials = 1\ncsv = wide.csv\n")
    assert main(["sweep", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [wide] matrix {tmp_path / 'wide.mtx'} is 2 x 3")
    assert "Traceback" not in err
    assert not (tmp_path / "wide.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_reports_a_failed_trial_as_an_error(tmp_path, capsys, jobs):
    # a zero column passes the shape check but gives mu = 0, which fails
    # only when trial 0 builds its instance; with two jobs the error is
    # raised in a pool worker and pickled back
    (tmp_path / "zc.mtx").write_text(
        "%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n0\n0\n0\n")
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[zc]\nproblem = mtx\npath = zc.mtx\nalgos = gd\n"
                   "rates = 2\ntrials = 2\ncsv = zc.csv\n")
    assert main(["sweep", str(cfg), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [zc] trial 0: "
                          "InvalidConstantsError('need L >= mu > 0")
    assert "Traceback" not in err
    assert not (tmp_path / "zc.csv").exists()
