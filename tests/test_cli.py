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


def test_waterfill_subcommand(capsys):
    assert main(["waterfill", "--L", "4,1", "--R", "2"]) == 0
    out = capsys.readouterr().out
    assert "nu = 1" in out
    assert "worker 0: L=4 R=2" in out
    assert "worker 1: L=1 R=0" in out


def test_waterfill_bad_input(capsys):
    assert main(["waterfill", "--L", "4,oops", "--R", "2"]) == 1


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


@pytest.mark.parametrize("body", [
    GOOD + "rates = 0-2\n",
    GOOD + "rates = 3-1\n",
    "algos = gd, dq-gd\nn = 16\nkappa = 5\nrates = 2-3\n",
    "algos = gd, dq-gd\nm = 32\nkappa = 5\nrates = 2-3\n",
    "algos = gd, dq-gd\nm = 32\nn = 16\nrates = 2-3\n",
    "algos = gd, dq-foo\nm = 32\nn = 16\nkappa = 5\nrates = 2-3\n",
    GOOD + "m = 3\nrates = 2-3\n",
    None,
], ids=["rate-zero", "empty-range", "no-m", "no-n", "no-kappa", "unknown-algo",
        "duplicate-key", "no-section-header"])
def test_sweep_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, body):
    cfg = tmp_path / "bad.ini"
    if body is None:  # keys before any [section]
        cfg.write_text("problem = gaussian\n" + GOOD + "csv = bad.csv\n")
        expected = f"error: {cfg}: "
    else:
        cfg.write_text("[bad]\nproblem = gaussian\ntrials = 1\n"
                       + body + "csv = bad.csv\n")
        expected = "error: [bad] "
    assert main(["sweep", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(expected)
    assert "Traceback" not in captured.err
    assert not (tmp_path / "bad.csv").exists()
