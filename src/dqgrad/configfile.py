"""Experiment config files: INI sections, flat key/value pairs.

One section per experiment; [DEFAULT] supplies shared keys. Example:

    [DEFAULT]
    trials = 50
    seed = 7
    t_max = 10000

    [gaussian-k5]
    problem = gaussian
    m = 32
    n = 16
    kappa = 5
    algos = gd, dq-gd, nq-gd
    rates = 3-10
    csv = out/gaussian_k5.csv
    svg = out/gaussian_k5.svg

    [ash331]
    problem = mtx
    path = tests/data/ash331.mtx
    algos = gd, dq-gd, nq-gd
    rates = 1-12

`rates` is either a comma list (1,2,4) or an inclusive range (3-10).
Problem kinds: gaussian (m, n, kappa), mtx (path), interpolation
(n, m, kappas, workers).
"""

import configparser
import os

from .harness import ExperimentConfig
from .problems import load_matrix_market


class ConfigError(ValueError):
    pass


def parse_rates(text):
    text = text.strip()
    if "-" in text and "," not in text:
        lo, hi = text.split("-", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_list(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _problem_from_section(sec, base_dir):
    kind = sec.get("problem", "gaussian").strip()
    if kind == "gaussian":
        return {
            "kind": "gaussian",
            "m": int(sec["m"]),
            "n": int(sec["n"]),
            "kappa": float(sec["kappa"]),
        }
    if kind == "mtx":
        path = sec["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return {"kind": "mtx", "path": path, "matrix": load_matrix_market(path)}
    if kind == "interpolation":
        return {
            "kind": "interpolation",
            "n": int(sec["n"]),
            "m": int(sec["m"]),
            "kappas": [float(v) for v in _parse_list(sec["kappas"])],
        }
    raise ConfigError(f"unknown problem kind {kind!r}")


def load_experiments(path, section=None):
    """All experiment configs in the file (or just the named section)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"[{exc.section}] duplicate key {exc.option!r} "
                          f"at line {exc.lineno}") from exc
    except configparser.Error as exc:  # no section header, duplicate section
        raise ConfigError(f"{path}: {exc.message.splitlines()[0]}") from exc
    names = [section] if section else parser.sections()
    if section and section not in parser.sections():
        raise ConfigError(f"no section {section!r} in {path}")
    if not names:
        raise ConfigError(f"no experiment sections in {path}")
    base_dir = os.path.dirname(os.path.abspath(path))
    configs = []
    for name in names:
        sec = parser[name]
        out_path = lambda key: (
            None if sec.get(key) is None
            else sec.get(key) if os.path.isabs(sec.get(key))
            else os.path.join(base_dir, sec.get(key))
        )
        try:
            config = ExperimentConfig(
                name=name,
                algos=_parse_list(sec.get("algos", "gd, dq-gd, nq-gd")),
                problem=_problem_from_section(sec, base_dir),
                rates=parse_rates(sec.get("rates", "1-10")),
                trials=sec.getint("trials", 50),
                seed=sec.getint("seed", 0),
                t_max=sec.getint("t_max", 10_000),
                floor_scale=sec.getfloat("floor_scale", 1e-13),
                hb_alpha=sec.getfloat("hb_alpha", 0.0),
                workers=sec.getint("workers", 1),
                allocation=sec.get("allocation", "uniform"),
                csv=out_path("csv"),
                svg=out_path("svg"),
                jobs=sec.getint("jobs", 1),
            )
        except KeyError as exc:
            raise ConfigError(f"[{name}] missing key {exc}") from exc
        except ValueError as exc:  # out-of-range values and malformed numbers
            raise ConfigError(f"[{name}] {exc}") from exc
        configs.append(config)
    return configs
