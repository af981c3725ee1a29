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
(n, m, kappas, workers). A missing key takes its `ExperimentConfig`
default, and a key the section does not read is an error.
"""

import configparser
import math
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


# ExperimentConfig fields set from keys of the same name
_FIELDS = {
    "algos": _parse_list,
    "rates": parse_rates,
    "trials": int,
    "seed": int,
    "t_max": int,
    "hb_alpha": float,
    "workers": int,
    "allocation": str,
}
_PATHS = ("csv", "svg")  # resolved against the config file's directory
_KEYS = {*_FIELDS, *_PATHS, "problem"}
# the keys each problem kind reads, in the order of its problem dict
_PROBLEMS = {
    "gaussian": {"m": int, "n": int, "kappa": float},
    "mtx": {"path": str},
    "interpolation": {"n": int, "m": int,
                      "kappas": lambda text: [float(v) for v in _parse_list(text)]},
}


def _problem_from_section(sec, base_dir):
    kind = sec.get("problem", "gaussian").strip()
    if kind not in _PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    problem = {"kind": kind}
    problem.update((key, parse(sec[key])) for key, parse in _PROBLEMS[kind].items())
    if kind == "mtx":
        problem["path"] = os.path.join(base_dir, problem["path"])
        problem["matrix"] = load_matrix_market(problem["path"])
        m, n = problem["matrix"].shape
        if m < n:  # every trial would fail building its least-squares instance
            raise ValueError(f"matrix {problem['path']} is {m} x {n}; least "
                             f"squares needs at least as many rows as columns")
    else:  # the shape and spectrum every trial's instance build would reject
        m, n = problem["m"], problem["n"]
        if not m >= n >= 1:
            raise ValueError(f"need m >= n >= 1, got {m} x {n}")
        kappas = problem["kappas"] if kind == "interpolation" else [problem["kappa"]]
        for kappa in kappas:
            if not kappa >= 1:  # NaN fails too
                raise ValueError(f"condition number must be >= 1, got {kappa}")
            if kappa == math.inf:
                raise ValueError("condition number must be finite, got inf")
    return problem


def _check_keys(keys, known):
    unknown = sorted(set(keys) - known)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")


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
    # [DEFAULT] may hold the problem keys of any kind, a section only its own
    shared = set(parser.defaults())
    try:
        _check_keys(shared, _KEYS.union(*_PROBLEMS.values()))
    except ValueError as exc:
        raise ConfigError(f"[DEFAULT] {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))
    configs = []
    for name in names:
        sec = parser[name]
        try:
            problem = _problem_from_section(sec, base_dir)
            _check_keys(set(sec) - shared, _KEYS | set(_PROBLEMS[problem["kind"]]))
            fields = {key: parse(sec[key]) for key, parse in _FIELDS.items()
                      if key in sec}
            # os.path.join keeps an absolute path as it is
            fields.update({key: os.path.join(base_dir, sec[key])
                           for key in _PATHS if key in sec})
            config = ExperimentConfig(name=name, problem=problem, **fields)
        except KeyError as exc:
            raise ConfigError(f"[{name}] missing key {exc}") from exc
        except ValueError as exc:  # out-of-range values and malformed numbers
            raise ConfigError(f"[{name}] {exc}") from exc
        configs.append(config)
    return configs
