"""The benchmark's workloads: set-up, one unit of work, and its digest.

A unit is a short list of steps (one sweep section, or one `run_dq` call).
Each step returns the bytes of its outputs; the unit's digest is the
SHA-256 of those bytes in order. The timed loop measures the host's speed
between steps (see speed.py). A unit is deterministic: it does the same
work every time it runs.

Each workload draws its inputs from `--seed`. The seed picks one of POOL
instance seeds (index = seed mod POOL), and `pins.json` holds the digest
and the exact counts of one unit for every index, recorded from this
benchmark. So every run, whatever its seed, checks its outputs bit for
bit.

Every call into dqgrad goes through a module attribute (`dq.harness.run_dq`
and so on), so the wrappers of `instruments.py` see it.
"""

import dataclasses
import functools
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
POOL = 32


def load_dqgrad():
    """Import the package and every module the workloads and wrappers use."""
    import dqgrad
    import dqgrad.configfile  # not imported by the package itself

    return dqgrad


def _sweep_configs(dq, ini, index, out_dir, **overrides):
    """The INI file's sections, re-seeded by `index`, writing into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = dq.configfile.load_experiments(str(ini))
    return [
        dataclasses.replace(
            c, seed=c.seed + index, jobs=1,
            csv=str(out_dir / f"{c.name}.csv"),
            svg=str(out_dir / f"{c.name}.svg"), **overrides)
        for c in configs
    ]


def _sweep_section(dq, config):
    """run_sweep -> emit_csv/emit_svg; the bytes of both files."""
    rows = dq.harness.run_sweep(config)
    dq.harness.emit_csv(rows, config.csv)
    dq.harness.emit_svg(rows, config.svg, title=config.name)
    return Path(config.csv).read_bytes() + Path(config.svg).read_bytes()


class StockSweep:
    """The three sections of configs/experiments.ini, one trial each."""

    name = "stock-sweep"
    trials = 1
    blas_share = 0.0  # grad is about 7% of the time

    def setup(self, dq, root, index, out_dir):
        return _sweep_configs(dq, root / "configs" / "experiments.ini", index,
                              out_dir, trials=self.trials)

    def steps(self, dq, configs):
        return [functools.partial(_sweep_section, dq, c) for c in configs]


class ProtocolN1024:
    """run_dq at R=8 for dq-gd, dq-agd and dq-hb on one n=1024 instance."""

    name = "protocol-n1024"
    m, n, kappa, R = 2048, 1024, 100.0, 8
    algos = ("dq-gd", "dq-agd", "dq-hb")
    blas_share = 0.5  # grad is about 49% of the time, the codec 45%

    def setup(self, dq, root, index, out_dir):
        _, objective = dq.problems.make_gaussian_ls(self.m, self.n, self.kappa,
                                                    index)
        return objective

    def steps(self, dq, objective):
        return [functools.partial(self._run, dq, objective, a) for a in self.algos]

    def _run(self, dq, objective, algo):
        """The round count and the distance trace as little-endian float64."""
        import numpy as np  # loaded by dqgrad; kept out of module import

        record = dq.harness.run_dq(algo, objective, self.R)
        return (f"{algo} T={record.terminal_T}\n".encode()
                + np.asarray(record.distances, dtype="<f8").tobytes())


class NQFanIn:
    """8-worker naive quantization with waterfilling, from fanin.ini."""

    name = "nq-fanin"
    blas_share = 0.0  # grad is about 6% of the time

    def setup(self, dq, root, index, out_dir):
        return _sweep_configs(dq, BENCH_DIR / "fanin.ini", index, out_dir)

    def steps(self, dq, configs):
        return [functools.partial(_sweep_section, dq, c) for c in configs]


WORKLOADS = {w.name: w for w in (StockSweep(), ProtocolN1024(), NQFanIn())}
