"""The benchmark's span tracer still sees the code it claims to trace.

`perfbench/instruments.py` wraps each traced function at the names listed
in `TRACED`, so two kinds of drift hide calls from it: a listed site that
no longer exists, and a module that binds a traced function under a name
that is not listed (`from .bounds import nq_sigma` in a caller would be
called through that private binding and never reach the wrapper). Both
are checked here against the live package, without patching it. The
last test installs the run counter and the tracer on two short runs, to
check that their wrappers still take the round protocol's call shape.
"""

import importlib.util
import inspect
import os

import pytest

import dqgrad
import dqgrad.configfile  # not imported by the package itself

INSTRUMENTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "instruments.py")


def _load_instruments():
    spec = importlib.util.spec_from_file_location("instruments", INSTRUMENTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instruments = _load_instruments()


def _owner(module, owner):
    target = getattr(dqgrad, module, None)
    return target if owner is None else getattr(target, owner, None)


def _live(module, owner, attr):
    return attr in getattr(_owner(module, owner), "__dict__", {})


WITH_SITES = [row for row in instruments.TRACED if row[1]]


@pytest.mark.parametrize("name,sites", WITH_SITES,
                         ids=[name for name, _ in WITH_SITES])
def test_every_traced_metric_keeps_a_live_site(name, sites):
    assert any(_live(*site) for site in sites), f"{name}: no listed site exists"


def test_no_unlisted_binding_of_a_traced_function():
    unlisted = []
    for name, sites in instruments.TRACED:
        listed = {(module, attr) for module, owner, attr in sites
                  if owner is None}
        for fn in {getattr(dqgrad, m).__dict__.get(a) for m, a in listed} - {None}:
            home = inspect.getmodule(fn).__name__.rsplit(".", 1)[-1]
            for module in instruments.MODULES:
                if module == home:
                    continue
                for attr, value in vars(getattr(dqgrad, module)).items():
                    if value is fn and (module, attr) not in listed:
                        unlisted.append(f"{name}: dqgrad.{module}.{attr}")
    assert not unlisted, f"traced functions bound outside TRACED: {unlisted}"


def test_counter_and_tracer_see_every_round():
    counter = instruments.RunCounter(dqgrad)
    tracer = instruments.Tracer(dqgrad, counter)
    counter.install()  # in the order perfbench/run.py installs them
    try:
        tracer.install()
        try:
            _, obj = dqgrad.problems.make_gaussian_ls(32, 16, 5, 7)
            prob = dqgrad.problems.make_interpolation_problem(
                3, 16, 32, [2.0, 4.0, 6.0], 7)
            records = [dqgrad.harness.run_dq("dq-gd", obj, 6),
                       dqgrad.harness.run_nq(obj, [6])[0],
                       dqgrad.harness.run_nq(prob, [6, 6, 6])[0]]
        finally:
            tracer.remove()
    finally:
        counter.remove()
    rounds = sum(rec.terminal_T for rec in records)
    # one 4 + 8n byte frame per channel and round, n = 16
    frames = sum(rec.terminal_T * K for rec, K in zip(records, (1, 1, 3)))
    assert counter.errors == []
    assert counter.snapshot()["engines.rounds"] == rounds
    assert counter.snapshot()["transport.downlink_bytes"] == frames * (4 + 8 * 16)
    for name in ("harness.observe", "harness.stop"):
        assert tracer.calls[instruments.NAMES.index(name)] == rounds, name
    # every one-channel round, dq-gd's and the single naive worker's, steps
    # through the one worker round; no round came from a cycle
    assert all(rec.cycle is None for rec in records[:2])
    flat = records[0].terminal_T + records[1].terminal_T
    for name in ("engines.worker.round", "engines.worker.quantizer_input"):
        assert tracer.calls[instruments.NAMES.index(name)] == flat, name
