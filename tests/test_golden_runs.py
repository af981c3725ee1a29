"""Bit-identity guard: SHA-256 of the traces of fixed, seeded runs.

Each digest covers `distances`, `u_norms` and `ranges` of one RunRecord as
little-endian float64 bytes, so any change to the arithmetic of a round
(quantizer, codec, schedule, update rule or the norms the harness takes)
shows up here in a few seconds, long before the stock sweeps would catch it.
The digests were recorded from the code as it stood before the hot path of
the quantizer, the codec and the norms was rewritten for speed; the
`STALLED_GOLDEN` ones from the code as it stood before the workers replayed
repeated rounds; the `FANIN_GOLDEN` and `UNEQUAL_GOLDEN` ones from the code
as it stood before the naive-quantization workers and the server's decode
ran as stacked rows.
"""

import hashlib
import warnings

import numpy as np
import pytest

from dqgrad.harness import run_dq, run_nq, run_unquantized
from dqgrad.problems import make_gaussian_ls, make_interpolation_problem
from dqgrad.schedules import waterfill_bits

T_MAX = 1500


def fingerprint(record):
    h = hashlib.sha256()
    for series in (record.distances, record.u_norms, record.ranges):
        h.update(np.asarray(series, dtype="<f8").tobytes())
        h.update(b"|")
    return h.hexdigest(), record.terminal_T


# (algo, m, n, kappa, R) -> (digest, terminal_T); gaussian instance seed 3.
# The kappa = 5 heavy-ball run is the saturating case whose range collapses
# to 0 while the iterate is frozen, so it pins the saturated cells too.
DQ_GOLDEN = {
    ("dq-gd", 32, 16, 25.0, 2): (
        "e26339128e0b4447f63a15b55e6959b3fbf0ea1791a1a2db6b6795a23cdfed1b", 1500),
    ("dq-gd", 32, 16, 25.0, 8): (
        "c13c069921c74eb5ae30b56b4356e3f8e3c650d6601a1d50fe7c75ad904a7297", 370),
    ("dq-agd", 32, 16, 25.0, 2): (
        "0ad2e423175d784c365492306b34fbc5e087e8370509d5a73e4243f88d7ab222", 27),
    ("dq-agd", 32, 16, 25.0, 8): (
        "720ab3009283b67e5ac982c48e0e1fd5263559e57a184716b936418fe62e409d", 256),
    ("dq-hb", 32, 16, 25.0, 2): (
        "f4d98d654faf751f5bee56f8d022996d5957ec90288bce3fe2fa42faae25f51c", 38),
    ("dq-hb", 32, 16, 25.0, 8): (
        "5138272ff190fbbc33693f1a4f89f0729fc9fb0cf77efe7f7fcf64c915f7984f", 82),
    ("dq-gd", 208, 104, 25.0, 2): (
        "f20bb410270269a6f72431670fa2d48f4febf716b387c88ec222cbca28736b9f", 22),
    ("dq-gd", 208, 104, 25.0, 8): (
        "40a65d9e416a07e32144abffd008de07a33254377c5dbf14f87ba829f3aee73b", 355),
    ("dq-agd", 208, 104, 25.0, 2): (
        "07b3563e65f228f723e7c168dd410372a827de25755ffd27ddd223844d1b3678", 13),
    ("dq-agd", 208, 104, 25.0, 8): (
        "5cf8695781ab4ae814660e7a1e561d7cbc4f633156edd2ad4434b0cd39016c31", 264),
    ("dq-hb", 208, 104, 25.0, 2): (
        "b3c521239b98eaf524730c7dc81fd548052730c8b566d7e02980665767d39279", 15),
    ("dq-hb", 208, 104, 25.0, 8): (
        "45353847b31c72e78b39c2e6f32db8ed477076e0fa31c545be1fdf0665050bdb", 79),
    ("dq-hb", 32, 16, 5.0, 8): (
        "6f954033d3a27094ca2a8407e55019811512e7346bf044b42c410b073a2a61f9", 1500),
}

# algo -> (digest, terminal_T); gaussian m=32, n=16, kappa=25, seed 3
UNQUANTIZED_GOLDEN = {
    "gd": (
        "6fdd16aea0adf78d609a728f691d67dd0cbbe77010616a9fcff95e55f73404c3", 370),
    "agd": (
        "2394b38ce1cf14ca3b73e7c08fd913a2b87f32ea8216f176f7129ea4f96b4c75", 147),
    "hb": (
        "2cb1c1af66247fc6db20fd54217f79e8aaede4085597e4f49bfb95135b814c9a", 82),
}

# two workers, L = (4, 1), n = 16, m_k = 32, seed 5, rates (5, 3)
NQ_GOLDEN = (
    "2beed3eeb54a0ba6e7e26824635cf4d14b6a9b919a9339aaced140b477c98759", 171)

# The 8-worker instance of the nq-fanin benchmark workload at config seed 0,
# trial 0: n = 64, m_k = 128, kappa_k = 2, 4, ..., 16, full t_max = 10 000.
# Waterfilled sum rate -> (digest, terminal_T); every worker gets R/8 bits.
FANIN_GOLDEN = {
    56: ("2e04a1dae85d122c0c0467d5ea87b6999b574df9e2ca7ec3c654e7a68bdef44e", 134),
    96: ("0d42f757da3157deef13f74e800c5faf61fdb3f10fbad438469a35207d64f1ff", 70),
}

# Unequal rates with a silent worker, so the server decodes several rate
# groups, one of them interleaved: (rates, L_list) -> (digest, terminal_T).
# Instances: n = 16, m_k = 32, seed 9, kappa_k = 4, 2, 8(, 3); t_max = T_MAX.
# The first run diverges.
UNEQUAL_GOLDEN = {
    ((3, 2, 0), (4.0, 2.0, 1.0)): (
        "90d07a260f993c90e45a00f8b886f854720dbda0f5c876759ab0a0f5d15febbd", 27),
    ((6, 4, 0), (4.0, 2.0, 0.25)): (
        "92fceadb8bd7a582f6709bf43a9d1e9861fcaf39bd4c72be2c9d1e8d7fd47718", 394),
    ((6, 4, 6, 0), (4.0, 1.0, 4.0, 0.25)): (
        "2f35d417a8a5e65492c04f4df37c527e29854072234ac9ad002e8f0dc367e183", 450),
}


# Full t_max = 10 000 runs whose range stops moving, so most of their rounds
# repeat an earlier worker state exactly. Instance -> (digest, terminal_T,
# violations); every round carries n*R uplink bits.
#   gaussian-k5 trial 0 of the stock sweep (config seed 7): cycles from
#     about round 95;
#   momentum-k25 at config seed 8, trial 0;
#   the saturating heavy-ball run at alpha = 0, whose range collapses to 0;
#   gaussian-k5 at config seeds 10 and 11, trial 0: cycles of period 16 and 22;
#   momentum-k25 at config seed 7, trial 0: stalls but drifts without ever
#     repeating its state.
# The last three were recorded from the code as it stood before stalled runs
# skipped their cycles.
STALLED_GOLDEN = {
    ("dq-gd", 10, 0, 5.0, 2): (
        "73b967e4f3d8ca4f292a9832673fd07980980fa4acb119817beddc623c14be1a",
        10_000, 0),
    ("dq-gd", 11, 0, 5.0, 2): (
        "316e6e7bb4f2d058e2474188f0d19542a38df42e27e2d5ea286b5fd098c2b37a",
        10_000, 0),
    ("dq-gd", 7, 0, 25.0, 2): (
        "f603ee3076bc46412fa7e9406be17f62038332c875608f9858f5172116b10764",
        10_000, 0),
    ("dq-gd", 7, 0, 5.0, 2): (
        "fce7a59aa5f2b9fb7d55927e1f5c683509b0750b51420026131f340851f22069",
        10_000, 0),
    ("dq-gd", 8, 0, 25.0, 2): (
        "95d79c64f610aab1f9467150e067e9799c7d701a0935d1c9d45013ccc5cb31fe",
        10_000, 0),
    ("dq-hb", 3, None, 5.0, 8): (
        "2c5be895519adac533a8bcd46e5392a8bed9eabe54ef843e62f406ff2b63dc40",
        10_000, 9995),
}


def stalled_instance(seed, trial, kappa):
    """m = 32, n = 16; a sweep trial's instance, or gaussian seed `seed`."""
    if trial is not None:
        seed = np.random.SeedSequence(seed, spawn_key=(trial,))
    _, obj = make_gaussian_ls(32, 16, kappa, seed)
    return obj


def dq_case(algo, m, n, kappa, R):
    _, obj = make_gaussian_ls(m, n, kappa, 3)
    with warnings.catch_warnings():
        # the saturating kappa = 5 run once overflowed the quantizer's divide
        warnings.simplefilter("error")
        return fingerprint(run_dq(algo, obj, R, t_max=T_MAX))


def unquantized_case(algo):
    _, obj = make_gaussian_ls(32, 16, 25.0, 3)
    return fingerprint(run_unquantized(algo, obj, t_max=T_MAX))


def nq_case():
    prob = make_interpolation_problem(2, 16, 32, [4.0, 2.0], 5, L_list=[4.0, 1.0])
    rec, _ = run_nq(prob, [5, 3], t_max=T_MAX)
    return fingerprint(rec)


@pytest.mark.parametrize("case", sorted(DQ_GOLDEN), ids=str)
def test_dq_run_is_bit_identical(case):
    assert dq_case(*case) == DQ_GOLDEN[case]


@pytest.mark.parametrize("algo", sorted(UNQUANTIZED_GOLDEN))
def test_unquantized_run_is_bit_identical(algo):
    assert unquantized_case(algo) == UNQUANTIZED_GOLDEN[algo]


def test_two_worker_nq_run_is_bit_identical():
    assert nq_case() == NQ_GOLDEN


@pytest.mark.parametrize("case", sorted(STALLED_GOLDEN, key=str), ids=str)
def test_stalled_full_length_run_is_bit_identical(case):
    algo, seed, trial, kappa, R = case
    rec = run_dq(algo, stalled_instance(seed, trial, kappa), R, t_max=10_000)
    assert (*fingerprint(rec), rec.violations) == STALLED_GOLDEN[case]
    assert rec.bits_per_iteration == [16 * R] * rec.terminal_T


@pytest.mark.parametrize("R", sorted(FANIN_GOLDEN))
def test_eight_worker_fanin_run_is_bit_identical(R):
    ss = np.random.SeedSequence(0, spawn_key=(0,))
    prob = make_interpolation_problem(8, 64, 128, [2.0 * k for k in range(1, 9)],
                                      ss)
    rates = waterfill_bits(prob.L_list, R)
    assert rates == [R // 8] * 8
    rec, _ = run_nq(prob, rates)
    assert fingerprint(rec) == FANIN_GOLDEN[R]
    assert rec.bits_per_iteration == [64 * R] * rec.terminal_T


@pytest.mark.parametrize("case", sorted(UNEQUAL_GOLDEN), ids=str)
def test_unequal_rate_nq_run_is_bit_identical(case):
    rates, L_list = case
    kappas = [4.0, 2.0, 8.0, 3.0][:len(rates)]
    prob = make_interpolation_problem(len(rates), 16, 32, kappas, 9,
                                      L_list=L_list)
    rec, _ = run_nq(prob, list(rates), t_max=T_MAX)
    assert fingerprint(rec) == UNEQUAL_GOLDEN[case]
    assert rec.bits_per_iteration == [16 * sum(rates)] * rec.terminal_T
