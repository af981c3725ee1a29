import ast
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dqgrad import quantizer, selfcheck
from dqgrad.harness import run_dq
from dqgrad.problems import make_gaussian_ls
from dqgrad.quantizer import (
    MAX_RATE,
    BitCoder,
    EncodingError,
    Payload,
    QuantizerSpec,
    RangeViolationError,
    covering_radius,
    decode_payload,
    encode_payload,
    reconstruct,
)
from dqgrad.rng import make_rng


def test_two_cell_quantizer():
    q = QuantizerSpec(1, 1).scaled(1.0)
    _, recon = q.quantize(np.array([0.7]))
    assert recon[0] == 0.5
    assert abs(0.7 - recon[0]) == pytest.approx(0.2)
    assert abs(0.7 - recon[0]) <= 0.5


def test_tie_rounds_toward_plus_infinity():
    q = QuantizerSpec(1, 1).scaled(1.0)
    _, recon = q.quantize(np.array([0.0]))
    assert recon[0] == 0.5


def test_random_draws_respect_cell_geometry_bound():
    # ||err|| <= r * sqrt(n) * 2^-R over the whole cube domain
    n, R, r = 4, 2, 2.0
    q = QuantizerSpec(n, R).scaled(r)
    gen = make_rng(42)
    bound = r * np.sqrt(n) * 2.0 ** (-R)
    for _ in range(10_000):
        u = r * (2.0 * gen.random(n) - 1.0)
        _, recon = q.quantize(u)
        assert np.linalg.norm(recon - u) <= bound
    assert bound == 1.0


def test_out_of_domain_raises_with_coordinate():
    q = QuantizerSpec(3, 2).scaled(1.0)
    with pytest.raises(RangeViolationError) as exc:
        q.quantize(np.array([0.5, -1.5, 0.1]))
    assert exc.value.coord == 1
    assert exc.value.value == -1.5


def test_saturating_mode_clamps_instead():
    q = QuantizerSpec(2, 3).scaled(1.0, saturate=True)
    idx, recon = q.quantize(np.array([5.0, -5.0]))
    assert idx.tolist() == [7, 0]
    assert np.all(np.abs(recon) <= 1.0)


def test_covering_radius_values():
    assert covering_radius(QuantizerSpec(1, 3), 1.0) == pytest.approx(0.125)
    assert covering_radius(QuantizerSpec(4, 1), 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        covering_radius(QuantizerSpec(1, 1), -0.5)
    with pytest.raises(ValueError):
        QuantizerSpec(2, 2).scaled(-1.0).quantize(np.zeros(2))


def test_covering_radius_matches_grid_search():
    # dense grid over the domain includes the cell corners, where the
    # worst reconstruction error is attained
    n, R, r = 2, 2, 1.0
    q = QuantizerSpec(n, R).scaled(r)
    axis = np.linspace(-r, r, 4 * (1 << R) + 1)
    worst = 0.0
    for a in axis:
        for b in axis:
            u = np.array([a, b])
            _, recon = q.quantize(u)
            worst = max(worst, float(np.linalg.norm(recon - u)))
    assert abs(worst - covering_radius(QuantizerSpec(n, R), r)) <= 1e-9


def test_covering_efficiency_is_sqrt_n():
    assert QuantizerSpec(1, 5).rho == pytest.approx(1.0)
    assert QuantizerSpec(9, 2).rho == pytest.approx(3.0)
    rho = QuantizerSpec(2, 1).rho
    assert rho == pytest.approx(np.sqrt(2))
    assert rho >= 1.0
    # image_size**(1/n) * covering_radius / dynamic range, at every rate
    for R in (0, 3, MAX_RATE):
        spec = QuantizerSpec(2, R)
        assert spec.image_size ** 0.5 * covering_radius(spec, 1.0) == spec.rho


def test_scaling_commutes():
    # quantize at scale r equals r * (quantize at scale 1 of u/r)
    gen = make_rng(3)
    spec = QuantizerSpec(8, 3)
    for _ in range(200):
        r = float(10.0 ** gen.uniform(-3, 3))
        u = r * (2.0 * gen.random(8) - 1.0)
        _, recon_r = spec.scaled(r).quantize(u)
        _, recon_1 = spec.scaled(1.0).quantize(u / r)
        assert np.allclose(recon_r, r * recon_1, rtol=1e-12, atol=0.0)


def test_zero_scale_accepts_only_zero():
    q = QuantizerSpec(2, 4).scaled(0.0)
    _, recon = q.quantize(np.zeros(2))
    assert np.all(recon == 0.0)
    with pytest.raises(RangeViolationError):
        q.quantize(np.array([0.0, 1e-9]))


def test_encode_examples():
    buf, nbits = encode_payload([3, 1], 2)
    assert nbits == 4
    assert buf == bytes([0b1101_0000])
    buf, nbits = encode_payload([255], 8)
    assert (buf, nbits) == (b"\xff", 8)


def test_index_overflow_rejected():
    with pytest.raises(EncodingError):
        encode_payload([4], 2)
    with pytest.raises(EncodingError):
        encode_payload([1], 0)


def test_roundtrip_random():
    gen = make_rng(11)
    for _ in range(10_000):
        n = int(gen.integers(1, 33))
        R = int(gen.integers(1, 13))
        idx = gen.integers(0, 1 << R, size=n)
        buf, nbits = encode_payload(idx, R)
        assert nbits == n * R
        assert len(buf) == (nbits + 7) // 8
        assert np.array_equal(decode_payload(buf, nbits, n, R), idx)


def test_payload_carries_exact_bit_count():
    p = Payload.from_indices([1, 2, 3], 4)
    assert p.nbits == 12
    assert decode_payload(p.bits, p.nbits, 3, 4).tolist() == [1, 2, 3]


def test_payload_is_a_value_with_a_short_repr():
    p = Payload.from_indices([1, 2, 3], 4)
    same, other = Payload(bytes(p.bits), 12), Payload(p.bits, 13)
    assert p == same and hash(p) == hash(same)
    assert p != other and p != (p.bits, p.nbits)
    assert repr(p) == "Payload(nbits=12)"
    assert not hasattr(p, "__dict__")


def test_image_cardinality():
    spec = QuantizerSpec(3, 2)
    assert spec.image_size == 2 ** (3 * 2)
    # every lattice point is reachable and lies inside the domain
    pts = reconstruct(spec, 1.0, np.arange(spec.levels))
    assert np.all(np.abs(pts) <= 1.0)
    assert len(np.unique(pts)) == spec.levels


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        QuantizerSpec(0, 1)
    with pytest.raises(ValueError):
        QuantizerSpec(4, -1)
    with pytest.raises(ValueError):
        QuantizerSpec(4, 1, kind="lattice-e8")
    for R in (54, 64):  # past float64-exact cell numbers
        with pytest.raises(ValueError, match="exceeds 53"):
            QuantizerSpec(4, R)


@pytest.mark.parametrize("n,R,bad", [
    (2.5, 2, "n"), (4.0, 2, "n"), (4, 3.0, "R"), (4, 2.5, "R"), (4, "3", "R"),
    (4, None, "R"), (np.float64(4), 2, "n"),
])
def test_non_integer_sizes_rejected(n, R, bad):
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        QuantizerSpec(n, R)


def test_a_dq_run_at_a_float_rate_is_a_value_error():
    _, obj = make_gaussian_ls(8, 4, 3.0, 1)
    with pytest.raises(ValueError, match="R must be an integer, got 3.0"):
        run_dq("dq-gd", obj, 3.0)


@pytest.mark.parametrize("n,R", [(np.int64(4), np.int64(3)), (np.int32(1), 0),
                                 (4, np.uint8(53))])
def test_numpy_integer_sizes_accepted(n, R):
    spec = QuantizerSpec(n, R)
    assert spec.levels == 1 << int(R)
    assert spec.rho == pytest.approx(np.sqrt(int(n)))


@pytest.mark.parametrize("R", [53])
def test_top_cell_index_exact_at_high_rate(R):
    # the float clip bound 2**R - 1 is still exact at the largest rate
    coder = BitCoder(QuantizerSpec(3, R))
    payload, _ = coder.encode(1.0, np.array([1.0, -1.0, 0.0]))
    idx = decode_payload(payload.bits, payload.nbits, 3, R)
    assert idx.tolist() == [(1 << R) - 1, 0, 1 << (R - 1)]


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("R", [0, 3, 53])
def test_range_without_a_finite_cell_width_rejected(R, saturate):
    # r = inf and NaN, and r = 1e308, where 2r overflows: both channel ends
    # refuse the range, at a float range and for one row of a column
    spec = QuantizerSpec(3, R)
    coder = BitCoder(spec, saturate)
    u = np.array([0.0, 1.0, -1.0])
    wire = encode_payload(np.zeros(3, dtype=np.int64), R)[0]
    for bad in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="no finite cell width"):
            spec.scaled(bad, saturate).quantize(u)
        with pytest.raises(ValueError, match="no finite cell width"):
            coder.encode(bad, u)
        with pytest.raises(ValueError, match="no finite cell width"):
            coder.encode_rows(bad, u)
        with pytest.raises(ValueError, match="no finite cell width"):
            coder.decode(bad, [wire])
        column = np.array([[1.0], [bad], [2.0]])
        U = np.stack([u, u, u])
        with pytest.raises(ValueError, match="row 1: .*no finite cell width"):
            coder.encode_rows(column, U)
        with pytest.raises(ValueError, match="row 1: .*no finite cell width"):
            coder.decode(column, [wire] * 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("r", [1.0, 0.0])
@pytest.mark.parametrize("R", [0, 3])
def test_non_finite_input_rejected(bad, saturate, r, R):
    q = QuantizerSpec(3, R).scaled(r, saturate=saturate)
    u = np.array([0.0, bad, 0.0])
    with pytest.raises(RangeViolationError) as exc:
        q.quantize(u)
    assert exc.value.coord == 1
    with pytest.raises(RangeViolationError):
        BitCoder(QuantizerSpec(3, R), saturate).encode(r, u)


# --- the coder's bit layout against the reference's one Python int ---------


@st.composite
def codec_cases(draw):
    """(n, R, indices, seed): uniform indices, or few distinct edge values."""
    n = draw(st.integers(1, 2048))
    R = draw(st.integers(0, MAX_RATE))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        idx = make_rng(seed).integers(0, 1 << R, size=n)
    else:
        top = (1 << R) - 1
        edges = st.sampled_from([0, top, top >> 1, (top + 1) >> 1]) | st.integers(0, top)
        idx = draw(hnp.arrays(np.int64, n, elements=edges, fill=edges))
    return n, R, idx, seed


@settings(max_examples=200, deadline=None)
@given(codec_cases())
def test_codec_matches_loop_reference(case):
    # the coder's packing and unpacking of cell numbers against the
    # reference's loop over one Python int, which round-trips
    n, R, idx, seed = case
    buf, nbits = encode_payload(idx, R)
    assert nbits == n * R and len(buf) == (nbits + 7) // 8
    assert quantizer._pack(idx.astype(np.float64), R).tobytes() == buf
    out = decode_payload(buf, nbits, n, R)
    assert out.dtype == np.int64
    assert np.array_equal(out, idx)
    # any wire bytes, padding bits included, decode as the loop decodes them
    wire = make_rng(seed).bytes(len(buf))
    weights = quantizer._layout(R).weights
    cells = quantizer._unpack(np.frombuffer(wire, np.uint8), n, R, weights)
    assert np.array_equal(cells, decode_payload(wire, nbits, n, R))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), R=st.integers(0, MAX_RATE), data=st.data())
def test_codec_rejects_what_the_loop_rejects(n, R, data):
    # the reference refuses an index outside [0, 2**R), and the coder's
    # decode refuses a payload of the wrong length as the reference does
    pos = data.draw(st.integers(0, n - 1))
    idx = np.zeros(n, dtype=np.int64)
    for bad in (data.draw(st.integers(-(2**63), -1)),
                data.draw(st.integers(1 << R, 2**63 - 1))):
        idx[pos] = bad
        with pytest.raises(EncodingError, match=f"index {bad} does not fit"):
            encode_payload(idx, R)

    buf, nbits = encode_payload(np.zeros(n, dtype=np.int64), R)
    wrong_nbits = data.draw(st.integers(0, 2 * n * R + 8).filter(lambda b: b != nbits))
    wrong_len = data.draw(st.integers(0, len(buf) + 2).filter(lambda b: b != len(buf)))
    with pytest.raises(EncodingError, match=f"expected {nbits} bits"):
        decode_payload(buf, wrong_nbits, n, R)
    with pytest.raises(EncodingError) as ref:
        decode_payload(bytes(wrong_len), nbits, n, R)
    with pytest.raises(EncodingError) as exc:
        BitCoder(QuantizerSpec(n, R)).decode(1.0, [bytes(wrong_len)])
    assert str(exc.value) == str(ref.value)


# --- the coder against the reference's plain expressions --------------------


@st.composite
def quantizer_cases(draw):
    """(spec, r, saturate, u): u on the cube, with faces, cell edges and,
    when saturating, values far outside mixed in."""
    n = draw(st.integers(1, 512))
    R = draw(st.integers(0, MAX_RATE))
    r = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-321])
             | st.floats(1e-6, 1e6))
    saturate = draw(st.booleans())
    gen = make_rng(draw(st.integers(0, 2**32 - 1)))
    u = r * (2.0 * gen.random(n) - 1.0)
    width = 2.0 * r / (1 << R)
    # clipped: when r is subnormal, width rounds up and -r + width*k can
    # leave the cube (see test_subnormal_cell_edge_off_the_cube_is_rejected)
    edges = np.clip([-r, r, 0.0, -0.0, -r + width, r - width,
                     -r + width * float(gen.integers(0, 1 << R))], -r, r).tolist()
    if saturate:
        edges += [2.0 * r, -2.0 * r, r * (1 + 2**-40), 1e10, -1e10, 1.7e308, -1.7e308]
    k = draw(st.integers(0, n))
    u[gen.integers(0, n, size=k)] = gen.choice(edges, size=k)
    return QuantizerSpec(n, R), r, saturate, u


@settings(max_examples=300, deadline=None)
@given(quantizer_cases())
def test_quantizer_matches_seed_expressions(case):
    # the worker's end: the coder's in-place cell map, clamp and centers
    # against the reference's np.clip(np.floor((u + r) / w)) and
    # -r + (i + 0.5) * w
    spec, r, saturate, u = case
    idx, recon = spec.scaled(r, saturate).quantize(u)
    assert idx.dtype == np.int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, no divide by zero
        payload, coded = BitCoder(spec, saturate).encode(r, u)
    assert payload.bits == encode_payload(idx, spec.R)[0]
    assert coded.tobytes() == recon.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 512), R=st.integers(0, MAX_RATE),
       r=st.sampled_from([0.0, 5e-324, 1e-300]) | st.floats(1e-6, 1e6),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruct_matches_seed_expression(n, R, r, seed):
    # the server's end: the coder's float weights and centers against the
    # reference's int read-back and -r + (i + 0.5) * w, up to the top index
    spec = QuantizerSpec(n, R)
    idx = make_rng(seed).integers(0, 1 << R, size=n)
    idx[: n // 4] = (1 << R) - 1  # the top index, 2**53 - 1 at R = 53
    buf, _ = encode_payload(idx, R)
    ref = reconstruct(spec, r, idx)
    assert reconstruct(spec, r, idx.tolist()).tobytes() == ref.tobytes()
    assert BitCoder(spec).decode(r, [buf]).tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(quantizer_cases().filter(lambda c: c[1] >= 1e-6))
def test_error_within_half_a_cell_on_the_cube(case):
    # per coordinate |q(u) - u| <= width/2, up to a few units in the last
    # place of r from rounding u + r and the cell center; hence
    # ||q(u) - u|| <= r*sqrt(n)*2**-R, the covering radius
    spec, r, saturate, u = case
    u = np.clip(u, -r, r)
    _, recon = spec.scaled(r, saturate).quantize(u)
    slack = 2.0**-50 * r
    assert np.all(np.abs(recon - u) <= r * 2.0 ** (-spec.R) + slack)
    assert (np.linalg.norm(recon - u)
            <= (covering_radius(spec, r) + np.sqrt(spec.n) * slack) * (1 + 1e-12))


def test_subnormal_cell_edge_off_the_cube_is_rejected():
    # at r = 1e-321, R = 8 the width 2r/256 rounds up to 1e-323, so the cell
    # edge -r + 217*width lies beyond r; strict mode must refuse it
    r = 1e-321
    width = 2.0 * r / (1 << 8)
    u = np.zeros(441)
    u[390] = -r + 217 * width
    assert u[390] == 1.146e-321 > r
    with pytest.raises(RangeViolationError, match="coordinate 390"):
        QuantizerSpec(441, 8).scaled(r, saturate=False).quantize(u)


def test_saturating_overflow_is_silent_and_moves_no_index():
    q = QuantizerSpec(2, 8).scaled(1e-300, saturate=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, _ = q.quantize([1e10, 0.0])
        assert idx.tolist() == [255, 128]
        # width subnormal: 2r/width is 202, not 256, so clamping u at r would
        # move the top index; beyond-range input still lands where it did
        q = QuantizerSpec(3, 8).scaled(1e-321, saturate=True)
        idx, _ = q.quantize([1e-10, -1e-10, 1e-321])
        assert idx.tolist() == [255, 0, 202]


def test_worker_and_server_reconstruct_alike_when_the_width_underflows():
    # when 0 < r and the cell width 2r/2**R underflows to 0, both ends give
    # index 0 the center -r; the saturating dq-hb alpha = 0 run at kappa = 5,
    # R = 8 reaches such r (test_engines checks it round by round)
    spec, r = QuantizerSpec(4, 8), 1e-322
    assert 0.0 < r and 2.0 * r / spec.levels == 0.0
    coder = BitCoder(spec, saturate=True)
    payload, recon = coder.encode(r, np.zeros(4))
    assert recon.tobytes() == np.full(4, -r).tobytes()
    assert coder.decode(r, [payload.bits]).tobytes() == recon.tobytes()


# --- the one-row coder against the reference chain -----------------------

RANGES = (st.sampled_from([0.0, 5e-324, 1e-321, 1e-300, 1.0])
          | st.floats(1e-6, 1e6))


@st.composite
def row_cases(draw):
    """(spec, r, saturate, u, seed): one row with cube faces, cell-edge ties
    and, when saturating, far values."""
    n = draw(st.integers(1, 300))
    R = draw(st.integers(0, MAX_RATE))
    r = draw(RANGES)
    saturate = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return QuantizerSpec(n, R), r, saturate, _row(make_rng(seed), n, R, r,
                                                  saturate), seed


def _row(gen, n, R, r, saturate):
    """A row in [-r, r]^n with some cube faces and cell-edge ties and, when
    saturating, far values."""
    u = r * (2.0 * gen.random(n) - 1.0)
    width = 2.0 * r / (1 << R)
    ties = np.clip([-r, r, 0.0, -0.0, -r + width, r - width,
                    -r + width * float(gen.integers(0, 1 << R))], -r, r).tolist()
    if saturate:
        ties += [2.0 * r, -2.0 * r, r * (1 + 2**-40), 1e10, -1e10, 1.7e308,
                 -1.7e308]
    k = int(gen.integers(0, n + 1))
    u[gen.integers(0, n, size=k)] = gen.choice(ties, size=k)
    return u


@settings(max_examples=300, deadline=None)
@given(row_cases())
def test_one_row_coder_equals_the_reference_chain(case):
    # scaled(r).quantize -> encode_payload, and decode_payload -> reconstruct
    spec, r, saturate, u, seed = case
    idx, ref_recon = spec.scaled(r, saturate).quantize(u)
    ref_bits, nbits = encode_payload(idx, spec.R)
    coder = BitCoder(spec, saturate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, no divide by zero
        payload, recon = coder.encode(r, u)
        rows = coder.encode_rows(r, u)
    assert (payload.bits, payload.nbits) == (ref_bits, nbits)
    assert recon.tobytes() == ref_recon.tobytes()
    assert rows == [payload]
    # any wire bytes, padding bits included, decode as the chain decodes them
    for bits in (ref_bits, make_rng(seed).bytes(len(ref_bits))):
        ref = reconstruct(spec, r, decode_payload(bits, nbits, spec.n, spec.R))
        assert coder.decode(r, [bits]).tobytes() == ref.tobytes()


def _fields(error):
    return (type(error), error.coord, repr(error.value), repr(error.r),
            error.row, str(error))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), R=st.integers(0, MAX_RATE), r=RANGES,
       saturate=st.booleans(), data=st.data())
def test_one_row_coder_raises_what_the_reference_chain_raises(
        n, R, r, saturate, data):
    spec = QuantizerSpec(n, R)
    coder = BitCoder(spec, saturate)
    u = r * (2.0 * make_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) - 1.0)
    bad = [np.nan, np.inf, -np.inf]
    if not saturate:  # just off each face of the cube, and far off it
        bad += [np.nextafter(r, np.inf), -np.nextafter(r, np.inf), 2.0 * r + 1.0,
                -1e300]
    for pos in sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                        max_size=3))):
        u[pos] = data.draw(st.sampled_from(bad))
    with pytest.raises(RangeViolationError) as ref:
        spec.scaled(r, saturate).quantize(u)
    with pytest.raises(RangeViolationError) as exc:
        coder.encode(r, u)
    assert _fields(exc.value) == _fields(ref.value)
    with pytest.raises(RangeViolationError) as exc:
        coder.encode_rows(r, u)
    assert _fields(exc.value) == _fields(ref.value)

    buf, nbits = encode_payload(np.zeros(n, dtype=np.int64), R)
    wrong = data.draw(st.integers(0, len(buf) + 2).filter(lambda b: b != len(buf)))
    with pytest.raises(EncodingError) as ref:
        decode_payload(bytes(wrong), nbits, n, R)
    with pytest.raises(EncodingError) as exc:
        coder.decode(r, [bytes(wrong)])
    assert str(exc.value) == str(ref.value)


# --- G rows of one rate in one pass, against the reference chain ------------


@st.composite
def stack_cases(draw):
    """(spec, column, saturate, U, seed): G rows, each at its own range, as
    row_cases draws one."""
    G = draw(st.integers(1, 12))
    n = draw(st.integers(1, 300))
    R = draw(st.integers(0, MAX_RATE))
    ranges = draw(st.lists(RANGES, min_size=G, max_size=G))
    saturate = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    gen = make_rng(seed)
    U = np.array([_row(gen, n, R, r, saturate) for r in ranges])
    return QuantizerSpec(n, R), np.array(ranges)[:, None], saturate, U, seed


@settings(max_examples=200, deadline=None)
@given(stack_cases())
def test_stacked_coder_equals_the_reference_chain(case):
    # a (G, n) stack at a (G, 1) column of ranges, row g against the flat
    # scaled(r_g).quantize -> encode_payload, and decode_payload ->
    # reconstruct
    spec, column, saturate, U, seed = case
    ranges = column[:, 0].tolist()
    ref_bufs = [encode_payload(spec.scaled(r, saturate).quantize(u)[0], spec.R)[0]
                for r, u in zip(ranges, U)]
    coder = BitCoder(spec, saturate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, no divide by zero
        payloads = coder.encode_rows(column, U)
    nbits = spec.n * spec.R
    assert [(p.bits, p.nbits) for p in payloads] == [(b, nbits) for b in ref_bufs]
    # any wire bytes, padding bits included, decode as the chain decodes them
    gen = make_rng(seed)
    for wires in (ref_bufs, [gen.bytes(len(b)) for b in ref_bufs]):
        got = coder.decode(column, wires)
        assert got.shape == U.shape
        for g, (r, wire) in enumerate(zip(ranges, wires)):
            idx = decode_payload(wire, nbits, spec.n, spec.R)
            assert got[g].tobytes() == reconstruct(spec, r, idx).tobytes()


@settings(max_examples=150, deadline=None)
@given(G=st.integers(1, 12), n=st.integers(1, 300), R=st.integers(0, MAX_RATE),
       saturate=st.booleans(), data=st.data())
def test_stacked_coder_raises_what_the_reference_chain_raises(
        G, n, R, saturate, data):
    spec = QuantizerSpec(n, R)
    coder = BitCoder(spec, saturate)
    column = np.array(data.draw(st.lists(RANGES, min_size=G, max_size=G)))[:, None]
    gen = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    U = column * (2.0 * gen.random((G, n)) - 1.0)
    for pos in sorted(data.draw(st.sets(st.integers(0, G * n - 1), min_size=1,
                                        max_size=4))):
        g, i = divmod(pos, n)
        r = column[g, 0]
        bad = [np.nan, np.inf, -np.inf]
        if not saturate:  # just off each face of the cube, and far off it
            bad += [np.nextafter(r, np.inf), -np.nextafter(r, np.inf),
                    2.0 * r + 1.0, -1e300]
            if column.max() > r:  # inside another row's cube, not this one's
                bad += [column.max(), -column.max()]
        U[g, i] = data.draw(st.sampled_from(bad))
    # the first row, in row order, whose flat reference raises
    for g, (r, u) in enumerate(zip(column[:, 0].tolist(), U)):
        try:
            spec.scaled(r, saturate).quantize(u)
        except RangeViolationError as ref:
            first = g, ref
            break
    with pytest.raises(RangeViolationError) as exc:
        coder.encode_rows(column, U)
    g, ref = first
    assert _fields(exc.value) == (*_fields(ref)[:4], g, f"row {g}: {ref}")

    buf, nbits = encode_payload(np.zeros(n, dtype=np.int64), R)
    bufs = [buf] * G
    at = data.draw(st.integers(0, G - 1))
    wrong = data.draw(st.integers(0, len(buf) + 2).filter(lambda b: b != len(buf)))
    bufs[at] = bytes(wrong)
    with pytest.raises(EncodingError) as ref:
        decode_payload(bufs[at], nbits, n, R)
    with pytest.raises(EncodingError) as exc:
        coder.decode(column, bufs)
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("saturate", [False, True])
def test_one_row_coder_skips_the_general_route(monkeypatch, saturate):
    def general(*args, **kwargs):
        raise AssertionError("the one-row coder took the general route")

    for owner, name in ((quantizer.ScaledQuantizer, "quantize"),
                        (quantizer, "encode_payload"),
                        (quantizer, "decode_payload"),
                        (quantizer, "reconstruct")):
        monkeypatch.setattr(owner, name, general)
    coder = BitCoder(QuantizerSpec(16, 8), saturate)
    u = np.linspace(-1.0, 1.0, 16)
    if saturate:
        u[3] = 1e300  # clamped on the same pass
    payload, _ = coder.encode(1.0, u)
    assert coder.encode_rows(1.0, u) == [payload]
    coder.decode(1.0, [payload.bits])


@pytest.mark.parametrize("R", [0, 1, 53])
def test_coder_never_takes_the_public_route(monkeypatch, R):
    # rate 0, the largest rate, a zero cell width and a saturating stack
    # take the coder's one checked step, as every other case does
    def general(*args, **kwargs):
        raise AssertionError("the coder took the public route")

    for owner, name in ((QuantizerSpec, "scaled"),
                        (quantizer.ScaledQuantizer, "quantize"),
                        (quantizer.Payload, "from_indices"),
                        (quantizer, "encode_payload"),
                        (quantizer, "decode_payload"),
                        (quantizer, "reconstruct")):
        monkeypatch.setattr(owner, name, general)
    u = np.linspace(-1.0, 1.0, 5)
    for saturate in (False, True):
        coder = BitCoder(QuantizerSpec(5, R), saturate)
        for r in (1.0, 0.0, 1e-322):
            payload, _ = coder.encode(r, u * r)
            coder.decode(r, [payload.bits])
        column = np.array([[1.0], [0.0], [2.0]])
        U = column * u
        if saturate:
            U[0, 0] = 1e300
        wires = [p.bits for p in coder.encode_rows(column, U)]
        assert len(wires) == 3 and all(len(w) == (5 * R + 7) // 8 for w in wires)
        coder.decode(column, wires)


# the coder's pieces; the reference's functions name none of them
CODER_PIECES = {"BitCoder", "_cell_widths", "_checked_cells", "_cells",
                "_centers", "_pack", "_unpack", "_layout", "_wires"}


def test_the_reference_shares_no_code_with_the_coder():
    tree = ast.parse(inspect.getsource(quantizer))
    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {node.name: node for node in top["ScaledQuantizer"].body
               if isinstance(node, ast.FunctionDef)}
    for body in (methods["quantize"], top["reconstruct"],
                 top["encode_payload"], top["decode_payload"]):
        names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(body)
                  if isinstance(node, ast.Attribute)}
        assert not names & CODER_PIECES, body.name


def _quarter_cell_centers(centers):
    def shifted(cells, r, width, out=None):
        recon = centers(cells, r, width, out=out)
        recon += 0.25 * width
        return recon
    return shifted


def _lsb_first(layout):
    def reversed_bits(R):
        table, shifts, weights = layout(R)
        return quantizer._Layout(None if table is None else table[:, ::-1],
                                 shifts[::-1], weights[::-1])
    return reversed_bits


@pytest.mark.parametrize("piece,mutant", [
    ("_centers", _quarter_cell_centers), ("_layout", _lsb_first),
], ids=["quarter-cell-centers", "lsb-first-layout"])
def test_bit_exactness_check_catches_a_consistent_mutant(monkeypatch, piece,
                                                         mutant):
    # both mutants agree with themselves end to end, so only a reference
    # that shares no code with the coder can tell them apart
    monkeypatch.setattr(quantizer, piece, mutant(getattr(quantizer, piece)))
    coder, u = BitCoder(QuantizerSpec(5, 6)), np.linspace(-1.0, 1.0, 5)
    payload, recon = coder.encode(1.0, u)
    assert coder.decode(1.0, [payload.bits]).tobytes() == recon.tobytes()
    ok, _ = selfcheck.check_bit_exactness(200)
    assert not ok


def test_rate_constants_are_shared_read_only_and_small():
    a = BitCoder(QuantizerSpec(4, 5))
    b = BitCoder(QuantizerSpec(300, 5), saturate=True)
    assert a._layout is b._layout
    assert a._layout is not BitCoder(QuantizerSpec(4, 6))._layout
    for R in range(MAX_RATE + 1):
        layout = quantizer._layout(R)
        assert (layout.table is not None) == (R <= 8)
        for table in layout:
            if table is None:
                continue
            assert not table.flags.writeable
            assert table.nbytes <= 2048  # the R = 8 table is 256 x 8 bytes
            if table.size:
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0
    # row i of the table holds the bits of index i, MSB first
    assert quantizer._layout(3).table.tolist()[6] == [1, 1, 0]
    assert quantizer._layout(8).table.shape == (256, 8)


# --- the coder's rows name their first failing row ------------------------


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_quantize_names_the_first_non_finite_row(saturate, bad):
    spec = QuantizerSpec(4, 3)
    u = np.zeros((3, 4))
    u[1, 2] = bad
    u[2, 0] = bad
    with pytest.raises(RangeViolationError) as exc:
        BitCoder(spec, saturate).encode_rows(np.array([[1.0], [2.0], [3.0]]), u)
    assert exc.value.row == 1
    assert (exc.value.coord, exc.value.r) == (2, 2.0)
    assert exc.value.value == bad or np.isnan(exc.value.value)
    with pytest.raises(RangeViolationError) as flat:
        spec.scaled(2.0, saturate).quantize(u[1])
    assert flat.value.row is None and flat.value.coord == 2


def test_row_quantize_rejects_a_range_column_of_the_wrong_shape():
    spec = QuantizerSpec(4, 3)
    coder = BitCoder(spec)
    for ranges in (np.ones(2), np.ones((2, 2))):
        with pytest.raises(ValueError, match=r"\(2, 1\) column"):
            coder.encode_rows(ranges, np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"\(G, 4\) at a \(G, 1\) column"):
        coder.encode_rows(np.ones((4, 1)), np.zeros(4))
    with pytest.raises(ValueError, match=r"\(4,\) at a float range"):
        coder.encode_rows(1.0, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="nonnegative"):
        coder.encode_rows(np.array([[1.0], [-1.0]]), np.zeros((2, 4)))
    # the server checks its ranges too: four flat ranges for four rows of
    # four coordinates would broadcast along the coordinates instead
    with pytest.raises(ValueError, match=r"\(4, 1\) column"):
        coder.decode(np.ones(4), [bytes(2)] * 4)
