import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dqgrad import quantizer
from dqgrad.engines import BitCoder
from dqgrad.quantizer import (
    MAX_RATE,
    EncodingError,
    Payload,
    QuantizerSpec,
    RangeViolationError,
    covering_efficiency,
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
    assert covering_efficiency(QuantizerSpec(1, 5)) == pytest.approx(1.0)
    assert covering_efficiency(QuantizerSpec(9, 2)) == pytest.approx(3.0)
    rho = covering_efficiency(QuantizerSpec(2, 1))
    assert rho == pytest.approx(np.sqrt(2))
    assert rho >= 1.0


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
    for R in (63, 64):  # past int64-exact cell indices
        with pytest.raises(ValueError, match="exceeds 62"):
            QuantizerSpec(4, R)


@pytest.mark.parametrize("R", [53, 54, 62])
def test_top_cell_index_exact_at_high_rate(R):
    # the float clip bound 2**R - 1 rounds up to 2**R above R = 53
    coder = BitCoder(QuantizerSpec(3, R))
    payload, _ = coder.encode(1.0, np.array([1.0, -1.0, 0.0]))
    idx = decode_payload(payload.bits, payload.nbits, 3, R)
    assert idx.tolist() == [(1 << R) - 1, 0, 1 << (R - 1)]


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


# --- codec properties against the original per-coordinate loop codec --------


def loop_encode(indices, R):
    """Reference codec: one arbitrary-precision integer, MSB first."""
    nbits = len(indices) * R
    acc = 0
    for ix in indices:
        ix = int(ix)
        if not 0 <= ix < (1 << R) or (R == 0 and ix != 0):
            raise EncodingError(f"index {ix} does not fit in {R} bits")
        acc = (acc << R) | ix
    pad = (-nbits) % 8
    buf = (acc << pad).to_bytes((nbits + pad) // 8, "big")
    return buf, nbits


def loop_decode(buf, nbits, n, R):
    if nbits != n * R:
        raise EncodingError(f"expected {n * R} bits, got {nbits}")
    nbytes = (nbits + 7) // 8
    if len(buf) != nbytes:
        raise EncodingError(f"expected {nbytes} bytes, got {len(buf)}")
    acc = int.from_bytes(buf, "big") >> ((-nbits) % 8)
    out = np.zeros(n, dtype=np.int64)
    mask = (1 << R) - 1
    for i in range(n - 1, -1, -1):
        out[i] = acc & mask
        acc >>= R
    return out


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
    n, R, idx, seed = case
    buf, nbits = encode_payload(idx, R)
    assert (buf, nbits) == loop_encode(idx, R)
    out = decode_payload(buf, nbits, n, R)
    assert out.dtype == np.int64
    assert np.array_equal(out, idx)
    # any wire bytes, padding bits included, decode as the loop decodes them
    wire = make_rng(seed).bytes(len(buf))
    assert np.array_equal(decode_payload(wire, nbits, n, R),
                          loop_decode(wire, nbits, n, R))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), R=st.integers(0, MAX_RATE), data=st.data())
def test_codec_rejects_what_the_loop_rejects(n, R, data):
    pos = data.draw(st.integers(0, n - 1))
    idx = np.zeros(n, dtype=np.int64)
    for bad in (data.draw(st.integers(-(2**63), -1)),
                data.draw(st.integers(1 << R, 2**63 - 1))):
        idx[pos] = bad
        for codec in (encode_payload, loop_encode):
            with pytest.raises(EncodingError):
                codec(idx, R)

    buf, nbits = encode_payload(np.zeros(n, dtype=np.int64), R)
    wrong_nbits = data.draw(st.integers(0, 2 * n * R + 8).filter(lambda b: b != nbits))
    wrong_len = data.draw(st.integers(0, len(buf) + 2).filter(lambda b: b != len(buf)))
    for codec in (decode_payload, loop_decode):
        with pytest.raises(EncodingError):
            codec(buf, wrong_nbits, n, R)
        with pytest.raises(EncodingError):
            codec(bytes(wrong_len), nbits, n, R)



# --- quantizer properties against the original expressions -------------------


def seed_reconstruct(spec, r, indices):
    """Reference: reconstruct as first written, one temporary per operation."""
    if spec.levels == 1:
        return np.zeros(spec.n)
    width = 2.0 * r / spec.levels
    return -r + (np.asarray(indices, dtype=np.float64) + 0.5) * width


def seed_quantize(spec, r, saturate, u):
    """Reference: ScaledQuantizer.quantize as first written (np.clip, no
    clamp), except that a zero cell width reconstructs as reconstruct does."""
    u = np.asarray(u, dtype=np.float64)
    inside = np.isfinite(u) if saturate else np.abs(u) <= r
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise RangeViolationError(bad, float(u[bad]), float(r))
    nlev = spec.levels
    if nlev == 1:
        return np.zeros(spec.n, dtype=np.int64), np.zeros(spec.n)
    width = 2.0 * r / nlev
    if width == 0.0:  # r = 0, or an underflowed cell: index 0, its center -r
        idx = np.zeros(spec.n, dtype=np.int64)
        return idx, seed_reconstruct(spec, r, idx)
    with np.errstate(over="ignore"):  # the divide overflows for |u| >> r
        cells = np.floor((u + r) / width)
    idx = np.minimum(np.clip(cells, 0, nlev - 1).astype(np.int64), nlev - 1)
    return idx, seed_reconstruct(spec, r, idx)


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
    spec, r, saturate, u = case
    idx, recon = spec.scaled(r, saturate).quantize(u)
    ref_idx, ref_recon = seed_quantize(spec, r, saturate, u)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, ref_idx)
    assert recon.tobytes() == ref_recon.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 512), R=st.integers(0, MAX_RATE),
       r=st.sampled_from([0.0, 5e-324, 1e-300]) | st.floats(1e-6, 1e6),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruct_matches_seed_expression(n, R, r, seed):
    spec = QuantizerSpec(n, R)
    idx = make_rng(seed).integers(0, 1 << R, size=n)
    idx[: n // 4] = (1 << R) - 1  # the top index, 2**62 - 1 at R = 62
    for indices in (idx, idx.tolist()):
        assert (reconstruct(spec, r, indices).tobytes()
                == seed_reconstruct(spec, r, indices).tobytes())


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
    # scaled(column).indices -> encode_payload, and decode_payload ->
    # reconstruct, on a (G, n) stack at a (G, 1) column of ranges
    spec, column, saturate, U, seed = case
    idx = spec.scaled(column, saturate).indices(U)
    ref_bufs, nbits = encode_payload(idx, spec.R)
    coder = BitCoder(spec, saturate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, no divide by zero
        payloads = coder.encode_rows(column, U)
    assert [(p.bits, p.nbits) for p in payloads] == [(b, nbits) for b in ref_bufs]
    # any wire bytes, padding bits included, decode as the chain decodes them
    gen = make_rng(seed)
    for wires in (ref_bufs, [gen.bytes(len(b)) for b in ref_bufs]):
        ref = reconstruct(spec, column,
                          decode_payload(wires, nbits, spec.n, spec.R))
        got = coder.decode(column, wires)
        assert got.shape == ref.shape == U.shape
        assert got.tobytes() == ref.tobytes()


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
    with pytest.raises(RangeViolationError) as ref:
        spec.scaled(column, saturate).indices(U)
    with pytest.raises(RangeViolationError) as exc:
        coder.encode_rows(column, U)
    assert _fields(exc.value) == _fields(ref.value)
    assert exc.value.row is not None

    bufs, nbits = encode_payload(np.zeros((G, n), dtype=np.int64), R)
    at = data.draw(st.integers(0, G - 1))
    wrong = data.draw(st.integers(0, len(bufs[0]) + 2).filter(
        lambda b: b != len(bufs[0])))
    bufs[at] = bytes(wrong)
    with pytest.raises(EncodingError) as ref:
        decode_payload(bufs, nbits, n, R)
    with pytest.raises(EncodingError) as exc:
        coder.decode(column, bufs)
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("saturate", [False, True])
def test_one_row_coder_skips_the_general_route(monkeypatch, saturate):
    def general(*args, **kwargs):
        raise AssertionError("the one-row coder took the general route")

    for owner, name in ((quantizer.ScaledQuantizer, "indices"),
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


# --- row forms: a (G, n) stack equals its rows' flat forms, bit for bit ------


@st.composite
def stack_cases(draw):
    """(spec, ranges, saturate, u): G rows of one rate, one range each, with
    cube faces, cell-boundary ties and, when saturating, far values."""
    G = draw(st.integers(2, 6))
    n = draw(st.integers(1, 64))
    R = draw(st.integers(0, MAX_RATE))
    ranges = draw(st.lists(RANGES, min_size=G, max_size=G))
    saturate = draw(st.booleans())
    gen = make_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.empty((G, n))
    for g, r in enumerate(ranges):
        u[g] = r * (2.0 * gen.random(n) - 1.0)
        width = 2.0 * r / (1 << R)
        ties = np.clip([-r, r, 0.0, -r + width * float(gen.integers(0, 1 << R)),
                        r - width], -r, r).tolist()
        if saturate:
            ties += [2.0 * r, -1e10, 1.7e308]
        k = int(gen.integers(0, n + 1))
        u[g, gen.integers(0, n, size=k)] = gen.choice(ties, size=k)
    return QuantizerSpec(n, R), ranges, saturate, u


@settings(max_examples=300, deadline=None)
@given(stack_cases())
def test_row_quantize_equals_the_flat_quantize_of_each_row(case):
    spec, ranges, saturate, u = case
    column = np.array(ranges)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a dead row must not divide by zero
        idx, recon = spec.scaled(column, saturate).quantize(u)
        shared_idx, shared_recon = spec.scaled(ranges[0], saturate).quantize(
            np.clip(u, -ranges[0], ranges[0]))
    assert idx.shape == recon.shape == u.shape and idx.dtype == np.int64
    for g, r in enumerate(ranges):
        flat_idx, flat_recon = spec.scaled(r, saturate).quantize(u[g])
        assert np.array_equal(idx[g], flat_idx)
        assert recon[g].tobytes() == flat_recon.tobytes()
        assert (reconstruct(spec, column, idx)[g].tobytes()
                == reconstruct(spec, r, idx[g]).tobytes())
        # a float range serves every row
        flat_idx, flat_recon = spec.scaled(ranges[0], saturate).quantize(
            np.clip(u[g], -ranges[0], ranges[0]))
        assert np.array_equal(shared_idx[g], flat_idx)
        assert shared_recon[g].tobytes() == flat_recon.tobytes()


@settings(max_examples=200, deadline=None)
@given(G=st.integers(1, 6), n=st.integers(1, 80), R=st.integers(0, MAX_RATE),
       seed=st.integers(0, 2**32 - 1))
def test_row_codec_equals_the_flat_codec_of_each_row(G, n, R, seed):
    gen = make_rng(seed)
    idx = gen.integers(0, 1 << R, size=(G, n))
    idx[:, : n // 3] = (1 << R) - 1
    bufs, nbits = encode_payload(idx, R)
    assert nbits == n * R and len(bufs) == G
    wires = [gen.bytes(len(buf)) for buf in bufs]  # padding bits included
    assert np.array_equal(decode_payload(bufs, nbits, n, R), idx)
    out = decode_payload(wires, nbits, n, R)
    assert out.shape == (G, n) and out.dtype == np.int64
    for g in range(G):
        assert (bufs[g], nbits) == encode_payload(idx[g], R)
        assert np.array_equal(out[g], decode_payload(wires[g], nbits, n, R))


def test_row_codec_rejects_what_the_flat_codec_rejects():
    idx = np.zeros((3, 5), dtype=np.int64)
    idx[2, 4] = 8
    with pytest.raises(EncodingError, match="index 8 does not fit in 3 bits"):
        encode_payload(idx, 3)
    bufs, nbits = encode_payload(np.zeros((3, 5), dtype=np.int64), 3)
    with pytest.raises(EncodingError, match="expected 2 bytes, got 3"):
        decode_payload([bufs[0], bufs[1] + b"\0", bufs[2]], nbits, 5, 3)
    with pytest.raises(EncodingError, match="expected 15 bits"):
        decode_payload(bufs, 14, 5, 3)


@pytest.mark.parametrize("saturate", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_quantize_names_the_first_non_finite_row(saturate, bad):
    spec = QuantizerSpec(4, 3)
    u = np.zeros((3, 4))
    u[1, 2] = bad
    u[2, 0] = bad
    with pytest.raises(RangeViolationError) as exc:
        spec.scaled(np.array([[1.0], [2.0], [3.0]]), saturate).quantize(u)
    assert exc.value.row == 1
    assert (exc.value.coord, exc.value.r) == (2, 2.0)
    assert exc.value.value == bad or np.isnan(exc.value.value)
    with pytest.raises(RangeViolationError) as flat:
        spec.scaled(2.0, saturate).quantize(u[1])
    assert flat.value.row is None and flat.value.coord == 2


def test_row_quantize_rejects_a_range_column_of_the_wrong_shape():
    spec = QuantizerSpec(4, 3)
    with pytest.raises(ValueError, match=r"\(2, 1\) column"):
        spec.scaled(np.ones(2), False).quantize(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="nonnegative"):
        spec.scaled(np.array([[1.0], [-1.0]]), False).quantize(np.zeros((2, 4)))
