"""Bounded-domain vector quantizers and bit-exact index coding.

The only constructed family is the scalar uniform quantizer: per axis,
2**R equal cells centered on [-r, r], reconstruction at cell centers.
Its covering efficiency is sqrt(n): image size (2**R)**n, worst-case
reconstruction error r*sqrt(n)*2**-R over the cube domain, dynamic range
r. Near-optimal vector quantizers (covering efficiency -> 1) exist but
are non-constructive and out of scope here.

Cell geometry is fixed once and rescaled per iteration: the quantizer
used at scale r maps u to r * q(u/r), so every iteration shares one
lattice shape at a different resolution. Boundary ties round toward +inf
for deterministic reproducibility. Input that is not finite never passes
the domain check, in either the strict or the saturating mode.

Cell indices travel as int64, which is exact for R <= MAX_RATE = 62; the
uplink payload carries only the packed bits, n*R of them, coordinate-major
and MSB first.

Rows. quantize, reconstruct, encode_payload and decode_payload also take a
(G, n) stack of rows of one rate, with one range per row as a (G, 1)
column. Each element goes through exactly the arithmetic of the flat form
at its row's range (the column broadcasts the IEEE operation the scalar
does), so row g of a stack is bit for bit the flat result of row g alone;
a float range serves every row. The flat forms are the case without the
row axis. The engines code through engines.BitCoder, which takes one row
at a float range or a stack at a column in one pass of its own, through
the same private pieces these functions use: the cell map (_cells), the
cell centers (_centers) and the bit layout (_pack, _unpack). There is one
copy of each; the public functions remain the reference the coder is
tested against and the route it falls back to.

Hot path: at n = 16 a numpy call costs more than its arithmetic, so the
pieces work in place, bit-equal to the plain forms: in-place floor and clip
equal np.clip(np.floor((u + r) / w), 0, 2**R - 1) on non-NaN u >= -r, and
-r + y equals y + (-r). The bit layout packs uint8 bits, which packbits
takes several times faster than int64: up to R = 8 it looks each index up
in a table of every index's bits, above that it shifts them out of int64.
Unpacking contracts the bits with the rate's weights in one 2-D dot of
(rows * n, R) bits, several times faster than a dot over (G, n, R).
Those tables, shifts and weights are built once per rate and are
read-only (_layout). The coder keeps its cells in float64, exact for
R <= FLOAT_RATE = 53, so the bits and the centers come from the same
numbers as int64 indices would give, and it contracts with float weights.
Its domain check (|u| <= r for every element, or finiteness when
saturating) and the clip at 2**R - 1 already hold every index in
[0, 2**R - 1], so it packs without encode_payload's range check (int64
idx >> R is 0 iff 0 <= idx < 2**R), which public callers still get. Rate
0, rates above 53, a cell width that is 0 or not finite, rows that fail
the domain check and saturating stacks go through quantize instead, with
its errors.
"""

import collections
import functools
from dataclasses import dataclass, field

import numpy as np

# largest rate whose cell indices stay exact: quantize clips in float64, and
# at R = 63 the bound 2**63 - 1 rounds to 2**63, which int64 cannot hold
MAX_RATE = 62

# largest rate whose cell numbers stay exact in float64: every index below
# 2**53 and every sum of its bit weights is a float64 integer
FLOAT_RATE = 53
# largest rate whose bits come from a table of every index, (2**R, R) uint8:
# 2 KB at R = 8; above it the bits are shifted out of int64 and cast to uint8
_TABLE_RATE = 8


# one rate's constants of the bit layout: up to R = 8 the MSB-first bits of
# every index as a (2**R, R) uint8 table (else None), the int64 bit positions
# R - 1, ..., 0, and their weights 2**k as int64 and as float64
_Layout = collections.namedtuple("_Layout",
                                 "table shifts weights float_weights")


@functools.cache
def _layout(R):
    """The _Layout of rate R, built on first use and read-only, since every
    caller of the rate shares it."""
    shifts = np.arange(R - 1, -1, -1, dtype=np.int64)
    table = None
    if R <= _TABLE_RATE:
        every = np.arange(1 << R, dtype=np.uint8)[:, None]
        table = np.unpackbits(every, axis=1)[:, 8 - R:].copy()
    weights = np.left_shift(np.int64(1), shifts)
    layout = _Layout(table, shifts, weights, weights.astype(np.float64))
    for a in layout:
        if a is not None:
            a.flags.writeable = False
    return layout


class RangeViolationError(Exception):
    """Quantizer input left the cube domain [-r, r]^n, or is not finite.

    Carries the first offending coordinate, and for a stack of rows the
    first offending row (None for a flat input); in a DQ run this signals a
    bug in the dynamic-range schedule, not in the data.
    """

    def __init__(self, coord, value, r, row=None):
        where = "" if row is None else f"row {row}: "
        super().__init__(
            f"{where}input coordinate {coord} = {value!r} outside [-{r!r}, {r!r}]"
        )
        self.coord = coord
        self.value = value
        self.r = r
        self.row = row


class EncodingError(Exception):
    pass


@dataclass(frozen=True)
class QuantizerSpec:
    """Scalar uniform quantizer of dimension n and rate R bits/dimension.

    R = 0 is the degenerate one-point quantizer (reconstruction 0, zero
    payload bits); it is what a silent worker in a multi-worker rate
    allocation uses.
    """

    n: int
    R: int
    kind: str = "scalar-uniform"

    def __post_init__(self):
        if self.kind != "scalar-uniform":
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.R < 0 or self.R != int(self.R):
            raise ValueError("rate must be a nonnegative integer")
        if self.R > MAX_RATE:
            raise ValueError(
                f"rate {self.R} exceeds {MAX_RATE}: cell indices would no "
                "longer be exact as int64 and float64"
            )

    @functools.cached_property  # read on every quantize and reconstruct
    def levels(self):
        return 1 << self.R

    @property
    def image_size(self):
        return 1 << (self.n * self.R)

    def scaled(self, r, saturate=False):
        return ScaledQuantizer(self, r, saturate)


def covering_radius(spec, r):
    """Worst-case reconstruction error over the cube domain at scale r."""
    if r < 0:
        raise ValueError("scale must be nonnegative")
    return r * np.sqrt(spec.n) * 2.0 ** (-spec.R)


def covering_efficiency(spec):
    """image_size**(1/n) * covering_radius / dynamic_range = sqrt(n)."""
    return float(np.sqrt(spec.n))


@dataclass(frozen=True)
class ScaledQuantizer:
    """`base` rescaled to the cube [-r, r]^n.

    With saturate=True, out-of-domain coordinates clamp to the boundary
    cell instead of raising. That mode exists for schedule variants whose
    input-containment guarantee is only empirical (heavy ball with the
    subexponential exponent set to 0); everything else should keep the
    strict domain check.
    """

    base: QuantizerSpec
    r: float
    saturate: bool = False

    def quantize(self, u):
        """Map u to (cell indices, reconstruction).

        Cell i on an axis spans [-r + i*w, -r + (i+1)*w), w = 2r/2**R, with
        reconstruction at the center; boundary values belong to the upper
        cell (round half toward +inf). NaN and +-inf coordinates raise
        RangeViolationError in both modes.

        u is one row of shape (n,) at the float range r, or a (G, n) stack
        at a float r or a (G, 1) column of ranges, one per row; a stack's
        error names the first offending row in row order. The
        reconstruction is reconstruct(base, r, indices), the server's
        answer to the same indices; so a row whose cell width underflows
        to 0 maps to index 0 and reconstructs at -r, the center of that
        cell.
        """
        idx = self.indices(u)
        return idx, reconstruct(self.base, self.r, idx)

    def indices(self, u):
        """The cell indices of quantize(u), without the reconstruction."""
        u = np.asarray(u, dtype=np.float64)
        n, r = self.base.n, self.r
        column = False
        if u.ndim == 1:
            if u.shape != (n,):
                raise ValueError(f"expected shape ({n},), got {u.shape}")
        elif u.ndim != 2 or u.shape[1] != n:
            raise ValueError(f"expected shape (G, {n}), got {u.shape}")
        elif isinstance(r, np.ndarray):
            if r.shape != (u.shape[0], 1):
                raise ValueError(f"expected a ({u.shape[0]}, 1) column of "
                                 f"ranges, got shape {r.shape}")
            column = True
        negative = np.count_nonzero(r < 0) if column else r < 0
        if negative:
            raise ValueError("scale must be nonnegative")
        # written so that NaN fails the test
        inside = np.isfinite(u) if self.saturate else np.abs(u) <= r
        if np.count_nonzero(inside) < u.size:
            row, coord = divmod(int(np.argmin(inside)), n)
            if u.ndim == 1:
                raise RangeViolationError(coord, float(u[coord]), float(r))
            raise RangeViolationError(coord, float(u[row, coord]),
                                      float(r[row, 0] if column else r), row)
        nlev = self.base.levels
        if nlev == 1:
            return np.zeros(u.shape, dtype=np.int64)
        width = 2.0 * r / nlev
        dead = None
        if not column:
            if width == 0.0:  # r = 0, or below the resolvable cell
                return np.zeros(u.shape, dtype=np.int64)
        elif np.count_nonzero(width == 0.0):
            # such rows divide by 1 instead of 0 and are zeroed below
            dead = (width == 0.0)[:, 0]
            width = np.where(width == 0.0, 1.0, width)
        idx = _cells(u, r, width, nlev, self.saturate).astype(np.int64)
        if self.base.R > FLOAT_RATE:  # the float clip bound rounded up
            np.minimum(idx, nlev - 1, out=idx)
        if dead is not None:
            idx[dead] = 0
        return idx


def reconstruct(spec, r, indices):
    """Cell centers for integer indices, through _centers: the one map from
    cell numbers to values, on both channel ends (the worker's quantize
    reconstructs through it, and the one-row coder applies it to its cells).

    Flat indices take a float r; a (G, n) stack takes a float or a (G, 1)
    column of ranges.
    """
    nlev = spec.levels
    if nlev == 1:
        return np.zeros(np.shape(indices))
    return _centers(indices, r, 2.0 * r / nlev)


def _cells(u, r, width, nlev, clamp):
    """The cell map: floor((u + r) / width) clipped to nlev - 1, in float64,
    for u >= -r; u is a row at a float r and width, or a stack at floats or
    at (G, 1) columns of them.

    clamp first limits u to [-r, nlev*width] (2r unless width is subnormal),
    so that |u| >> r cannot overflow the divide and input past either end
    keeps its boundary cell. Above R = 53 the bound nlev - 1 rounds up to
    nlev, so a caller that casts to int64 must clip again.
    """
    if clamp:
        cells = np.maximum(u, -r)
        np.minimum(cells, nlev * width, out=cells)
        cells += r
    else:
        cells = u + r
    cells /= width
    np.floor(cells, out=cells)
    # u >= -r, so u + r >= 0 and only the top needs the clip
    return np.minimum(cells, nlev - 1, out=cells)


def _centers(cells, r, width, out=None):
    """The cell centers -r + (cells + 0.5)*width of integer or float cell
    numbers, in float64; in place with out=cells."""
    recon = np.add(cells, 0.5, out=out, dtype=np.float64)
    recon *= width
    return np.add(recon, -r, out=recon)


def _pack(cells, R):
    """The bit layout: each row of whole-number cells in [0, 2**R), int or
    float, as its packed bits, uint8, coordinate-major and MSB first, the
    last byte zero-padded; (nbytes,) for one row, (G, nbytes) for a stack.

    Nothing here checks the range: a value outside it packs garbage.
    """
    layout = _layout(R)
    if layout.table is not None:
        bits = layout.table.take(cells.astype(np.uint8), axis=0)
    else:
        # packbits takes uint8 several times faster than int64; the cast
        # keeps each shifted value's low bit
        bits = cells.astype(np.int64, copy=False)[..., None] >> layout.shifts
        bits = bits.astype(np.uint8)
        bits &= 1
    if cells.ndim == 1:  # packbits is much faster without an axis
        return np.packbits(bits)
    G, n = cells.shape
    return np.packbits(bits.reshape(G, n * R), axis=1)


def _unpack(data, n, R, weights):
    """The cell numbers of packed rows, their bits contracted with the
    rate's int64 or float64 weights: (n,) of one row's (nbytes,) data,
    (G, n) of a stack's (G, nbytes)."""
    if data.ndim == 1:  # unpackbits is faster without an axis
        return np.dot(np.unpackbits(data, count=n * R).reshape(n, R), weights)
    # several times faster as one (G*n, R) dot than as a (G, n, R) one
    G = len(data)
    bits = np.unpackbits(data, axis=1, count=n * R).reshape(G * n, R)
    return np.dot(bits, weights).reshape(G, n)


def _wires(bufs, shape):
    """The joined bytes of payloads as uint8 of shape (nbytes,) for one and
    (G, nbytes) for G, once the count of payloads and of each one's bytes
    is checked."""
    nbytes = shape[-1]
    for buf in bufs:
        if len(buf) != nbytes:
            raise EncodingError(f"expected {nbytes} bytes, got {len(buf)}")
    count = shape[0] if len(shape) == 2 else 1
    if len(bufs) != count:
        raise EncodingError(f"expected {count} payloads, got {len(bufs)}")
    return np.ndarray(shape, np.uint8, b"".join(bufs))


def encode_payload(indices, R):
    """Pack indices into a coordinate-major, MSB-first bit string.

    Returns (buf, nbits) with nbits = len(indices)*R exactly; the final
    byte is zero-padded on the right. A (G, n) stack of rows returns a list
    of G such strings, each packed as its row alone would be, and the
    per-row nbits = n*R.
    """
    if not 0 <= R <= MAX_RATE:
        raise EncodingError(f"rate {R} outside [0, {MAX_RATE}]")
    idx = np.asarray(indices)
    if idx.ndim not in (1, 2) or (idx.size and idx.dtype.kind not in "iu"):
        raise EncodingError("indices must be a flat sequence of integers, "
                            "or a stack of such rows")
    idx64 = idx.astype(np.int64, copy=False)  # uint64 >= 2**63 turns negative
    if np.count_nonzero(idx64 >> R):
        bad = idx.flat[np.argmax((idx < 0) | (idx >= (1 << R)))]
        raise EncodingError(f"index {bad} does not fit in {R} bits")
    if idx.ndim == 1:
        return _pack(idx64, R).tobytes(), idx.size * R
    G, n = idx.shape
    rows = _pack(idx64, R)
    buf, nbytes = rows.tobytes(), rows.shape[1]
    return [buf[i * nbytes:(i + 1) * nbytes] for i in range(G)], n * R


def decode_payload(buf, nbits, n, R):
    """Cell indices from one payload's bytes, shape (n,); from a list of G
    payloads of the same (n, R), a (G, n) stack."""
    if not 0 <= R <= MAX_RATE:
        raise EncodingError(f"rate {R} outside [0, {MAX_RATE}]")
    if nbits != n * R:
        raise EncodingError(f"expected {n * R} bits, got {nbits}")
    nbytes = (nbits + 7) // 8
    if isinstance(buf, list):
        data = _wires(buf, (len(buf), nbytes))
    else:
        data = _wires([buf], (nbytes,))
    return _unpack(data, n, R, _layout(R).weights)


@dataclass(frozen=True)
class Payload:
    """One uplink message: n cell indices packed into exactly n*R bits.

    A payload is what travels and nothing more: its bits and their count.
    The receiver recovers the indices with decode_payload from the public
    (n, R).
    """

    bits: bytes = field(repr=False)
    nbits: int

    @classmethod
    def from_indices(cls, indices, R):
        buf, nbits = encode_payload(indices, R)
        return cls(buf, nbits)
