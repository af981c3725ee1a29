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

Cell indices travel as int64 and are computed as float64 cell numbers,
which are exact for R <= MAX_RATE = 53; the uplink payload carries only the
packed bits, n*R of them, coordinate-major and MSB first.

Rows. quantize, reconstruct, encode_payload and decode_payload also take a
(G, n) stack of rows of one rate, with one range per row as a (G, 1)
column. Each element goes through exactly the arithmetic of the flat form
at its row's range (the column broadcasts the IEEE operation the scalar
does), so row g of a stack is bit for bit the flat result of row g alone;
a float range serves every row. The flat forms are the case without the
row axis.

One codec path. ScaledQuantizer.indices and the engines' BitCoder take one
checked step (_checked_cells): the shapes, then the range (nonnegative,
with a finite cell width 2r/2**R), then the domain, then the cell map
(_cells), to float cells that indices casts to int64 and the coder packs
and centers. There is one copy of each check and piece: the cell map, the
cell centers (_centers) and the bit layout (_pack, _unpack). The public
functions are the reference the coder is tested against.

Hot path: at n = 16 a numpy call costs more than its arithmetic, so the
pieces work in place, bit-equal to the plain forms: in-place floor and clip
equal np.clip(np.floor((u + r) / w), 0, 2**R - 1) on non-NaN u >= -r, and
-r + y equals y + (-r). A saturating row is clamped only when some |u|
exceeds r, since the clamp leaves [-r, r] as it is. The bit layout packs
uint8 bits, which packbits takes several times faster than int64: up to
R = 8 it looks each index up in a table of every index's bits, above that
it shifts them out of int64. Unpacking contracts the bits with the rate's
weights in one 2-D dot of (rows * n, R) bits, several times faster than a
dot over (G, n, R). Those tables, shifts and weights are built once per
rate and are read-only (_layout). The domain check and the clip hold every
cell in [0, 2**R - 1], so the coder packs without encode_payload's range
check (int64 idx >> R is 0 iff 0 <= idx < 2**R), which public callers
still get, and decodes with float weights straight to float cells.
"""

import collections
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

# largest rate whose cell numbers stay exact in float64: every index below
# 2**53, the clip bound 2**53 - 1 and every sum of its bit weights is a
# float64 integer
MAX_RATE = 53
# largest range whose 2r, and so whose cell width, is finite
_LARGEST_RANGE = sys.float_info.max / 2
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
                f"rate {self.R} exceeds {MAX_RATE}: cell numbers would no "
                "longer be exact as float64"
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
        RangeViolationError in both modes; a range whose cell width is not
        finite raises ValueError.

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
        cells, _ = _checked_cells(self.base, self.r, u, self.saturate)
        return cells.astype(np.int64)


def reconstruct(spec, r, indices):
    """Cell centers for integer indices, through _centers: the one map from
    cell numbers to values, on both channel ends (the worker's quantize
    reconstructs through it, and the coder applies it to its cells).

    Flat indices take a float r; a (G, n) stack takes a float or a (G, 1)
    column of ranges.
    """
    nlev = spec.levels
    if nlev == 1:
        return np.zeros(np.shape(indices))
    return _centers(indices, r, 2.0 * r / nlev)


def _cell_widths(spec, r, rows):
    """The cell width 2r/2**R of a float range, or the widths of a
    (rows, 1) column of ranges: the one range check of both channel ends.
    ValueError for a column of another shape, a negative range, or one
    whose width is not finite (inf, NaN, or 2r past the largest float64);
    a column's error names its first such row."""
    if getattr(r, "ndim", 0) == 0:
        if 0.0 <= r <= _LARGEST_RANGE:  # NaN fails
            return 2.0 * r / spec.levels
        where, bad = "", r
    else:
        if r.shape != (rows, 1):
            raise ValueError(f"expected a ({rows}, 1) column of ranges, got "
                             f"shape {r.shape}")
        fine = (0.0 <= r) & (r <= _LARGEST_RANGE)
        if np.count_nonzero(fine) == r.size:
            return 2.0 * r / spec.levels
        row = int(np.argmin(fine))
        where, bad = f"row {row}: ", float(r[row, 0])
    if bad < 0:
        raise ValueError(f"{where}scale must be nonnegative")
    raise ValueError(f"{where}range {bad!r} has no finite cell width at "
                     f"rate {spec.R}")


def _checked_cells(spec, r, u, saturate):
    """(float cells, cell widths) of one row u (n,) or a (G, n) stack at a
    float range r, or of a stack at a (G, 1) column of ranges: the one
    checked step of every quantization.

    It checks the shapes, then the range (_cell_widths), then the domain
    (|u| <= r, or finiteness when saturating; NaN fails both), whose first
    failing element in row order raises RangeViolationError. Rows of cell
    width 0 (r = 0, or 2r/2**R below the smallest float) go to cell 0.
    """
    u = np.asarray(u, dtype=np.float64)
    n = spec.n
    column = getattr(r, "ndim", 0) > 0
    stack = u.ndim == 2 and u.shape[1] == n
    if not stack and (column or u.shape != (n,)):
        raise ValueError(f"expected shape (G, {n}), or ({n},) at a float "
                         f"range, got {u.shape}")
    width = _cell_widths(spec, r, len(u))
    mag = np.abs(u)
    if saturate:
        top = mag.max(initial=0.0)  # NaN if any element is
        failed = not top < math.inf
        # the clamp leaves every element of [-r, r] as it is
        clamp = column or not top <= r
    else:
        inside = mag <= r  # NaN fails
        failed = np.count_nonzero(inside) < u.size
        clamp = False
    if failed:
        if saturate:
            inside = np.isfinite(u)
        row, coord = divmod(int(np.argmin(inside)), n)
        raise RangeViolationError(coord, float(u.reshape(-1, n)[row, coord]),
                                  float(r[row, 0] if column else r),
                                  row if u.ndim == 2 else None)
    nlev = spec.levels
    if column and not width.all():  # rows of width 0 divide by 1, go to cell 0
        dead = width == 0.0
        cells = _cells(u, r, np.where(dead, 1.0, width), nlev, clamp)
        cells[dead[:, 0]] = 0.0
        return cells, width
    if not column and width == 0.0:
        return np.zeros(u.shape), width
    return _cells(u, r, width, nlev, clamp), width


def _cells(u, r, width, nlev, clamp):
    """The cell map: floor((u + r) / width) clipped to nlev - 1, in float64,
    for u >= -r; u is a row at a float r and width, or a stack at floats or
    at (G, 1) columns of them.

    clamp first limits u to [-r, nlev*width] (2r unless width is subnormal),
    so that |u| >> r cannot overflow the divide and input past either end
    keeps its boundary cell.
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


class Payload:
    """One uplink message: n cell indices packed into exactly n*R bits.

    A payload is what travels and nothing more: its bits and their count.
    The receiver recovers the indices with decode_payload from the public
    (n, R). Every DQ round builds one, so it is a plain slotted class,
    cheap to build; it compares and hashes by value, and its repr leaves
    the bits out.
    """

    __slots__ = ("bits", "nbits")

    def __init__(self, bits, nbits):
        self.bits = bits
        self.nbits = nbits

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits and self.nbits == other.nbits

    def __hash__(self):
        return hash((self.bits, self.nbits))

    def __repr__(self):
        return f"Payload(nbits={self.nbits!r})"

    @classmethod
    def from_indices(cls, indices, R):
        buf, nbits = encode_payload(indices, R)
        return cls(buf, nbits)
