"""Bounded-domain vector quantizers and bit-exact coding of their cells.

The only constructed family is the scalar uniform quantizer: per axis,
2**R equal cells centered on [-r, r], reconstruction at cell centers.
Its covering efficiency rho_n is sqrt(n): image size (2**R)**n, worst-case
reconstruction error r*sqrt(n)*2**-R over the cube domain, dynamic range
r. QuantizerSpec.rho is its one definition; the schedules, the bounds and
the CLI read it there. Near-optimal vector quantizers (covering efficiency
-> 1) exist but are non-constructive and out of scope here.

Cell geometry is fixed once and rescaled per iteration: the quantizer
used at scale r maps u to r * q(u/r), so every iteration shares one
lattice shape at a different resolution. Boundary ties round toward +inf
for deterministic reproducibility. Input that is not finite never passes
the domain check, in either the strict or the saturating mode.

Cell numbers are exact in float64 for R <= MAX_RATE = 53; the uplink
payload carries only the packed bits, n*R of them, coordinate-major and
MSB first.

Two codecs, which share no code:

- BitCoder carries every run. It codes any number of rows of one rate in
  one pass, through its own pieces: the checked step to float cells
  (_checked_cells, with the range check _cell_widths and the cell map
  _cells), the cell centers (_centers) and the bit layout (_pack, _unpack,
  with the per-rate constants of _layout).
- The reference: ScaledQuantizer.quantize, reconstruct, encode_payload and
  decode_payload, one flat row at a time. Its cell map and centers are
  plain numpy expressions, and its bits go MSB first through one Python
  int. The coder is checked against it (acceptance check c10 and the test
  suite), so a fault in any of the coder's pieces shows as a mismatch.

Hot path: at n = 16 a numpy call costs more than its arithmetic, so each
entry point takes one checked pass: a float64 row or stack goes in as it
is, one argmax of |u| (the largest, or the first NaN) checks the domain,
and error details are looked up only on failure. The pieces work in place,
bit-equal to the reference's forms: floor and clip equal np.clip(np.floor(
(u + r) / w), 0, 2**R - 1) on non-NaN u >= -r, -r + y equals y + (-r), and
a saturating row is clamped only when some |u| exceeds r. At R = 8 a cell
is its byte; below, its bits come from a table of every index, above,
from the last R bits of its big-endian bytes; rows that fill whole bytes
pack and unpack as one buffer, contracted with the rate's float weights
(read-only, _layout).
The clip holds every cell in [0, 2**R - 1]: no index check.
"""

import collections
import functools
import math
import operator
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
# 2 KB at R = 8; above it, a cell's bits are the last R of its bytes as the
# narrowest big-endian unsigned integer that holds it
_TABLE_RATE = 8
_WIDE = {R: np.dtype(">u2" if R <= 16 else ">u4" if R <= 32 else ">u8")
         for R in range(_TABLE_RATE + 1, MAX_RATE + 1)}
_FLOAT64 = np.dtype(np.float64)


class RangeViolationError(Exception):
    """Quantizer input left the cube domain [-r, r]^n, or is not finite.

    Carries the first offending coordinate, and for a stack of rows the
    first offending row (None for one row); in a DQ run this signals a bug
    in the dynamic-range schedule, not in the data.
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
        for name in ("n", "R"):  # numpy integers become ints: 1 << R is exact
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.R < 0:
            raise ValueError("rate must be a nonnegative integer")
        if self.R > MAX_RATE:
            raise ValueError(
                f"rate {self.R} exceeds {MAX_RATE}: cell numbers would no "
                "longer be exact as float64"
            )

    @functools.cached_property  # read on every pass of the coder
    def levels(self):
        return 1 << self.R

    @property
    def image_size(self):
        return 1 << (self.n * self.R)

    @property
    def rho(self):
        """Covering efficiency rho_n: image_size**(1/n) * covering_radius /
        dynamic range, the same at every rate."""
        return math.sqrt(self.n)

    def scaled(self, r, saturate=False):
        return ScaledQuantizer(self, r, saturate)


def covering_radius(spec, r):
    """Worst-case reconstruction error over the cube domain at scale r."""
    if r < 0:
        raise ValueError("scale must be nonnegative")
    return r * spec.rho * 2.0 ** (-spec.R)


# ---------------------------------------------------------------------------
# the reference: one flat row, plain expressions, one Python int per payload


@dataclass(frozen=True)
class ScaledQuantizer:
    """`base` rescaled to the cube [-r, r]^n, at a float range r.

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
        """Map one row u (n,) to (int64 cell indices, reconstruction).

        Cell i on an axis spans [-r + i*w, -r + (i+1)*w), w = 2r/2**R, with
        reconstruction at the center; boundary values belong to the upper
        cell. It checks the shape, then the range (ValueError if negative or
        without a finite cell width), then the domain: NaN and +-inf raise
        RangeViolationError in both modes. A cell width that underflows to
        0 maps every coordinate to index 0, which reconstructs at -r.
        """
        spec, r = self.base, self.r
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (spec.n,):
            raise ValueError(f"expected shape ({spec.n},), got {u.shape}")
        if not 0.0 <= r <= _LARGEST_RANGE:  # NaN fails
            raise ValueError("scale must be nonnegative" if r < 0 else
                             f"range {r!r} has no finite cell width at rate {spec.R}")
        inside = np.isfinite(u) if self.saturate else np.abs(u) <= r
        if not inside.all():
            coord = int(np.argmin(inside))
            raise RangeViolationError(coord, float(u[coord]), float(r))
        width = 2.0 * r / spec.levels
        idx = np.zeros(spec.n, dtype=np.int64)
        if width > 0.0:
            with np.errstate(over="ignore"):  # saturating |u| >> r overflows
                cells = np.floor((u + r) / width)
            idx = np.clip(cells, 0, spec.levels - 1).astype(np.int64)
        return idx, reconstruct(spec, r, idx)


def reconstruct(spec, r, indices):
    """The cell centers -r + (i + 0.5) * 2r/2**R of one row's indices."""
    width = 2.0 * r / spec.levels
    return -r + (np.asarray(indices, dtype=np.float64) + 0.5) * width


def encode_payload(indices, R):
    """Pack one row of indices into a coordinate-major, MSB-first bit
    string, shifted into one Python int.

    Returns (buf, nbits) with nbits = len(indices)*R exactly; the final
    byte is zero-padded on the right.
    """
    if not 0 <= R <= MAX_RATE:
        raise EncodingError(f"rate {R} outside [0, {MAX_RATE}]")
    idx = np.asarray(indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise EncodingError("indices must be a flat sequence of integers")
    acc = 0
    for i in idx.tolist():
        if not 0 <= i < 1 << R:
            raise EncodingError(f"index {i} does not fit in {R} bits")
        acc = acc << R | i
    nbits = idx.size * R
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big"), nbits


def decode_payload(buf, nbits, n, R):
    """The n int64 cell indices of one payload's bytes, read back MSB first
    from one Python int; the padding bits are ignored."""
    if not 0 <= R <= MAX_RATE:
        raise EncodingError(f"rate {R} outside [0, {MAX_RATE}]")
    if nbits != n * R:
        raise EncodingError(f"expected {n * R} bits, got {nbits}")
    nbytes = (nbits + 7) // 8
    if len(buf) != nbytes:
        raise EncodingError(f"expected {nbytes} bytes, got {len(buf)}")
    acc = int.from_bytes(buf, "big") >> (8 * nbytes - nbits)
    mask = (1 << R) - 1
    return np.array([acc >> (R * k) & mask for k in range(n - 1, -1, -1)],
                    dtype=np.int64)


class Payload:
    """One uplink message: n cell indices packed into exactly n*R bits.

    A payload is what travels and nothing more: its bits and their count.
    The receiver decodes it from the public (n, R) and its own range.
    Every DQ round builds one, so it is a plain slotted class,
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


# ---------------------------------------------------------------------------
# the coder every run uses, and its pieces


class BitCoder:
    """Scalar-uniform quantization to/from exactly n*R payload bits.

    One pass codes any number of rows of one rate: one row u (n,) at a
    float range r, or a (G, n) stack at a (G, 1) column of ranges, one per
    row. Every rate, range and shape takes one checked step to float cells
    (_checked_cells), with its errors. The payload bits of all rows are
    packed from those cells in one buffer and split into one payload per
    row, and (encode, one row) the reconstruction comes from the same
    cells. Decoding checks the ranges as the step does and each payload's
    length, unpacks the joined bytes once and contracts the bits with
    float weights straight to float cells.
    """

    def __init__(self, spec, saturate=False):
        self.spec = spec
        self.saturate = saturate
        self._layout = _layout(spec.R)
        self._nbits = spec.n * spec.R
        self._nbytes = (self._nbits + 7) // 8

    def encode(self, r, u):
        """(payload, reconstruction) of one row u at range r."""
        cells, width = _checked_cells(self.spec, r, u, self.saturate)
        payload = Payload(_pack(cells, self.spec.R).tobytes(),
                          self._nbits)  # before the centers overwrite cells
        return payload, _centers(cells, r, width, out=cells)

    def encode_rows(self, r, u):
        """One payload per row of u, split from one buffer; nothing is
        reconstructed."""
        cells, _ = _checked_cells(self.spec, r, u, self.saturate)
        buf = _pack(cells, self.spec.R).tobytes()
        size, nbits = self._nbytes, self._nbits
        return [Payload(buf[i * size:(i + 1) * size], nbits)
                for i in range(cells.size // self.spec.n)]

    def decode(self, r, wires):
        """Reconstructions from the payload bits in wires: (n,) of one at a
        float range r, (G, n) of G at a (G, 1) column."""
        spec = self.spec
        width = _cell_widths(spec, r, len(wires))
        rows = getattr(r, "shape", ())[:1]  # () for a float r, (G,) for a column
        data = _wires(wires, rows + (self._nbytes,))
        cells = _unpack(data, spec.n, spec.R, self._layout.weights)
        return _centers(cells, r, width, out=cells)


# one rate's constants of the bit layout: up to R = 8 the MSB-first bits of
# every index as a (2**R, R) uint8 table (else None), and the float64
# weights 2**(R - 1), ..., 2, 1 of the bits
_Layout = collections.namedtuple("_Layout", "table weights")


@functools.cache
def _layout(R):
    """The _Layout of rate R, built on first use and read-only, since every
    coder of the rate shares it."""
    table = None
    if R <= _TABLE_RATE:
        every = np.arange(1 << R, dtype=np.uint8)[:, None]
        table = np.unpackbits(every, axis=1)[:, 8 - R:].copy()
    weights = np.ldexp(1.0, np.arange(R - 1, -1, -1))
    layout = _Layout(table, weights)
    for a in layout:
        if a is not None:
            a.flags.writeable = False
    return layout


def _cell_widths(spec, r, rows):
    """The cell width 2r/2**R of a float range, or the widths of a
    (rows, 1) column of ranges: the coder's one range check, on both
    channel ends. ValueError for a column of another shape, a negative
    range, or one whose width is not finite (inf, NaN, or 2r past the
    largest float64); a column's error names its first such row."""
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
    """(float cells, cell widths) of one row u (n,) at a float range r, or
    of a (G, n) stack at a (G, 1) column of ranges: the coder's one checked
    step.

    It checks the shapes, then the range (_cell_widths), then the domain
    (|u| <= r, or finiteness when saturating; NaN fails both), whose first
    failing element in row order raises RangeViolationError. Rows of cell
    width 0 (r = 0, or 2r/2**R below the smallest float) go to cell 0.
    """
    if u.__class__ is not np.ndarray or u.dtype is not _FLOAT64:
        u = np.asarray(u, dtype=np.float64)
    n = spec.n
    column = getattr(r, "ndim", 0) > 0
    if u.ndim != 1 + column or u.shape[-1] != n:
        raise ValueError(f"expected shape ({n},) at a float range, or (G, {n}) "
                         f"at a (G, 1) column of ranges, got {u.shape}")
    width = _cell_widths(spec, r, len(u))
    mag = np.abs(u)
    if saturate or not column:  # argmax: the largest |u|, or the first NaN
        top = mag.item(mag.argmax()) if mag.size else 0.0
        failed = not (top < math.inf if saturate else top <= r)
    else:  # each row at its own range
        failed = np.count_nonzero(mag <= r) < mag.size
    if failed:
        inside = np.isfinite(u) if saturate else mag <= r
        row, coord = divmod(int(np.argmin(inside)), n)
        raise RangeViolationError(coord, float(u.reshape(-1, n)[row, coord]),
                                  float(r[row, 0] if column else r),
                                  row if column else None)
    clamp = saturate and (column or not top <= r)  # keeps [-r, r] as it is
    nlev = spec.levels
    if column and np.count_nonzero(width) < len(width):
        dead = width == 0.0  # rows of width 0 divide by 1, go to cell 0
        cells = _cells(u, r, np.where(dead, 1.0, width), nlev, clamp)
        cells[dead[:, 0]] = 0.0
        return cells, width
    if not column and width == 0.0:
        return np.zeros(u.shape), width
    return _cells(u, r, width, nlev, clamp), width


def _cells(u, r, width, nlev, clamp):
    """The cell map: floor((u + r) / width) clipped to nlev - 1, in float64,
    for u >= -r; u is a row at a float r and width, or a stack at (G, 1)
    columns of them.

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
    return np.minimum(cells, nlev - 1.0, out=cells)


def _centers(cells, r, width, out=None):
    """The cell centers -r + (cells + 0.5)*width of float cell numbers, in
    float64; in place with out=cells."""
    recon = np.add(cells, 0.5, out=out)
    recon *= width
    return np.add(recon, -r, out=recon)


def _pack(cells, R):
    """The bit layout: each row of whole-number float cells in [0, 2**R) as
    its packed bits, uint8, coordinate-major and MSB first, the last byte
    zero-padded; (nbytes,) for one row, (G, nbytes) for a stack.

    Nothing here checks the range: a value outside it packs garbage.
    """
    if R == 8:  # a byte per cell
        return cells.astype(np.uint8)
    if R < 8:
        bits = _layout(R).table.take(cells.astype(np.uint8), axis=0)
    else:  # each cell's big-endian bytes, of which its last R bits
        wide = cells.astype(_WIDE[R])
        bits = np.unpackbits(wide.view(np.uint8)).reshape(
            cells.shape + (8 * wide.itemsize,))[..., -R:]
    if cells.ndim == 1:  # packbits is much faster without an axis
        return np.packbits(bits)
    G, n = cells.shape  # whole bytes pack as one buffer, else row by row
    return (np.packbits(bits).reshape(G, n * R // 8) if n * R % 8 == 0
            else np.packbits(bits.reshape(G, n * R), axis=1))


def _unpack(data, n, R, weights):
    """The float cell numbers of packed rows, their bits contracted with the
    rate's weights: (n,) of one row's (nbytes,) data, (G, n) of a stack's
    (G, nbytes)."""
    if R == 8:  # a byte per cell
        return data.astype(np.float64)
    if data.ndim == 1:  # unpackbits is faster without an axis
        return np.unpackbits(data, count=n * R).reshape(n, R).dot(weights)
    # several times faster as one (G*n, R) dot than as a (G, n, R) one
    G = len(data)
    bits = (np.unpackbits(data, axis=1, count=n * R) if n * R % 8
            else np.unpackbits(data))  # whole bytes: one buffer
    return bits.reshape(G * n, R).dot(weights).reshape(G, n)


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
