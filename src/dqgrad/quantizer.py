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

Hot path: at n = 16 a numpy call costs more than its arithmetic, so quantize,
reconstruct and encode_payload work in place, bit-equal to the plain forms:
in-place floor and clip equal np.clip(np.floor((u + r) / w), 0, 2**R - 1) on
non-NaN u, -r + y equals y + (-r), and int64 idx >> R is 0 iff 0 <= idx < 2**R.
"""

from dataclasses import dataclass, field

import numpy as np

# largest rate whose cell indices stay exact: quantize clips in float64, and
# at R = 63 the bound 2**63 - 1 rounds to 2**63, which int64 cannot hold
MAX_RATE = 62

# per-rate MSB-first bit positions and their weights 2**k, for the codec
_SHIFTS = [np.arange(R - 1, -1, -1, dtype=np.int64) for R in range(MAX_RATE + 1)]
_WEIGHTS = [np.left_shift(np.int64(1), s) for s in _SHIFTS]


class RangeViolationError(Exception):
    """Quantizer input left the cube domain [-r, r]^n, or is not finite.

    Carries the first offending coordinate; in a DQ run this signals a bug
    in the dynamic-range schedule, not in the data.
    """

    def __init__(self, coord, value, r):
        super().__init__(
            f"input coordinate {coord} = {value!r} outside [-{r!r}, {r!r}]"
        )
        self.coord = coord
        self.value = value
        self.r = r


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

    @property
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
        """
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.base.n,):
            raise ValueError(f"expected shape ({self.base.n},), got {u.shape}")
        if self.r < 0:
            raise ValueError("scale must be nonnegative")
        # written so that NaN fails the test
        inside = np.isfinite(u) if self.saturate else np.abs(u) <= self.r
        if np.count_nonzero(inside) < u.size:
            bad = int(np.argmin(inside))
            raise RangeViolationError(bad, float(u[bad]), float(self.r))
        nlev = self.base.levels
        width = 2.0 * self.r / nlev
        if nlev == 1 or width == 0.0:  # r = 0, or below the resolvable cell
            return np.zeros(self.base.n, dtype=np.int64), np.zeros(self.base.n)
        if self.saturate:  # |u| >> r would overflow the divide; input past
            # -r or nlev*width (2r unless width is subnormal) keeps its cell
            u = np.minimum(np.maximum(u, -self.r), nlev * width)
        cells = u + self.r
        cells /= width
        np.floor(cells, out=cells)
        # u >= -r, so clip only the top, before the cast; above R = 53 the
        # bound nlev - 1 rounds up to nlev, so int64 enforces it again
        np.minimum(cells, nlev - 1, out=cells)
        idx = cells.astype(np.int64)
        if self.base.R > 53:
            np.minimum(idx, nlev - 1, out=idx)
        return idx, reconstruct(self.base, self.r, idx)

    def quantize_payload(self, iteration, u):
        idx, recon = self.quantize(u)
        return Payload.from_indices(iteration, idx, self.base.R), recon


def reconstruct(spec, r, indices):
    """Cell centers for integer indices; shared verbatim by both channel ends."""
    if spec.levels == 1:
        return np.zeros(spec.n)
    recon = np.add(indices, 0.5, dtype=np.float64)
    recon *= 2.0 * r / spec.levels
    return np.add(recon, -r, out=recon)


def _check_rate(R):
    if not 0 <= R <= MAX_RATE:
        raise EncodingError(f"rate {R} outside [0, {MAX_RATE}]")


def encode_payload(indices, R):
    """Pack indices into a coordinate-major, MSB-first bit string.

    Returns (buf, nbits) with nbits = len(indices)*R exactly; the final
    byte is zero-padded on the right.
    """
    _check_rate(R)
    idx = np.asarray(indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise EncodingError("indices must be a flat sequence of integers")
    idx64 = idx.astype(np.int64, copy=False)  # uint64 >= 2**63 turns negative
    if np.count_nonzero(idx64 >> R):
        bad = idx[np.argmax((idx < 0) | (idx >= (1 << R)))]
        raise EncodingError(f"index {bad} does not fit in {R} bits")
    bits = idx64[:, None] >> _SHIFTS[R]
    bits &= 1
    return np.packbits(bits).tobytes(), idx.size * R


def decode_payload(buf, nbits, n, R):
    _check_rate(R)
    if nbits != n * R:
        raise EncodingError(f"expected {n * R} bits, got {nbits}")
    nbytes = (nbits + 7) // 8
    if len(buf) != nbytes:
        raise EncodingError(f"expected {nbytes} bytes, got {len(buf)}")
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=nbits)
    return bits.reshape(n, R) @ _WEIGHTS[R]


@dataclass(frozen=True)
class Payload:
    """One uplink message: n cell indices packed into exactly n*R bits.

    Only the packed bits travel; the receiver recovers the indices with
    decode(n, R) from the public (n, R).
    """

    iteration: int
    bits: bytes = field(repr=False)
    nbits: int

    @classmethod
    def from_indices(cls, iteration, indices, R):
        buf, nbits = encode_payload(indices, R)
        return cls(iteration, buf, nbits)

    def decode(self, n, R):
        return decode_payload(self.bits, self.nbits, n, R)
