"""Bit-exact simulated channel between server and worker(s).

The downlink (server -> worker) carries the full-precision iterate; only
the uplink is rate limited, and each uplink message is exactly n*R bits.
Both ends derive the per-iteration dynamic range from public constants,
so ranges are never transmitted. In-memory duplex queues model the
channel; the frame formats below would let a socket backend replace them.

Frame formats
-------------
downlink  : uint32 little-endian iteration index, then n float64
            little-endian coordinates (4 + 8n bytes). A broadcast packs
            one frame and queues it on every channel; each channel checks
            the length of what it delivers, and a worker side that reads
            several channels decodes their frames as one stack. That side
            reads and checks every channel's frame before it checks any
            worker's containment.
uplink    : the packed payload bits, zero-padded to a whole byte; the bit
            count n*R is implied by the public (n, R) and checked.

Hot path: a little-endian float64 iterate is framed without a cast, and a
frame is read by one frombuffer, copied so that x is aligned for BLAS.
"""

from collections import deque
from dataclasses import dataclass, field
import struct

import numpy as np


class FramingError(Exception):
    pass


_INDEX = struct.Struct("<I")
_WIRE = np.dtype("<f8")


def pack_iterate(iteration, x):
    if x.__class__ is not np.ndarray or x.dtype is not _WIRE:
        x = np.asarray(x, dtype=np.float64).astype(_WIRE, copy=False)
    if x.ndim != 1 or x.size == 0:
        raise FramingError(f"iterate must be a nonempty vector, got shape {x.shape}")
    return _INDEX.pack(iteration) + x.tobytes()


def unpack_iterate(frame):
    if len(frame) < 12 or len(frame) % 8 != 4:
        raise FramingError(f"bad downlink frame length {len(frame)}")
    x = np.frombuffer(frame, _WIRE, offset=4).copy()
    return _INDEX.unpack_from(frame)[0], x


def unpack_iterates(frames):
    """(iteration indices, (K, n) iterates) of K frames of one length."""
    n = (len(frames[0]) - 4) // 8
    rows = np.frombuffer(b"".join(frames),
                         dtype=np.dtype([("t", "<u4"), ("x", "<f8", (n,))]))
    return rows["t"].tolist(), rows["x"].astype(np.float64)


@dataclass
class ChannelTrace:
    """Per-iteration bit/byte accounting for one worker's channel."""

    downlink_bytes: list = field(default_factory=list)
    uplink_bits: list = field(default_factory=list)


class Channel:
    """Half-duplex queue pair between the server and one worker.

    The round protocol is strictly alternating, so each queue holds at
    most one frame at a time.
    """

    def __init__(self, n, R):
        self.n = n
        self.R = R
        self._down = deque()
        self._up = deque()
        self.trace = ChannelTrace()

    # server side
    def send_iterate(self, iteration, x):
        self.send_frame(pack_iterate(iteration, x))

    def send_frame(self, frame):
        """Queue one packed downlink frame, shared by every channel of a
        broadcast."""
        self._down.append(frame)
        self.trace.downlink_bytes.append(len(frame))

    def recv_payload_bits(self):
        """The next payload's bytes, once its bit count is checked; the
        server's coder decodes all channels of one rate together."""
        if not self._up:
            raise FramingError("uplink empty")
        buf, nbits = self._up.popleft()
        if nbits != self.n * self.R:
            raise FramingError(f"expected {self.n * self.R} payload bits, got {nbits}")
        return buf

    # worker side
    def recv_iterate(self):
        return unpack_iterate(self.recv_frame())

    def recv_frame(self):
        """The next downlink frame, once its length is checked against n;
        the worker side decodes it."""
        if not self._down:
            raise FramingError("downlink empty")
        frame = self._down.popleft()
        if len(frame) != 4 + 8 * self.n:
            raise FramingError(f"expected a {4 + 8 * self.n}-byte downlink "
                               f"frame, got {len(frame)} bytes")
        return frame

    def send_payload(self, payload):
        if payload.nbits != self.n * self.R:
            raise FramingError(
                f"payload carries {payload.nbits} bits, channel expects {self.n * self.R}"
            )
        self._up.append((payload.bits, payload.nbits))
        self.trace.uplink_bits.append(payload.nbits)
