"""Bit-exact simulated channel between server and worker(s).

The downlink (server -> worker) carries the full-precision iterate; only
the uplink is rate limited, and each uplink message is exactly n*R bits.
Both ends derive the per-iteration dynamic range from public constants,
so ranges are never transmitted. In-memory duplex queues model the
channel; the frame formats below would let a socket backend replace them.

Frame formats
-------------
downlink  : uint32 little-endian iteration index, then n float64
            little-endian coordinates (4 + 8n bytes).
uplink    : the packed payload bits, zero-padded to a whole byte; the bit
            count n*R is implied by the public (n, R) and checked.
"""

from collections import deque
from dataclasses import dataclass, field
import struct

import numpy as np

from .quantizer import decode_payload


class FramingError(Exception):
    pass


def pack_iterate(iteration, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise FramingError(f"iterate must be a nonempty vector, got shape {x.shape}")
    return struct.pack("<I", iteration) + x.astype("<f8", copy=False).tobytes()


def unpack_iterate(frame):
    if len(frame) < 4 or (len(frame) - 4) % 8 != 0 or len(frame) == 4:
        raise FramingError(f"bad downlink frame length {len(frame)}")
    (iteration,) = struct.unpack_from("<I", frame, 0)
    x = np.frombuffer(frame, dtype="<f8", offset=4).copy()
    return iteration, x


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
        frame = pack_iterate(iteration, x)
        self._down.append(frame)
        self.trace.downlink_bytes.append(len(frame))

    def recv_payload_bits(self):
        if not self._up:
            raise FramingError("uplink empty")
        buf, nbits = self._up.popleft()
        if nbits != self.n * self.R:
            raise FramingError(f"expected {self.n * self.R} payload bits, got {nbits}")
        return decode_payload(buf, nbits, self.n, self.R)

    # worker side
    def recv_iterate(self):
        if not self._down:
            raise FramingError("downlink empty")
        return unpack_iterate(self._down.popleft())

    def send_payload(self, payload):
        if payload.nbits != self.n * self.R:
            raise FramingError(
                f"payload carries {payload.nbits} bits, channel expects {self.n * self.R}"
            )
        self._up.append((payload.bits, payload.nbits))
        self.trace.uplink_bits.append(payload.nbits)
