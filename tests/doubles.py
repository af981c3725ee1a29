"""Test doubles for the engines: a lossless coder and an object channel."""

import numpy as np

from dqgrad.transport import unpack_iterate


class ExactCoder:
    """Zero-error stand-in for rate = infinity runs.

    The wire object is a read-only copy of the float vector, so this only
    works over a loopback channel; reconstruction equals the input bitwise
    and the stored error stays exactly zero. It never clamps, so a worker
    over it counts escapes instead of raising, as over a saturating coder.
    """

    saturate = True

    def encode(self, r, u):
        wire = u.copy()
        wire.flags.writeable = False
        return wire, u.copy()

    def decode(self, rs, wires):
        return wires[0] if len(wires) == 1 else np.array(wires)


class LoopbackChannel:
    """Channel double that carries arbitrary objects; no bit accounting.

    The downlink holds (iteration, x) pairs; each broadcast frame is
    unpacked on the way in.
    """

    def __init__(self):
        self._down = []
        self._up = []

    def send_frame(self, frame):
        self._down.append(unpack_iterate(frame))

    def recv_iterate(self):
        return self._down.pop(0)

    def send_payload(self, obj):
        self._up.append(obj)

    def recv_payload_bits(self):
        return self._up.pop(0)
