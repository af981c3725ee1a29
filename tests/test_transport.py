import numpy as np
import pytest

from dqgrad.engines import build_dq_engine, build_nq_engine, run_protocol
from dqgrad.harness import run_dq
from dqgrad.problems import make_gaussian_ls, make_interpolation_problem
from dqgrad.quantizer import Payload
from dqgrad.rng import make_rng
from dqgrad.transport import (
    Channel,
    FramingError,
    pack_iterate,
    unpack_iterate,
    unpack_iterates,
)


def test_iterate_frame_roundtrip():
    frame = pack_iterate(9, np.array([1.0, -1.0]))
    assert len(frame) == 4 + 16
    t, x = unpack_iterate(frame)
    assert t == 9
    assert x.tolist() == [1.0, -1.0]


def test_empty_iterate_rejected():
    with pytest.raises(FramingError):
        pack_iterate(0, np.array([]))


def test_truncated_frame_rejected():
    frame = pack_iterate(1, np.array([2.0]))
    with pytest.raises(FramingError):
        unpack_iterate(frame[:-3])


def test_random_iterate_roundtrips_bitwise():
    gen = make_rng(5)
    for _ in range(1000):
        n = int(gen.integers(1, 20))
        x = gen.standard_normal(n) * 10.0 ** gen.integers(-6, 6)
        t = int(gen.integers(0, 2**32))
        t2, x2 = unpack_iterate(pack_iterate(t, x))
        assert t2 == t
        assert np.array_equal(x2, x)


def test_stacked_frames_read_as_rows():
    frames = [pack_iterate(t, x) for t, x in
              [(3, np.array([1.0, -0.0])), (4, np.array([np.inf, 2.5]))]]
    ts, X = unpack_iterates(frames)
    assert ts == [3, 4]
    assert X.flags.aligned and X.flags.writeable and X.shape == (2, 2)
    assert X.tobytes() == np.array([[1.0, -0.0], [np.inf, 2.5]]).tobytes()


def test_broadcast_queues_one_frame_on_every_channel():
    prob = make_interpolation_problem(3, 4, 8, [2.0, 3.0, 4.0], 1)
    _, server, channels = build_nq_engine(prob, [2, 2, 3])
    server.broadcast(channels)
    frames = [ch.recv_frame() for ch in channels]
    assert all(f is frames[0] for f in frames)
    assert frames[0] == pack_iterate(0, prob.x0)
    assert [ch.trace.downlink_bytes for ch in channels] == [[4 + 8 * 4]] * 3


@pytest.mark.parametrize("size", [3, 5])
def test_mis_sized_frame_on_one_channel_fails_the_stacked_read(size):
    # channel 1 carries a frame of another length: the round reads nothing
    # past it, whatever the other channels hold
    prob = make_interpolation_problem(3, 4, 8, [2.0, 3.0, 4.0], 1)
    worker, _, channels = build_nq_engine(prob, [2, 2, 3])
    for k, ch in enumerate(channels):
        ch.send_frame(pack_iterate(0, np.zeros(size if k == 1 else 4)))
    with pytest.raises(FramingError, match=f"expected a 36-byte downlink "
                                           f"frame, got {4 + 8 * size}"):
        worker.round(channels)
    assert all(ch.trace.uplink_bits == [] for ch in channels)


def test_payload_length_enforced():
    ch = Channel(n=4, R=2)
    with pytest.raises(FramingError):
        ch.send_payload(Payload.from_indices([1, 2, 3], 2))  # 6 bits, not 8
    ch.send_payload(Payload.from_indices([1, 2, 3, 0], 2))
    assert ch.trace.uplink_bits == [8]


def test_full_run_bit_accounting():
    _, obj = make_gaussian_ls(24, 8, 5, 1)
    rec = run_dq("dq-gd", obj, 3, t_max=500)
    T = len(rec.bits_per_iteration)
    assert all(b == 8 * 3 for b in rec.bits_per_iteration)
    assert sum(rec.bits_per_iteration) == T * 8 * 3


def test_schedule_synchrony():
    # both ends regenerate identical ranges from public constants alone
    _, obj = make_gaussian_ls(24, 8, 10, 2)
    worker, server, _ = build_dq_engine("dq-agd", obj, 4)
    a, b = worker.cursor, server.cursor
    assert a is not b
    for _ in range(100):
        assert a.step() == b.step()


def test_server_sees_only_payload_bits():
    # replaying the recorded uplink bits into a fresh server reproduces the
    # trajectory; mutating worker-private state after the fact changes nothing
    _, obj = make_gaussian_ls(24, 8, 5, 3)
    R = 4
    worker, server, channel = build_dq_engine("dq-gd", obj, R)
    wire, xs = [], []

    def record(t, srv, w):
        wire.append(channel.trace.uplink_bits[-1])
        xs.append(srv.x.copy())
        w.e2 = w.e2 + 123.0  # canary: private state, already consumed

    bits = []
    orig_send = channel.send_payload

    def tap(payload):
        bits.append((payload.bits, payload.nbits))
        orig_send(payload)

    channel.send_payload = tap
    run_protocol(server, worker, [channel], 40, on_iteration=record)

    _, server2, _ = build_dq_engine("dq-gd", obj, R)

    class Replay:  # uplink end only: hands the server the recorded bits
        def recv_payload_bits(self):
            buf, _ = bits[server2.t]
            return buf

    for t in range(len(bits)):
        server2.collect([Replay()])
        assert np.array_equal(server2.x, xs[t])
