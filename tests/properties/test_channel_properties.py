"""Property-based tests for the wireless channel."""

from typing import List

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Topology
from repro.sim.engine import Engine

BIT_RATE = 19200.0
AIRTIME = 64 * 8 / BIT_RATE


class _Recorder:
    def __init__(self):
        self.received: List[Packet] = []
        self.collided: List[Packet] = []

    def is_listening_interval(self, start, end):
        return True

    def on_receive(self, packet):
        self.received.append(packet)

    def on_collision(self, packet):
        self.collided.append(packet)


def _clique(n):
    return Topology(
        [(float(i), 0.0) for i in range(n)],
        [[j for j in range(n) if j != i] for i in range(n)],
    )


start_times = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestChannelProperties:
    @settings(max_examples=50, deadline=None)
    @given(start_times)
    def test_conservation_of_receptions(self, starts):
        """Every (transmission, in-range listener) pair is accounted for
        exactly once: received, collided, or missed."""
        n = 4
        engine = Engine()
        channel = Channel(engine, _clique(n), BIT_RATE)
        recorders = [_Recorder() for _ in range(n)]
        for i, recorder in enumerate(recorders):
            channel.attach(i, recorder)
        for seqno, t in enumerate(starts):
            sender = seqno % n
            packet = Packet(
                kind=PacketKind.DATA, origin=sender,
                seqno=seqno, size_bytes=64,
            )
            engine.schedule_at(t, lambda s=sender, p=packet: channel.transmit(s, p))
        engine.run()
        expected = len(starts) * (n - 1)
        accounted = (
            channel.stats.deliveries
            + channel.stats.collisions
            + channel.stats.missed_asleep
            + channel.stats.lost_random
        )
        assert accounted == expected
        assert channel.stats.transmissions == len(starts)

    @settings(max_examples=50, deadline=None)
    @given(start_times)
    def test_disjoint_transmissions_always_deliver(self, starts):
        """Transmissions separated by more than one airtime never collide."""
        spaced = sorted(starts)
        assume(
            all(b - a > AIRTIME * 1.01 for a, b in zip(spaced, spaced[1:]))
        )
        n = 3
        engine = Engine()
        channel = Channel(engine, _clique(n), BIT_RATE)
        recorders = [_Recorder() for _ in range(n)]
        for i, recorder in enumerate(recorders):
            channel.attach(i, recorder)
        for seqno, t in enumerate(spaced):
            packet = Packet(
                kind=PacketKind.DATA, origin=0,
                seqno=seqno, size_bytes=64,
            )
            engine.schedule_at(t, lambda p=packet: channel.transmit(0, p))
        engine.run()
        assert channel.stats.collisions == 0
        assert channel.stats.deliveries == len(spaced) * (n - 1)

    @settings(max_examples=50, deadline=None)
    @given(start_times)
    def test_collisions_require_an_overlapping_pair(self, starts):
        """A corrupted reception can only happen when at least one pair of
        transmissions genuinely overlapped in time."""
        n = 3
        engine = Engine()
        channel = Channel(engine, _clique(n), BIT_RATE)
        recorders = [_Recorder() for _ in range(n)]
        for i, recorder in enumerate(recorders):
            channel.attach(i, recorder)
        for seqno, t in enumerate(starts):
            sender = seqno % n
            packet = Packet(
                kind=PacketKind.DATA, origin=sender,
                seqno=seqno, size_bytes=64,
            )
            engine.schedule_at(t, lambda s=sender, p=packet: channel.transmit(s, p))
        engine.run()
        spaced = sorted(starts)
        any_overlap = any(
            b - a < AIRTIME for a, b in zip(spaced, spaced[1:])
        )
        if not any_overlap:
            assert channel.stats.collisions == 0
        # Global sanity: collisions never exceed the reception opportunities.
        assert channel.stats.collisions <= len(starts) * (n - 1)
