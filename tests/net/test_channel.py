"""Tests for the collision-modelling wireless channel."""

from typing import List, Optional

import pytest

from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.net.propagation import LossModel
from repro.net.topology import GridTopology, Topology
from repro.sim.engine import Engine

BIT_RATE = 19200.0


class FakeListener:
    """Scripted listener: always listening unless told otherwise."""

    def __init__(self, listening: bool = True):
        self.listening = listening
        self.listening_since = 0.0
        self.received: List[Packet] = []
        self.collided: List[Packet] = []

    def is_listening_interval(self, start: float, end: float) -> bool:
        return self.listening and self.listening_since <= start

    def on_receive(self, packet: Packet) -> None:
        self.received.append(packet)

    def on_collision(self, packet: Packet) -> None:
        self.collided.append(packet)


def _line_topology(n: int) -> Topology:
    """0 - 1 - 2 - ... - (n-1)."""
    adjacency = []
    for i in range(n):
        nbrs = []
        if i > 0:
            nbrs.append(i - 1)
        if i < n - 1:
            nbrs.append(i + 1)
        adjacency.append(nbrs)
    return Topology([(float(i), 0.0) for i in range(n)], adjacency)


def _packet(sender: int, seqno: int = 0, size: int = 64) -> Packet:
    return Packet(
        kind=PacketKind.DATA,
        origin=sender,
        seqno=seqno,
        size_bytes=size,
    )


def _setup(n: int = 3):
    engine = Engine()
    topology = _line_topology(n)
    channel = Channel(engine, topology, BIT_RATE)
    listeners = [FakeListener() for _ in range(n)]
    for i, listener in enumerate(listeners):
        channel.attach(i, listener)
    return engine, channel, listeners


class TestDelivery:
    def test_neighbors_receive(self):
        engine, channel, listeners = _setup(3)
        channel.transmit(1, _packet(1))
        engine.run()
        assert len(listeners[0].received) == 1
        assert len(listeners[2].received) == 1

    def test_sender_does_not_receive_own_packet(self):
        engine, channel, listeners = _setup(3)
        channel.transmit(1, _packet(1))
        engine.run()
        assert listeners[1].received == []

    def test_out_of_range_node_does_not_receive(self):
        engine, channel, listeners = _setup(4)
        channel.transmit(0, _packet(0))
        engine.run()
        assert listeners[2].received == []
        assert listeners[3].received == []

    def test_delivery_happens_at_end_of_airtime(self):
        engine, channel, listeners = _setup(2)
        channel.transmit(0, _packet(0, size=64))
        engine.run()
        assert engine.now == pytest.approx(64 * 8 / BIT_RATE)

    def test_sleeping_listener_misses(self):
        engine, channel, listeners = _setup(2)
        listeners[1].listening = False
        channel.transmit(0, _packet(0))
        engine.run()
        assert listeners[1].received == []
        assert channel.stats.missed_asleep == 1

    def test_late_waker_misses(self):
        # A node that started listening mid-transmission cannot decode it.
        engine, channel, listeners = _setup(2)
        listeners[1].listening_since = 0.010  # woke 10 ms into the packet
        channel.transmit(0, _packet(0))
        engine.run()
        assert listeners[1].received == []

    def test_stats_count_deliveries(self):
        engine, channel, listeners = _setup(3)
        channel.transmit(1, _packet(1))
        engine.run()
        assert channel.stats.transmissions == 1
        assert channel.stats.deliveries == 2

    def test_by_kind_counter(self):
        engine, channel, _ = _setup(2)
        channel.transmit(0, _packet(0))
        engine.run()
        assert channel.stats.by_kind == {"data": 1}


class TestCollisions:
    def test_overlapping_transmissions_corrupt_each_other(self):
        # 0 and 2 both transmit; node 1 hears both and decodes neither.
        engine, channel, listeners = _setup(3)
        channel.transmit(0, _packet(0))
        channel.transmit(2, _packet(2, seqno=1))
        engine.run()
        assert listeners[1].received == []
        assert len(listeners[1].collided) == 2
        assert channel.stats.collisions == 2

    def test_partial_overlap_still_corrupts(self):
        engine, channel, listeners = _setup(3)
        channel.transmit(0, _packet(0))
        # Start the second transmission 10 ms in (packet lasts ~26.7 ms).
        engine.schedule(0.010, lambda: channel.transmit(2, _packet(2, seqno=1)))
        engine.run()
        assert listeners[1].received == []

    def test_non_overlapping_sequential_transmissions_both_deliver(self):
        engine, channel, listeners = _setup(3)
        channel.transmit(0, _packet(0))
        engine.schedule(0.1, lambda: channel.transmit(2, _packet(2, seqno=1)))
        engine.run()
        assert len(listeners[1].received) == 2

    def test_hidden_terminal_collision(self):
        # Line 0-1-2-3: 0 and 2 cannot hear each other... 0's transmission
        # reaches 1; 2's reaches 1 and 3.  Node 1 suffers the collision,
        # node 3 decodes cleanly.
        engine, channel, listeners = _setup(4)
        channel.transmit(0, _packet(0))
        channel.transmit(2, _packet(2, seqno=1))
        engine.run()
        assert listeners[1].received == []
        assert len(listeners[3].received) == 1

    def test_far_transmission_does_not_corrupt(self):
        # 0 -> 1 and 3 -> (2); node 2 is out of range of 0, in range of 3.
        engine, channel, listeners = _setup(4)
        channel.transmit(0, _packet(0))
        channel.transmit(3, _packet(3, seqno=1))
        engine.run()
        assert len(listeners[1].received) == 1
        assert len(listeners[2].received) == 1


class TestCarrierSense:
    def test_idle_initially(self):
        _, channel, _ = _setup(2)
        assert not channel.is_busy(0)

    def test_busy_during_neighbor_transmission(self):
        engine, channel, _ = _setup(2)
        channel.transmit(0, _packet(0))
        assert channel.is_busy(1)

    def test_own_transmission_is_busy(self):
        engine, channel, _ = _setup(2)
        channel.transmit(0, _packet(0))
        assert channel.is_busy(0)

    def test_not_busy_out_of_range(self):
        engine, channel, _ = _setup(3)
        channel.transmit(0, _packet(0))
        assert not channel.is_busy(2)

    def test_idle_after_transmission_ends(self):
        engine, channel, _ = _setup(2)
        channel.transmit(0, _packet(0))
        engine.run()
        assert not channel.is_busy(1)

    def test_busy_until_returns_end_time(self):
        engine, channel, _ = _setup(2)
        tx = channel.transmit(0, _packet(0))
        assert channel.busy_until(1) == pytest.approx(tx.end)

    def test_busy_until_idle_returns_now(self):
        engine, channel, _ = _setup(2)
        assert channel.busy_until(0) == engine.now

    def test_busy_during_detects_past_overlap(self):
        engine, channel, _ = _setup(2)
        tx = channel.transmit(0, _packet(0))
        engine.run()
        assert channel.busy_during(1, 0.0, tx.end + 0.01)
        assert not channel.busy_during(1, tx.end + 0.001, tx.end + 0.01)

    def test_busy_during_rejects_reversed_interval(self):
        _, channel, _ = _setup(2)
        with pytest.raises(ValueError):
            channel.busy_during(0, 1.0, 0.5)


class TestLossInjection:
    def test_total_loss_blocks_delivery(self):
        import random as random_module

        engine = Engine()
        topology = _line_topology(2)
        channel = Channel(
            engine, topology, BIT_RATE,
            loss_model=LossModel(1.0, random_module.Random(1)),
        )
        listener = FakeListener()
        channel.attach(1, listener)
        channel.transmit(0, _packet(0))
        engine.run()
        assert listener.received == []
        assert channel.stats.lost_random == 1


class TestAttachment:
    def test_unattached_node_ignored(self):
        engine, channel, _ = _setup(2)
        # Detached topologies: transmit with only some listeners attached.
        engine2 = Engine()
        channel2 = Channel(engine2, _line_topology(2), BIT_RATE)
        channel2.transmit(0, _packet(0))
        engine2.run()  # must not raise

    def test_attach_out_of_range_rejected(self):
        _, channel, _ = _setup(2)
        with pytest.raises(IndexError):
            channel.attach(99, FakeListener())

    @pytest.mark.parametrize("removed", ["interference_neighbors", "tracer"])
    def test_removed_arguments_are_rejected(self, removed):
        """Audibility is the topology's adjacency and nothing traces frames."""
        with pytest.raises(TypeError):
            Channel(Engine(), _line_topology(3), BIT_RATE, **{removed: None})
