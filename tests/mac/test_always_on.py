"""Tests for the always-on flooding MAC."""

import random
from typing import List, Tuple

import pytest

from repro.energy.model import MICA2, RadioEnergyModel, RadioState
from repro.mac.always_on import AlwaysOnMac
from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Topology
from repro.sim.engine import Engine

BIT_RATE = 19200.0


def _line(n: int) -> Topology:
    adjacency = []
    for i in range(n):
        nbrs = []
        if i > 0:
            nbrs.append(i - 1)
        if i < n - 1:
            nbrs.append(i + 1)
        adjacency.append(nbrs)
    return Topology([(float(i), 0.0) for i in range(n)], adjacency)


class _Node:
    def __init__(self, radio, mac):
        self.radio = radio
        self.mac = mac

    def is_listening_interval(self, start, end):
        return self.radio.is_listening_interval(start, end)

    def on_receive(self, packet):
        self.mac.handle_receive(packet)

    def on_collision(self, packet):
        self.mac.handle_collision(packet)


def _build(topology, seed=1):
    engine = Engine()
    channel = Channel(engine, topology, BIT_RATE)
    deliveries: List[Tuple[int, float]] = []
    macs = []
    for node_id in range(topology.n_nodes):
        radio = RadioEnergyModel(MICA2)
        mac = AlwaysOnMac(
            engine, channel, node_id, radio,
            deliver=lambda pkt, t, node_id=node_id: deliveries.append((node_id, t)),
            rng=random.Random(seed + node_id),
        )
        channel.attach(node_id, _Node(radio, mac))
        macs.append(mac)
    for mac in macs:
        mac.start()
    return engine, channel, macs, deliveries


def _data(origin, seqno=0):
    return Packet(
        kind=PacketKind.DATA, origin=origin, seqno=seqno,
        size_bytes=64,
    )


class TestFlooding:
    def test_floods_entire_line(self):
        engine, _, macs, deliveries = _build(_line(5))
        macs[0].broadcast(_data(0))
        engine.run()
        assert {node for node, _ in deliveries} == {1, 2, 3, 4}

    def test_latency_is_subsecond(self):
        engine, _, macs, deliveries = _build(_line(5))
        macs[0].broadcast(_data(0))
        engine.run()
        assert all(t < 1.0 for _, t in deliveries)

    def test_latency_grows_with_distance(self):
        engine, _, macs, deliveries = _build(_line(5))
        macs[0].broadcast(_data(0))
        engine.run()
        times = dict(deliveries)
        assert times[1] < times[2] < times[3] < times[4]

    def test_duplicates_dropped(self):
        # Two nodes: 1's re-flood echoes straight back at the source,
        # which must drop it (no ping-pong).  (With three nodes in a line
        # the two echoes collide at the middle node instead — hidden
        # terminals — so no *clean* duplicate would even arrive.)
        engine, _, macs, deliveries = _build(_line(2))
        macs[0].broadcast(_data(0))
        engine.run()
        assert [node for node, _ in deliveries] == [1]
        assert macs[0].stats.duplicates_dropped == 1

    def test_own_broadcast_not_reforwarded_on_echo(self):
        engine, _, macs, _ = _build(_line(2))
        macs[0].broadcast(_data(0))
        engine.run()
        # 0 sends once; 1 forwards once; 0 hears the echo and drops it.
        assert macs[0].stats.data_sent == 1
        assert macs[1].stats.data_sent == 1

    def test_non_data_frames_ignored(self):
        engine, _, macs, deliveries = _build(_line(2))
        beacon = Packet(
            kind=PacketKind.BEACON, origin=0, seqno=0, size_bytes=28
        )
        macs[1].handle_receive(beacon)
        assert deliveries == []


class TestRadio:
    def test_always_listening_when_idle(self):
        engine, _, macs, _ = _build(_line(2))
        engine.run(until=100.0)
        assert macs[0].radio.state is RadioState.LISTEN

    def test_energy_is_continuous_listen(self):
        engine, _, macs, _ = _build(_line(2))
        engine.run(until=100.0)
        assert macs[0].radio.consumed_joules(100.0) == pytest.approx(
            100 * 0.030, rel=0.001
        )

    def test_double_start_rejected(self):
        engine, _, macs, _ = _build(_line(2))
        with pytest.raises(RuntimeError):
            macs[0].start()
