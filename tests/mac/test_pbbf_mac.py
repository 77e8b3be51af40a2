"""Tests for the PSM + PBBF MAC."""

import random
from typing import List, Tuple

import pytest

from repro.core.params import PBBFParams
from repro.core.pbbf import PBBFAgent
from repro.energy.model import MICA2, RadioEnergyModel, RadioState
from repro.mac.base import MacConfig
from repro.mac.pbbf import PBBFMac
from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Topology
from repro.sim.engine import Engine

BIT_RATE = 19200.0


def _clique(n: int) -> Topology:
    return Topology(
        [(float(i), 0.0) for i in range(n)],
        [[j for j in range(n) if j != i] for i in range(n)],
    )


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
    """Channel listener delegating to radio + MAC (as SensorNode does)."""

    def __init__(self, radio, mac):
        self.radio = radio
        self.mac = mac

    def is_listening_interval(self, start, end):
        return self.radio.is_listening_interval(start, end)

    def on_receive(self, packet):
        self.mac.handle_receive(packet)

    def on_collision(self, packet):
        self.mac.handle_collision(packet)


def _build(topology, p, q, seed=1, send_beacons=False):
    """A small network of PBBF MACs; returns (engine, macs, deliveries)."""
    engine = Engine()
    channel = Channel(engine, topology, BIT_RATE)
    deliveries: List[Tuple[int, int, float]] = []  # (node, seqno, time)
    macs = []
    config = MacConfig(send_beacons=send_beacons)
    for node_id in range(topology.n_nodes):
        radio = RadioEnergyModel(MICA2)
        agent = PBBFAgent(PBBFParams(p=p, q=q), random.Random(seed * 100 + node_id))
        mac = PBBFMac(
            engine,
            channel,
            node_id,
            agent,
            radio,
            deliver=lambda pkt, t, node_id=node_id: deliveries.append(
                (node_id, pkt.seqno, t)
            ),
            rng=random.Random(seed * 200 + node_id),
            config=config,
        )
        channel.attach(node_id, _Node(radio, mac))
        macs.append(mac)
    for mac in macs:
        mac.start()
    return engine, channel, macs, deliveries


def _data(origin, seqno=0):
    return Packet(
        kind=PacketKind.DATA, origin=origin, seqno=seqno,
        size_bytes=64, updates=(seqno,),
    )


class TestPsmDelivery:
    def test_broadcast_in_window_delivered_same_interval(self):
        engine, _, macs, deliveries = _build(_clique(3), p=0.0, q=0.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        receivers = {node for node, _, _ in deliveries}
        assert receivers == {1, 2}
        # Data goes out right after the ATIM window (1 s).
        times = [t for _, _, t in deliveries]
        assert all(1.0 < t < 3.0 for t in times)

    def test_broadcast_outside_window_waits_for_next_interval(self):
        engine, _, macs, deliveries = _build(_clique(2), p=0.0, q=0.0)
        engine.schedule(5.0, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=15.0)
        assert deliveries
        _, _, t = deliveries[0]
        assert 11.0 < t < 13.0  # next window opens at 10 s, data after 11 s

    def test_multihop_relay_costs_one_interval_per_hop(self):
        engine, _, macs, deliveries = _build(_line(3), p=0.0, q=0.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=25.0)
        times = {node: t for node, _, t in deliveries}
        assert set(times) == {1, 2}
        assert 1.0 < times[1] < 3.0
        assert 11.0 < times[2] < 13.0

    def test_each_node_delivers_each_packet_once(self):
        engine, _, macs, deliveries = _build(_clique(4), p=0.0, q=0.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=30.0)
        assert len(deliveries) == 3  # one per non-source node

    def test_atim_announced_before_data(self):
        engine, channel, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        assert macs[0].stats.atims_sent == 1
        assert macs[1].stats.atims_received == 1
        assert channel.stats.by_kind.get("atim") == 1


class TestSleepSchedule:
    def test_q_zero_sleeps_after_window(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        engine.run(until=5.0)
        assert macs[0].radio.state is RadioState.SLEEP

    def test_q_one_stays_awake(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=1.0)
        engine.run(until=5.0)
        assert macs[0].radio.state is RadioState.LISTEN

    def test_awake_again_at_next_interval(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        engine.run(until=10.5)
        assert macs[0].radio.state is RadioState.LISTEN

    def test_announcer_stays_awake_through_interval(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=5.0)
        # Sender announced data: PSM keeps it awake for the whole BI.
        assert macs[0].radio.state is RadioState.LISTEN
        # Receiver heard the ATIM: also awake.
        assert macs[1].radio.state is RadioState.LISTEN

    def test_psm_duty_cycle_energy(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        engine.run(until=100.0)
        joules = macs[0].radio.consumed_joules(100.0)
        # Ten frames of 1 s listen + 9 s sleep.
        expected = 10 * (1.0 * 0.030 + 9.0 * 3e-6)
        assert joules == pytest.approx(expected, rel=0.01)

    def test_q_one_energy_is_always_on(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=1.0)
        engine.run(until=100.0)
        joules = macs[0].radio.consumed_joules(100.0)
        assert joules == pytest.approx(100 * 0.030, rel=0.01)


class TestImmediateForwarding:
    def test_p1_q1_relays_without_waiting(self):
        engine, _, macs, deliveries = _build(_line(3), p=1.0, q=1.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        times = {node: t for node, _, t in deliveries}
        # Node 2 hears the relay in the same beacon interval.
        assert set(times) == {1, 2}
        assert times[2] < 3.0
        assert macs[1].stats.immediate_sends == 1

    def test_p1_q0_immediate_forward_dies(self):
        engine, _, macs, deliveries = _build(_line(3), p=1.0, q=0.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=30.0)
        receivers = {node for node, _, _ in deliveries}
        # Node 1 hears the source's announced broadcast; its immediate
        # relay hits a sleeping node 2 and is lost forever.
        assert receivers == {1}
        assert macs[1].stats.immediate_sends == 1

    def test_immediate_send_not_during_atim_window(self):
        engine, channel, macs, _ = _build(_line(3), p=1.0, q=1.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        # Verify no data frame started inside any ATIM window.
        for tx_record in channel._recent:
            if tx_record.packet.kind is PacketKind.DATA:
                phase = tx_record.start % 10.0
                assert phase >= 1.0

    def test_duplicates_not_reforwarded(self):
        engine, _, macs, deliveries = _build(_clique(4), p=1.0, q=1.0)
        engine.schedule(0.05, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        total_dupes = sum(m.stats.duplicates_dropped for m in macs)
        assert total_dupes > 0
        # Each node forwards at most once: <= 3 forwards + 1 source send.
        total_sent = sum(m.stats.data_sent for m in macs)
        assert total_sent <= 4


class TestBeacons:
    def test_beacon_duty_sends_one_per_interval(self):
        engine = Engine()
        topology = _clique(2)
        channel = Channel(engine, topology, BIT_RATE)
        macs = []
        for node_id in range(2):
            radio = RadioEnergyModel(MICA2)
            agent = PBBFAgent(PBBFParams.psm(), random.Random(node_id))
            mac = PBBFMac(
                engine, channel, node_id, agent, radio,
                deliver=lambda pkt, t: None,
                rng=random.Random(10 + node_id),
                config=MacConfig(send_beacons=True),
                beacon_duty=lambda bi, node_id=node_id: bi % 2 == node_id,
            )
            channel.attach(node_id, _Node(radio, mac))
            macs.append(mac)
        for mac in macs:
            mac.start()
        engine.run(until=40.0)
        assert macs[0].stats.beacons_sent == 2  # BIs 0 and 2
        assert macs[1].stats.beacons_sent == 2  # BIs 1 and 3
        assert channel.stats.by_kind.get("beacon") == 4


class TestLifecycle:
    def test_double_start_rejected(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        with pytest.raises(RuntimeError):
            macs[0].start()

    def test_collision_stat_counted(self):
        engine, _, macs, _ = _build(_clique(2), p=0.0, q=0.0)
        macs[0].handle_collision(_data(1))
        assert macs[0].stats.collisions_heard == 1
