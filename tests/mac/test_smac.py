"""Tests for the S-MAC-style scheduler with PBBF."""

import random
from typing import List, Tuple

import pytest

from repro.core.params import PBBFParams
from repro.core.pbbf import PBBFAgent
from repro.energy.model import MICA2, RadioEnergyModel, RadioState
from repro.mac.smac import SMacConfig, SMacPBBF
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


def _build(topology, p, q, seed=1):
    engine = Engine()
    channel = Channel(engine, topology, BIT_RATE)
    deliveries: List[Tuple[int, float]] = []
    macs = []
    for node_id in range(topology.n_nodes):
        radio = RadioEnergyModel(MICA2)
        agent = PBBFAgent(PBBFParams(p=p, q=q), random.Random(seed * 50 + node_id))
        mac = SMacPBBF(
            engine, channel, node_id, agent, radio,
            deliver=lambda pkt, t, node_id=node_id: deliveries.append((node_id, t)),
            rng=random.Random(seed * 70 + node_id),
        )
        channel.attach(node_id, _Node(radio, mac))
        macs.append(mac)
    for mac in macs:
        mac.start()
    return engine, macs, deliveries


def _data(origin, seqno=0):
    return Packet(
        kind=PacketKind.DATA, origin=origin, seqno=seqno,
        size_bytes=64,
    )


class TestSMacSchedule:
    def test_sleeps_after_listen_period(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.run(until=5.0)
        assert macs[0].radio.state is RadioState.SLEEP

    def test_q_one_stays_awake(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=1.0)
        engine.run(until=5.0)
        assert macs[0].radio.state is RadioState.LISTEN

    def test_wakes_at_next_frame(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.run(until=10.5)
        assert macs[0].radio.state is RadioState.LISTEN

    def test_duty_cycle_matches_config(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.run(until=100.0)
        joules = macs[0].radio.consumed_joules(100.0)
        expected = 10 * (1.0 * 0.030 + 9.0 * 3e-6)
        assert joules == pytest.approx(expected, rel=0.01)


class TestSMacBroadcast:
    def test_in_period_broadcast_floods_same_frame(self):
        # No announcement phase: a broadcast inside the listen period
        # floods hop by hop within the same period.
        engine, macs, deliveries = _build(_line(4), p=0.0, q=0.0)
        engine.schedule(0.01, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        times = dict(deliveries)
        assert set(times) == {1, 2, 3}
        assert all(t < 1.5 for t in times.values())

    def test_out_of_period_broadcast_waits(self):
        engine, macs, deliveries = _build(_line(2), p=0.0, q=0.0)
        engine.schedule(5.0, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=15.0)
        assert deliveries
        assert 10.0 < deliveries[0][1] < 11.5

    def test_immediate_forward_dies_without_q(self):
        # A relay receiving near the end of the listen period queues the
        # forward; at p=1 it forwards immediately into a sleeping network.
        engine, macs, deliveries = _build(_line(3), p=1.0, q=0.0)
        # Inject at node 0 late in the listen period so node 1's immediate
        # relay lands in the sleep period.
        engine.schedule(0.93, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=25.0)
        receivers = {node for node, _ in deliveries}
        assert 1 in receivers
        assert 2 not in receivers

    def test_q_rescues_immediate_forward(self):
        engine, macs, deliveries = _build(_line(3), p=1.0, q=1.0)
        engine.schedule(0.93, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=25.0)
        receivers = {node for node, _ in deliveries}
        assert receivers == {1, 2}

    def test_echo_dropped_as_duplicate(self):
        engine, macs, deliveries = _build(_line(2), p=0.0, q=0.0)
        engine.schedule(0.01, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        assert [node for node, _ in deliveries] == [1]
        assert macs[0].stats.duplicates_dropped == 1

    def test_double_start_rejected(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        with pytest.raises(RuntimeError):
            macs[0].start()


class TestSMacConfig:
    def test_listen_must_fit_in_frame(self):
        with pytest.raises(ValueError):
            SMacConfig(frame_time=1.0, listen_time=1.0)

    def test_sleep_time_derived(self):
        assert SMacConfig(10.0, 1.0).sleep_time == 9.0
