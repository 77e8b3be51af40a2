"""Tests for the T-MAC-style adaptive scheduler with PBBF."""

import random
from typing import List, Tuple

import pytest

from repro.core.params import PBBFParams
from repro.core.pbbf import PBBFAgent
from repro.energy.model import MICA2, RadioEnergyModel, RadioState
from repro.mac.tmac import TMacConfig, TMacPBBF
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
        mac = TMacPBBF(
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


class TestAdaptiveActivePeriod:
    def test_idle_frame_sleeps_after_timeout(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.run(until=1.0)
        # TA = 0.25 s of silence ends the active period well before 1 s.
        assert macs[0].radio.state is RadioState.SLEEP

    def test_idle_energy_below_fixed_schedule(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.run(until=100.0)
        joules = macs[0].radio.consumed_joules(100.0)
        # Fixed 1 s listen per 10 s frame would cost ~0.30 J; T-MAC's
        # adaptive ~0.25 s active slashes that.
        assert joules < 0.15

    def test_traffic_extends_active_period(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.schedule(0.10, lambda: macs[0].broadcast(_data(0, 0)))
        engine.schedule(0.30, lambda: macs[0].broadcast(_data(0, 1)))
        engine.run(until=35.0)
        busy_frame = macs[1].active_time_log[0]
        idle_frames = macs[1].active_time_log[1:]
        assert idle_frames
        assert busy_frame > max(idle_frames)

    def test_active_time_log_has_one_entry_per_frame(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        engine.run(until=50.0)
        assert len(macs[0].active_time_log) == 5


class TestTMacBroadcast:
    def test_active_period_flood(self):
        engine, macs, deliveries = _build(_line(4), p=0.0, q=0.0)
        engine.schedule(0.01, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=9.0)
        times = dict(deliveries)
        assert set(times) == {1, 2, 3}
        # Relays keep the active period alive: the whole flood completes
        # within the first frame.
        assert all(t < 2.0 for t in times.values())

    def test_out_of_period_broadcast_waits_for_next_frame(self):
        engine, macs, deliveries = _build(_line(2), p=0.0, q=0.0)
        engine.schedule(5.0, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=15.0)
        assert deliveries
        assert deliveries[0][1] > 10.0

    def test_q_one_keeps_node_receptive_between_frames(self):
        engine, macs, deliveries = _build(_line(3), p=1.0, q=1.0)
        engine.schedule(5.0, lambda: macs[0].broadcast(_data(0)))
        engine.run(until=25.0)
        receivers = {node for node, _ in deliveries}
        assert receivers == {1, 2}

    def test_double_start_rejected(self):
        engine, macs, _ = _build(_line(2), p=0.0, q=0.0)
        with pytest.raises(RuntimeError):
            macs[0].start()


class TestTMacConfig:
    def test_timeout_must_fit_in_frame(self):
        with pytest.raises(ValueError):
            TMacConfig(frame_time=1.0, activation_timeout=1.0)
