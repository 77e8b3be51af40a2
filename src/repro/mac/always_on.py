"""The "NO PSM" baseline: always-on radios, plain flooding.

No beacon intervals, no ATIM windows, no sleeping: every node keeps its
radio listening at all times and re-broadcasts each new packet immediately
(classic flooding over CSMA/CA).  This is the paper's upper-left corner of
the trade-off space — minimum latency, maximum energy — against which PSM
and PBBF are compared in every figure.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.energy.model import RadioEnergyModel, RadioState
from repro.mac.base import DeliveryCallback, MacStats
from repro.mac.csma import CsmaConfig, CsmaTransmitter
from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine


class AlwaysOnMac:
    """Flooding MAC with an always-listening radio."""

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        node_id: int,
        radio: RadioEnergyModel,
        deliver: DeliveryCallback,
        rng: random.Random,
        csma_config: Optional[CsmaConfig] = None,
    ) -> None:
        self._engine = engine
        self.node_id = node_id
        self.radio = radio
        self._deliver = deliver
        self.stats = MacStats()
        self._seen: set = set()
        self._csma = CsmaTransmitter(
            engine,
            channel,
            node_id,
            rng,
            begin_tx=self._begin_tx,
            end_tx=self._end_tx,
            config=csma_config,
        )
        self._started = False
        self._stopped = False

    def start(self) -> None:
        """Bring the radio up (no schedule to run)."""
        if self._started:
            raise RuntimeError(f"MAC of node {self.node_id} already started")
        self._started = True
        self.radio.set_state(RadioState.LISTEN, self._engine.now)

    def stop(self) -> None:
        """Permanently silence this node (node-failure injection)."""
        if self._stopped:
            return
        self._stopped = True
        self._csma.cancel_all()
        if self.radio.state is not RadioState.SLEEP:
            self.radio.set_state(RadioState.SLEEP, self._engine.now)

    def broadcast(self, packet: Packet) -> None:
        """Transmit an application broadcast as soon as CSMA allows."""
        if self._stopped:
            return
        self._seen.add(packet.broadcast_id)
        self._csma.enqueue(packet, on_sent=self._count_data)

    def handle_receive(self, packet: Packet) -> None:
        """Deliver and re-flood each new data packet."""
        if self._stopped:
            return
        if packet.kind is not PacketKind.DATA:
            return  # no beacons/ATIMs exist in this mode; ignore defensively
        if packet.broadcast_id in self._seen:
            self.stats.duplicates_dropped += 1
            return
        self._seen.add(packet.broadcast_id)
        self.stats.data_received += 1
        self._deliver(packet, self._engine.now)
        self._csma.enqueue(packet, on_sent=self._count_data)

    def handle_collision(self, packet: Packet) -> None:
        """A frame addressed this way was corrupted by overlap."""
        self.stats.collisions_heard += 1

    def _begin_tx(self) -> None:
        self.radio.set_state(RadioState.TX, self._engine.now)

    def _end_tx(self) -> None:
        state = RadioState.SLEEP if self._stopped else RadioState.LISTEN
        self.radio.set_state(state, self._engine.now)

    def _count_data(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.immediate_sends += 1
