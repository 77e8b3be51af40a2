"""S-MAC-style sleep scheduling with PBBF integrated.

The paper stresses that PBBF "can be integrated into any sleep scheduling
protocol"; 802.11 PSM is used in the evaluation only because "it provides
a complete solution for broadcast".  This module demonstrates the claim on
an S-MAC-style scheduler [Ye, Heidemann, Estrin — the paper's ref 20]:

* time is divided into frames with a fixed listen/sleep split (S-MAC's
  virtual clustering is collapsed to one network-wide schedule, consistent
  with the paper's perfect-synchronisation assumption);
* broadcast data is transmitted *inside* the listen period directly — no
  ATIM announcement phase (S-MAC sends broadcast packets without RTS/CTS);
* queued broadcasts wait for the next listen period; PBBF's p-coin sends
  them immediately instead, and the q-coin keeps nodes awake through the
  sleep period to catch such sends (Figure 3 verbatim).

The latency anatomy differs from PSM: a normal forward waits for the next
*listen period start* rather than for an ATIM window to close, so S-MAC's
L2 is one frame where PSM's is a frame plus the window.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.pbbf import ForwardingDecision, PBBFAgent, SleepDecision
from repro.energy.model import RadioEnergyModel, RadioState
from repro.mac.base import DeliveryCallback, MacStats
from repro.mac.csma import CsmaConfig, CsmaTransmitter
from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.util.validation import check_positive


class SMacConfig:
    """S-MAC frame timing.

    ``listen_time`` plays the role of Tactive and ``frame_time`` of Tframe
    (defaults match Table 1 so results are comparable across schedulers).
    """

    def __init__(self, frame_time: float = 10.0, listen_time: float = 1.0) -> None:
        check_positive("frame_time", frame_time)
        check_positive("listen_time", listen_time)
        if listen_time >= frame_time:
            raise ValueError(
                f"listen_time ({listen_time}) must be < frame_time ({frame_time})"
            )
        self.frame_time = frame_time
        self.listen_time = listen_time

    @property
    def sleep_time(self) -> float:
        """Seconds per frame outside the listen period."""
        return self.frame_time - self.listen_time


class SMacPBBF:
    """One node's S-MAC-style scheduler with PBBF's p/q knobs.

    Interface-compatible with :class:`~repro.mac.pbbf.PBBFMac` (the
    :class:`~repro.detailed.node.SensorNode` composition works unchanged).
    """

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        node_id: int,
        agent: PBBFAgent,
        radio: RadioEnergyModel,
        deliver: DeliveryCallback,
        rng: random.Random,
        config: Optional[SMacConfig] = None,
        csma_config: Optional[CsmaConfig] = None,
    ) -> None:
        self._engine = engine
        self.node_id = node_id
        self.agent = agent
        self.radio = radio
        self._deliver = deliver
        self.config = config if config is not None else SMacConfig()
        self.stats = MacStats()
        self._csma = CsmaTransmitter(
            engine, channel, node_id, rng,
            begin_tx=self._begin_tx, end_tx=self._end_tx,
            config=csma_config,
        )
        self._pending: List[Packet] = []
        self._awake_this_frame = True
        self._started = False
        self._stopped = False

    # -- schedule geometry --------------------------------------------------

    def in_listen_period(self) -> bool:
        """Is the current instant inside a listen period?"""
        phase = self._engine.now % self.config.frame_time
        return phase < self.config.listen_time

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin the frame loop."""
        if self._started:
            raise RuntimeError(f"MAC of node {self.node_id} already started")
        self._started = True
        self._on_frame_start()

    def stop(self) -> None:
        """Permanently silence this node (node-failure injection)."""
        if self._stopped:
            return
        self._stopped = True
        self._csma.cancel_all()
        self._pending.clear()
        if self.radio.state is not RadioState.SLEEP:
            self.radio.set_state(RadioState.SLEEP, self._engine.now)

    def broadcast(self, packet: Packet) -> None:
        """Accept an application broadcast.

        Inside a listen period it is transmitted right away (S-MAC has no
        announcement phase); otherwise it waits for the next one.
        """
        if self._stopped:
            return
        self.agent.mark_seen(packet.broadcast_id)
        if self.in_listen_period():
            self._csma.enqueue(packet, on_sent=self._count_normal)
        else:
            self._pending.append(packet)

    # -- frame machinery -------------------------------------------------------

    def _on_frame_start(self) -> None:
        if self._stopped:
            return
        now = self._engine.now
        self._awake_this_frame = True
        if self.radio.state is not RadioState.TX:
            self.radio.set_state(RadioState.LISTEN, now)
        pending, self._pending = self._pending, []
        for packet in pending:
            self._csma.enqueue(packet, on_sent=self._count_normal)
        self._engine.schedule(self.config.listen_time, self._on_listen_end)
        self._engine.schedule(self.config.frame_time, self._on_frame_start)

    def _on_listen_end(self) -> None:
        if self._stopped:
            return
        decision = self.agent.sleep_decision(
            data_to_send=self._csma.has_pending(),
            data_to_recv=False,  # S-MAC broadcasts carry no announcements
        )
        self._awake_this_frame = decision is SleepDecision.STAY_AWAKE
        if self.radio.state is not RadioState.TX:
            self.radio.set_state(self._scheduled_state(), self._engine.now)

    def _scheduled_state(self) -> RadioState:
        if self._stopped:
            return RadioState.SLEEP
        if self.in_listen_period():
            return RadioState.LISTEN
        if self._awake_this_frame or self._csma.has_pending():
            return RadioState.LISTEN
        return RadioState.SLEEP

    # -- receive path -----------------------------------------------------------

    def handle_receive(self, packet: Packet) -> None:
        """Figure 3's Receive-Broadcast, S-MAC flavour."""
        if self._stopped:
            return
        if packet.kind is not PacketKind.DATA:
            return
        decision = self.agent.receive_broadcast(packet.broadcast_id)
        if decision is ForwardingDecision.DUPLICATE:
            self.stats.duplicates_dropped += 1
            return
        self.stats.data_received += 1
        self._deliver(packet, self._engine.now)
        if decision is ForwardingDecision.IMMEDIATE:
            self._csma.enqueue(packet, on_sent=self._count_immediate)
        elif self.in_listen_period():
            self._csma.enqueue(packet, on_sent=self._count_normal)
        else:
            self._pending.append(packet)

    def handle_collision(self, packet: Packet) -> None:
        """Corrupted frame heard."""
        self.stats.collisions_heard += 1

    # -- radio hooks ----------------------------------------------------------

    def _begin_tx(self) -> None:
        self.radio.set_state(RadioState.TX, self._engine.now)

    def _end_tx(self) -> None:
        self.radio.set_state(self._scheduled_state(), self._engine.now)

    def _count_normal(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.normal_sends += 1

    def _count_immediate(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.immediate_sends += 1
