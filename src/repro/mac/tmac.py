"""T-MAC-style adaptive sleep scheduling with PBBF integrated.

T-MAC [van Dam & Langendoen — the paper's ref 19] refines S-MAC by ending
the active period *adaptively*: a node goes to sleep once no activation
event (reception, transmission, carrier noise) has occurred for a timeout
TA, instead of staying up for a fixed listen time.  Idle frames therefore
cost a fraction of S-MAC's energy, while busy frames stretch to fit the
traffic ("nodes dynamically determine the length of active times based on
communication rates" — the paper's Section 2.2 description).

PBBF integrates exactly as elsewhere: the p-coin turns queued forwards
into immediate ones, and the q-coin keeps a node awake through a sleep
period it would otherwise spend sleeping.
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
from repro.sim.engine import Engine, EventHandle
from repro.util.validation import check_positive


class TMacConfig:
    """T-MAC frame timing.

    ``activation_timeout`` is TA: the active period ends TA seconds after
    the last activation event (but never before one TA has elapsed from
    the frame start).  The 0.25 s default is generous at 19.2 kbps (a full
    data frame plus contention fits several times over).
    """

    def __init__(
        self,
        frame_time: float = 10.0,
        activation_timeout: float = 0.25,
    ) -> None:
        check_positive("frame_time", frame_time)
        check_positive("activation_timeout", activation_timeout)
        if activation_timeout >= frame_time:
            raise ValueError(
                f"activation_timeout ({activation_timeout}) must be < "
                f"frame_time ({frame_time})"
            )
        self.frame_time = frame_time
        self.activation_timeout = activation_timeout


class TMacPBBF:
    """One node's T-MAC-style scheduler with PBBF's p/q knobs."""

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        node_id: int,
        agent: PBBFAgent,
        radio: RadioEnergyModel,
        deliver: DeliveryCallback,
        rng: random.Random,
        config: Optional[TMacConfig] = None,
        csma_config: Optional[CsmaConfig] = None,
    ) -> None:
        self._engine = engine
        self.node_id = node_id
        self.agent = agent
        self.radio = radio
        self._deliver = deliver
        self.config = config if config is not None else TMacConfig()
        self.stats = MacStats()
        self._csma = CsmaTransmitter(
            engine, channel, node_id, rng,
            begin_tx=self._begin_tx, end_tx=self._end_tx,
            config=csma_config,
        )
        self._pending: List[Packet] = []
        self._active = False  # becomes True at the first frame start
        self._stay_awake_frame = False
        self._timeout_event: Optional[EventHandle] = None
        self._started = False
        self._stopped = False
        #: Seconds of active time observed per frame (diagnostics; the
        #: adaptive-length claim is asserted on this in tests).
        self.active_time_log: List[float] = []
        self._frame_active_started = 0.0

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
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        if self.radio.state is not RadioState.SLEEP:
            self.radio.set_state(RadioState.SLEEP, self._engine.now)

    def broadcast(self, packet: Packet) -> None:
        """Accept an application broadcast (sent in the active period)."""
        if self._stopped:
            return
        self.agent.mark_seen(packet.broadcast_id)
        if self._active:
            self._csma.enqueue(packet, on_sent=self._count_normal)
            self._touch()
        else:
            self._pending.append(packet)

    # -- frame machinery -------------------------------------------------------

    def _on_frame_start(self) -> None:
        if self._stopped:
            return
        now = self._engine.now
        if self._active:
            # Close out the previous frame's stretch-to-fit active period.
            self.active_time_log.append(now - self._frame_active_started)
        self._active = True
        self._stay_awake_frame = False
        self._frame_active_started = now
        if self.radio.state is not RadioState.TX:
            self.radio.set_state(RadioState.LISTEN, now)
        pending, self._pending = self._pending, []
        for packet in pending:
            self._csma.enqueue(packet, on_sent=self._count_normal)
        self._arm_timeout()
        self._engine.schedule(self.config.frame_time, self._on_frame_start)

    def _arm_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        self._timeout_event = self._engine.schedule(
            self.config.activation_timeout, self._on_activation_timeout
        )

    def _touch(self) -> None:
        """An activation event: restart TA while in the active period."""
        if self._active:
            self._arm_timeout()

    def _on_activation_timeout(self) -> None:
        """TA expired with no activity: run the sleep decision."""
        self._timeout_event = None
        if self._stopped or not self._active:
            return
        if self._csma.has_pending():
            # Mid-contention (e.g. an immediate forward): stay active.
            self._arm_timeout()
            return
        self._active = False
        self.active_time_log.append(self._engine.now - self._frame_active_started)
        decision = self.agent.sleep_decision(data_to_send=False, data_to_recv=False)
        self._stay_awake_frame = decision is SleepDecision.STAY_AWAKE
        if self.radio.state is not RadioState.TX:
            self.radio.set_state(self._scheduled_state(), self._engine.now)

    def _scheduled_state(self) -> RadioState:
        if self._stopped:
            return RadioState.SLEEP
        if self._active or self._stay_awake_frame or self._csma.has_pending():
            return RadioState.LISTEN
        return RadioState.SLEEP

    # -- receive path -----------------------------------------------------------

    def handle_receive(self, packet: Packet) -> None:
        """Receive-Broadcast plus the T-MAC activation-timeout reset."""
        if self._stopped:
            return
        self._touch()
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
        elif self._active:
            self._csma.enqueue(packet, on_sent=self._count_normal)
        else:
            self._pending.append(packet)

    def handle_collision(self, packet: Packet) -> None:
        """Corrupted frame heard: still an activation event."""
        self.stats.collisions_heard += 1
        self._touch()

    # -- radio hooks ----------------------------------------------------------

    def _begin_tx(self) -> None:
        self.radio.set_state(RadioState.TX, self._engine.now)
        self._touch()

    def _end_tx(self) -> None:
        self.radio.set_state(self._scheduled_state(), self._engine.now)
        self._touch()

    def _count_normal(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.normal_sends += 1

    def _count_immediate(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.immediate_sends += 1
