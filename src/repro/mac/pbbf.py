"""IEEE 802.11 PSM with PBBF integrated (the paper's Figure 2 MAC).

Behaviour per beacon interval (BI), mirroring 802.11 PSM + Figure 3:

1. **BI start** — every node wakes (perfect synchronisation, as the paper
   assumes).  One designated node transmits the synchronisation beacon.
   Nodes holding queued *normal* broadcasts contend to send a broadcast
   ATIM inside the ATIM window.
2. **ATIM window end** — the Sleep-Decision-Handler runs: a node stays
   awake for the rest of the BI when it announced data (ATIM sent), was
   announced to (ATIM received), is mid-contention for an immediate
   forward, or its q-coin came up heads; otherwise it sleeps until the
   next BI.
3. **Data exchange** — announced broadcasts are transmitted right after
   the window (data frames are never sent inside the window; the CSMA gate
   enforces it).  Every receiver runs Figure 3's Receive-Broadcast: new
   packets are forwarded *immediately* with probability p — heard only by
   whoever is still awake — or queued for announcement in the next window.

Plain 802.11 PSM is exactly this MAC with ``p = q = 0``; the paper makes
the same identification.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional

from repro.core.pbbf import ForwardingDecision, PBBFAgent, SleepDecision
from repro.energy.model import RadioEnergyModel, RadioState
from repro.mac.base import DeliveryCallback, MacConfig, MacStats
from repro.mac.csma import CsmaConfig, CsmaTransmitter
from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine


# -- pure slot geometry ---------------------------------------------------------
#
# The beacon-interval arithmetic is shared between this event-driven MAC and
# the seed-batched kernel (repro.detailed.batched).  Both must agree
# float-for-float — interval indices come from the same floor division and
# interval boundaries from the same multiply-add — so the formulas live here
# as pure functions of (time, offset, config scalars) and the MAC delegates.


def bi_index_at(now: float, clock_offset: float, beacon_interval: float) -> int:
    """Index of the beacon interval containing ``now``.

    Interval k spans ``[offset + k*BI, offset + (k+1)*BI)`` in the node's
    (possibly skewed) local schedule.
    """
    return int(math.floor((now - clock_offset) / beacon_interval))


def bi_start_time(bi: int, clock_offset: float, beacon_interval: float) -> float:
    """Absolute start time of beacon interval ``bi``."""
    return bi * beacon_interval + clock_offset


def in_atim_window_at(
    now: float, clock_offset: float, beacon_interval: float, atim_window: float
) -> bool:
    """Is ``now`` inside an ATIM window of the given schedule?"""
    bi = bi_index_at(now, clock_offset, beacon_interval)
    phase = now - bi_start_time(bi, clock_offset, beacon_interval)
    return phase < atim_window


def data_gate_at(
    now: float, clock_offset: float, beacon_interval: float, atim_window: float
) -> float:
    """Earliest start for a data frame: never inside an ATIM window."""
    bi_start = bi_start_time(
        bi_index_at(now, clock_offset, beacon_interval), clock_offset, beacon_interval
    )
    if now - bi_start < atim_window:
        return bi_start + atim_window
    return now


class PBBFMac:
    """One node's PSM + PBBF MAC.

    Parameters
    ----------
    engine / channel:
        Simulation clock and the shared medium.
    node_id:
        This node.
    agent:
        The node's :class:`~repro.core.pbbf.PBBFAgent` (p/q coins plus
        duplicate suppression).  Pass ``PBBFParams.psm()`` for plain PSM.
    radio:
        The node's radio state machine / energy meter.
    deliver:
        Upward callback invoked once per *new* data packet.
    rng:
        Node-specific randomness for CSMA backoff.
    config / csma_config:
        Frame timing and contention parameters.
    beacon_duty:
        ``beacon_duty(bi_index) -> bool`` — is this node the beacon sender
        for that interval?  Defaults to never (the simulator wires up a
        round-robin so each BI has exactly one sender).
    clock_offset:
        Failure injection: this node's schedule runs ``clock_offset``
        seconds late relative to the network epoch.  The paper assumes
        perfect synchronisation (its Section 5 discussion); non-zero
        offsets desynchronise ATIM windows and model sync failure.
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
        config: Optional[MacConfig] = None,
        csma_config: Optional[CsmaConfig] = None,
        beacon_duty: Optional[Callable[[int], bool]] = None,
        clock_offset: float = 0.0,
    ) -> None:
        self._engine = engine
        self._channel = channel
        self.node_id = node_id
        self.agent = agent
        self.radio = radio
        self._deliver = deliver
        self.config = config if config is not None else MacConfig()
        self._beacon_duty = beacon_duty if beacon_duty is not None else lambda bi: False
        self.stats = MacStats()
        self._csma = CsmaTransmitter(
            engine,
            channel,
            node_id,
            rng,
            begin_tx=self._begin_tx,
            end_tx=self._end_tx,
            config=csma_config,
        )
        self._normal_queue: List[Packet] = []
        self._bi_index = -1
        self._announced_tx = False
        self._announced_rx = False
        self._awake_this_bi = True
        self._started = False
        self._stopped = False
        self._clock_offset = float(clock_offset) % self.config.beacon_interval

    # -- schedule geometry ----------------------------------------------------

    def current_bi(self) -> int:
        """Index of the beacon interval containing the current time.

        Interval k spans ``[offset + k*BI, offset + (k+1)*BI)`` in this
        node's (possibly skewed) local schedule.
        """
        return bi_index_at(
            self._engine.now, self._clock_offset, self.config.beacon_interval
        )

    def _bi_start_time(self, bi: int) -> float:
        return bi_start_time(bi, self._clock_offset, self.config.beacon_interval)

    def in_atim_window(self) -> bool:
        """Is the current instant inside an ATIM window?"""
        return in_atim_window_at(
            self._engine.now,
            self._clock_offset,
            self.config.beacon_interval,
            self.config.atim_window,
        )

    def _data_gate(self, packet: Packet) -> float:
        """Earliest start for a data frame: never inside an ATIM window."""
        return data_gate_at(
            self._engine.now,
            self._clock_offset,
            self.config.beacon_interval,
            self.config.atim_window,
        )

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Begin the beacon-interval loop (call once, at simulation start)."""
        if self._started:
            raise RuntimeError(f"MAC of node {self.node_id} already started")
        self._started = True
        if self._clock_offset > 0.0 and self._engine.now < self._clock_offset:
            # Skewed node: its first local interval opens offset seconds
            # late; the radio listens in the meantime.
            self._engine.schedule(
                self._clock_offset - self._engine.now, self._on_bi_start
            )
            return
        self._on_bi_start()

    def stop(self) -> None:
        """Permanently silence this node (node-failure injection).

        The radio sleeps forever, queued frames are dropped, and future
        schedule events become no-ops.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        self._csma.cancel_all()
        self._normal_queue.clear()
        if self.radio.state is not RadioState.SLEEP:
            self.radio.set_state(RadioState.SLEEP, self._engine.now)

    def broadcast(self, packet: Packet) -> None:
        """Accept an application broadcast.

        Packets arriving inside the ATIM window are announced in that same
        window and sent right after it (the paper's sources behave this
        way: "new packets always arrive at the source during the ATIM
        window, so they are sent with a delay of about AW").  Packets
        arriving later wait for the next window.
        """
        if self._stopped:
            return
        # Echoes of our own broadcast must be dropped as duplicates.
        self.agent.mark_seen(packet.broadcast_id)
        self._normal_queue.append(packet)
        if self.in_atim_window():
            self._announce_pending()

    # -- beacon interval machinery -----------------------------------------------

    def _on_bi_start(self) -> None:
        if self._stopped:
            return
        now = self._engine.now
        self._bi_index = self.current_bi()
        self._announced_tx = False
        self._announced_rx = False
        self._awake_this_bi = True  # everyone is awake during the window
        if self.radio.state is not RadioState.TX:
            self.radio.set_state(RadioState.LISTEN, now)
        if self.config.send_beacons and self._beacon_duty(self._bi_index):
            beacon = Packet(
                kind=PacketKind.BEACON,
                origin=self.node_id,
                seqno=self._bi_index,
                size_bytes=self.config.beacon_size_bytes,
            )
            self._csma.enqueue(beacon, on_sent=self._count_beacon)
        if self._normal_queue:
            self._announce_pending()
        self._engine.schedule(self.config.atim_window, self._on_window_end)
        self._engine.schedule(self.config.beacon_interval, self._on_bi_start)

    def _announce_pending(self) -> None:
        """Send one broadcast ATIM and release queued data to CSMA."""
        if not self._normal_queue:
            return
        if not self._announced_tx:
            atim = Packet(
                kind=PacketKind.ATIM,
                origin=self.node_id,
                seqno=self._bi_index,
                size_bytes=self.config.atim_size_bytes,
            )
            self._csma.enqueue(atim, on_sent=self._count_atim)
            self._announced_tx = True
        queued, self._normal_queue = self._normal_queue, []
        for packet in queued:
            self._csma.enqueue(
                packet, gate=self._data_gate, on_sent=self._count_normal_data
            )

    def _on_window_end(self) -> None:
        """Figure 3's Sleep-Decision-Handler, at the end of active time."""
        if self._stopped:
            return
        decision = self.agent.sleep_decision(
            data_to_send=self._csma.has_pending(),
            data_to_recv=self._announced_rx,
        )
        self._awake_this_bi = decision is SleepDecision.STAY_AWAKE
        if self.radio.state is not RadioState.TX:
            self.radio.set_state(self._scheduled_state(), self._engine.now)

    def _scheduled_state(self) -> RadioState:
        """The radio state the schedule calls for right now (excluding TX)."""
        if self._stopped:
            return RadioState.SLEEP
        if self.in_atim_window():
            return RadioState.LISTEN
        if self._awake_this_bi or self._csma.has_pending():
            return RadioState.LISTEN
        return RadioState.SLEEP

    # -- receive path ---------------------------------------------------------

    def handle_receive(self, packet: Packet) -> None:
        """Process a cleanly decoded frame."""
        if self._stopped:
            return
        if packet.kind is PacketKind.BEACON:
            return  # synchronisation is assumed perfect
        if packet.kind is PacketKind.ATIM:
            self.stats.atims_received += 1
            self._announced_rx = True
            return
        decision = self.agent.receive_broadcast(packet.broadcast_id)
        if decision is ForwardingDecision.DUPLICATE:
            self.stats.duplicates_dropped += 1
            return
        self.stats.data_received += 1
        self._deliver(packet, self._engine.now)
        if decision is ForwardingDecision.IMMEDIATE:
            self._csma.enqueue(
                packet, gate=self._data_gate, on_sent=self._count_immediate_data
            )
        else:
            self._normal_queue.append(packet)
            if self.in_atim_window():
                self._announce_pending()

    def handle_collision(self, packet: Packet) -> None:
        """A frame addressed this way was corrupted by overlap."""
        self.stats.collisions_heard += 1

    # -- radio hooks -----------------------------------------------------------

    def _begin_tx(self) -> None:
        self.radio.set_state(RadioState.TX, self._engine.now)

    def _end_tx(self) -> None:
        self.radio.set_state(self._scheduled_state(), self._engine.now)

    # -- stats hooks ------------------------------------------------------------

    def _count_beacon(self, packet: Packet) -> None:
        self.stats.beacons_sent += 1

    def _count_atim(self, packet: Packet) -> None:
        self.stats.atims_sent += 1

    def _count_normal_data(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.normal_sends += 1

    def _count_immediate_data(self, packet: Packet) -> None:
        self.stats.data_sent += 1
        self.stats.immediate_sends += 1
