"""The shared wireless medium.

Models the three PHY effects the paper's Section 5 evaluation adds on top
of the idealized analysis:

* **finite transmission time** — a packet occupies the channel for
  ``size * 8 / bit_rate`` seconds (~26.7 ms for 64 bytes at 19.2 kbps);
* **collisions** — a reception is corrupted when any other audible
  transmission overlaps it in time at the receiver;
* **sleeping / deaf receivers** — a node only receives when its radio was
  continuously in a listening state for the whole transmission
  (half-duplex: its own transmissions make it deaf, as does sleep).

The channel is topology-driven: audibility, for reception, carrier sense
and collisions alike, is one-hop adjacency in the
:class:`~repro.net.topology.Topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.net.packet import Packet
from repro.net.propagation import LossModel
from repro.net.topology import Topology
from repro.sim.engine import Engine
from repro.util.validation import check_positive


class ChannelListener(Protocol):
    """What the channel needs from a node's receive path."""

    def is_listening_interval(self, start: float, end: float) -> bool:
        """Was the radio continuously able to receive over ``[start, end]``?"""

    def on_receive(self, packet: Packet) -> None:
        """Deliver a cleanly received packet."""

    def on_collision(self, packet: Packet) -> None:
        """Notify that a packet addressed this way was corrupted."""


@dataclass
class Transmission:
    """One on-air transmission."""

    sender: int
    packet: Packet
    start: float
    end: float

    def overlaps(self, start: float, end: float) -> bool:
        """True when this transmission overlaps the open interval (start, end)."""
        return self.start < end and self.end > start


@dataclass
class ChannelStats:
    """Aggregate medium statistics for one simulation run."""

    transmissions: int = 0
    deliveries: int = 0
    collisions: int = 0
    missed_asleep: int = 0
    lost_random: int = 0
    #: Per-kind transmission counts, keyed by ``PacketKind.value``.
    by_kind: Dict[str, int] = field(default_factory=dict)


class Channel:
    """Broadcast medium over a fixed topology.

    Parameters
    ----------
    engine:
        The simulation engine supplying the clock and scheduling.
    topology:
        Adjacency: a transmission by ``u`` is audible (decodable, sensed
        and able to collide) exactly at ``topology.neighbors(u)``.
    bit_rate_bps:
        Channel bit rate (the paper uses 19.2 kbps, the Mica2 rate).
    loss_model:
        Optional independent per-reception loss (failure injection);
        lossless by default.
    """

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        bit_rate_bps: float,
        loss_model: Optional[LossModel] = None,
    ) -> None:
        check_positive("bit_rate_bps", bit_rate_bps)
        self._engine = engine
        self._topology = topology
        self.bit_rate_bps = float(bit_rate_bps)
        self._loss_model = loss_model if loss_model is not None else LossModel(0.0)
        self._listeners: Dict[int, ChannelListener] = {}
        self._recent: List[Transmission] = []
        self._max_duration_seen = 0.0
        self._lookback = 0.0
        self.stats = ChannelStats()

    @property
    def topology(self) -> Topology:
        """The topology whose adjacency decides who hears whom."""
        return self._topology

    def attach(self, node_id: int, listener: ChannelListener) -> None:
        """Register the receive path for ``node_id``."""
        if not 0 <= node_id < self._topology.n_nodes:
            raise IndexError(f"node {node_id} outside topology")
        self._listeners[node_id] = listener

    def register_lookback(self, lookback: float) -> None:
        """Keep finished transmissions queryable ``lookback`` s after now.

        Each CSMA transmitter registers its
        :attr:`~repro.mac.csma.CsmaConfig.lookback` at construction, so
        the channel retains frames for the longest look-back of any MAC
        attached to it.
        """
        self._lookback = max(self._lookback, lookback)

    def packet_duration(self, packet: Packet) -> float:
        """On-air time of ``packet`` on this channel."""
        return packet.duration(self.bit_rate_bps)

    def transmit(self, sender: int, packet: Packet) -> Transmission:
        """Start transmitting ``packet`` from ``sender`` at the current time.

        Delivery (or corruption) at each in-range listener is resolved when
        the transmission ends.  The caller is responsible for putting the
        sender's radio in the TX state for the duration (the energy model
        and half-duplex behaviour depend on it).
        """
        now = self._engine.now
        duration = self.packet_duration(packet)
        transmission = Transmission(sender, packet, now, now + duration)
        self._recent.append(transmission)
        self._max_duration_seen = max(self._max_duration_seen, duration)
        self.stats.transmissions += 1
        kind = packet.kind.value
        self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        self._engine.schedule(duration, lambda: self._complete(transmission))
        return transmission

    def is_busy(self, node_id: int) -> bool:
        """Carrier sense: is any transmission audible at ``node_id`` now?"""
        now = self._engine.now
        audible = self._topology.neighbors(node_id)
        return any(
            tx.start <= now < tx.end
            and (tx.sender in audible or tx.sender == node_id)
            for tx in self._recent
        )

    def busy_during(self, node_id: int, start: float, end: float) -> bool:
        """Was any transmission audible at ``node_id`` during ``[start, end]``?

        Supports CSMA's "medium stayed idle through DIFS + backoff" check:
        the MAC records when its backoff countdown began and asks, at fire
        time, whether anything was heard since.  Only transmissions within
        the channel's retention horizon are considered: a frame stays
        until it ended more than ``max(2 × longest airtime seen, longest
        registered lookback)`` before the last transmission completed.
        That covers every interval a MAC can legitimately ask about: the
        longest is the CSMA countdown, bounded by the
        :attr:`~repro.mac.csma.CsmaConfig.lookback` every
        :class:`~repro.mac.csma.CsmaTransmitter` registers (69 ms at the
        defaults, beyond twice the longest packet airtime).
        """
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        audible = self._topology.neighbors(node_id)
        return any(
            (tx.sender in audible or tx.sender == node_id)
            and tx.overlaps(start, end)
            for tx in self._recent
        )

    def busy_until(self, node_id: int) -> float:
        """Latest end time of transmissions currently audible at ``node_id``.

        Returns the current time when the medium is idle, so callers can
        always wait ``max(0, busy_until - now)`` before retrying.
        """
        now = self._engine.now
        audible = self._topology.neighbors(node_id)
        latest = now
        for tx in self._recent:
            if tx.start <= now < tx.end and (tx.sender in audible or tx.sender == node_id):
                latest = max(latest, tx.end)
        return latest

    # -- internal ------------------------------------------------------------

    def _complete(self, transmission: Transmission) -> None:
        """Resolve receptions when ``transmission`` leaves the air."""
        packet = transmission.packet
        for receiver in self._topology.neighbors(transmission.sender):
            listener = self._listeners.get(receiver)
            if listener is None:
                continue
            if not listener.is_listening_interval(transmission.start, transmission.end):
                self.stats.missed_asleep += 1
                continue
            if self._corrupted_at(transmission, receiver):
                self.stats.collisions += 1
                listener.on_collision(packet)
                continue
            if not self._loss_model.delivers():
                self.stats.lost_random += 1
                continue
            self.stats.deliveries += 1
            listener.on_receive(packet)
        self._prune()

    def _corrupted_at(self, transmission: Transmission, receiver: int) -> bool:
        """Did any other audible transmission overlap this one at ``receiver``?"""
        audible = self._topology.neighbors(receiver)
        for other in self._recent:
            if other is transmission:
                continue
            if other.sender != receiver and other.sender not in audible:
                continue
            if other.overlaps(transmission.start, transmission.end):
                return True
        return False

    def _prune(self) -> None:
        """Drop transmissions no query can reach any more.

        Receptions look back one airtime and carrier sense one registered
        lookback, so frames that ended longer ago than either are gone.
        """
        keep_for = max(2.0 * self._max_duration_seen, self._lookback)
        horizon = self._engine.now - keep_for
        if any(tx.end < horizon for tx in self._recent):
            self._recent = [tx for tx in self._recent if tx.end >= horizon]
