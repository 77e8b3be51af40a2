"""CSMA/CA broadcast transmitter (802.11 DCF, broadcast subset).

Broadcast frames in 802.11 DCF carry no RTS/CTS, no ACK and no retries: the
sender waits for the medium to be idle for DIFS, counts down a random
backoff, and transmits once.  This module implements that discipline over
:class:`~repro.net.channel.Channel`:

* one transmission in flight per node; queued frames go out FIFO;
* each frame may carry a *gate* — an earliest-allowed-start time that the
  owning MAC recomputes on demand (used to keep data frames out of ATIM
  windows, per the PSM rule the paper notes in Section 3);
* the medium must be continuously idle from the start of the DIFS+backoff
  countdown to the fire instant (checked via
  :meth:`~repro.net.channel.Channel.busy_during`); any interruption
  re-samples a fresh backoff once the medium frees up.

Collisions still happen — exactly as they should — when two nodes' backoff
countdowns expire closer together than carrier sensing can resolve, or when
hidden terminals cannot hear each other at all.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.net.channel import Channel
from repro.net.packet import Packet
from repro.sim.engine import Engine, EventHandle
from repro.util.validation import check_non_negative, check_positive, check_positive_int

#: Gate callback: given a packet, the earliest absolute time its
#: transmission may *start* (the MAC re-evaluates this as windows move).
GateFn = Callable[[Packet], float]

#: Called with the packet when its transmission completes.
SentCallback = Callable[[Packet], None]


@dataclass(frozen=True)
class CsmaConfig:
    """Contention timing.

    The defaults are scaled for the paper's 19.2 kbps sensor radios (a
    64-byte frame occupies ~26.7 ms of airtime, so millisecond-scale slots
    keep backoff meaningful without dwarfing the frame itself).
    """

    slot_time: float = 0.002
    difs: float = 0.005
    contention_window: int = 32

    def __post_init__(self) -> None:
        check_positive("slot_time", self.slot_time)
        check_non_negative("difs", self.difs)
        check_positive_int("contention_window", self.contention_window)

    @property
    def lookback(self) -> float:
        """How far back (s) any carrier-sense query of this MAC reaches.

        The longest query is the fire-time ``busy_during`` check over a
        DIFS + backoff countdown, at most DIFS + (cw - 1) slots (67 ms at
        the defaults).  The bound adds one more slot, so the rounding of
        ``countdown_start + wait`` can never push a query past it.
        """
        return self.difs + self.contention_window * self.slot_time


@dataclass
class _QueuedFrame:
    packet: Packet
    gate: Optional[GateFn]
    on_sent: Optional[SentCallback]


class CsmaTransmitter:
    """Per-node CSMA/CA engine for broadcast frames.

    Parameters
    ----------
    engine / channel:
        Simulation clock and shared medium.
    node_id:
        The transmitting node.
    rng:
        Backoff randomness (node-specific stream).
    begin_tx / end_tx:
        Radio hooks: ``begin_tx()`` is invoked at the instant the frame
        hits the air (owner must put the radio in TX), ``end_tx()`` when
        it leaves the air (owner restores LISTEN/SLEEP as its schedule
        dictates).
    config:
        Contention timing.
    """

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        node_id: int,
        rng: random.Random,
        begin_tx: Callable[[], None],
        end_tx: Callable[[], None],
        config: Optional[CsmaConfig] = None,
    ) -> None:
        self._engine = engine
        self._channel = channel
        self._node_id = node_id
        self._rng = rng
        self._begin_tx = begin_tx
        self._end_tx = end_tx
        self.config = config if config is not None else CsmaConfig()
        channel.register_lookback(self.config.lookback)
        self._queue: Deque[_QueuedFrame] = deque()
        self._pending_event: Optional[EventHandle] = None
        self._transmitting = False
        self.frames_sent = 0
        self.backoff_restarts = 0

    def enqueue(
        self,
        packet: Packet,
        gate: Optional[GateFn] = None,
        on_sent: Optional[SentCallback] = None,
    ) -> None:
        """Queue ``packet`` for transmission.

        ``gate`` (if given) is re-evaluated every attempt; transmission
        never starts before the time it returns.
        """
        self._queue.append(_QueuedFrame(packet, gate, on_sent))
        self._kick()

    def has_pending(self) -> bool:
        """True while any frame is queued or in flight."""
        return bool(self._queue) or self._transmitting

    @property
    def queue_length(self) -> int:
        """Frames waiting (not counting one in flight)."""
        return len(self._queue)

    def cancel_all(self) -> None:
        """Drop every queued frame (node failure injection)."""
        self._queue.clear()
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None

    # -- internal ------------------------------------------------------------

    def _kick(self) -> None:
        """Start contending for the head frame if nothing is in progress."""
        if self._transmitting or self._pending_event is not None or not self._queue:
            return
        self._attempt()

    def _attempt(self) -> None:
        """Begin (or re-begin) a DIFS + backoff countdown for the head frame."""
        self._pending_event = None
        if not self._queue:
            return
        frame = self._queue[0]
        now = self._engine.now
        gate_time = frame.gate(frame.packet) if frame.gate is not None else now
        if gate_time > now:
            self._pending_event = self._engine.schedule(
                gate_time - now, self._attempt
            )
            return
        if self._channel.is_busy(self._node_id):
            # Defer until the medium frees, plus a slot of desynchronising
            # jitter so queued contenders do not all re-check simultaneously.
            resume = self._channel.busy_until(self._node_id) - now
            jitter = self._rng.random() * self.config.slot_time
            self._pending_event = self._engine.schedule(
                resume + jitter, self._attempt
            )
            return
        wait = (
            self.config.difs
            + self._rng.randrange(self.config.contention_window)
            * self.config.slot_time
        )
        countdown_start = now
        self._pending_event = self._engine.schedule(
            wait, lambda: self._fire(countdown_start)
        )

    def _fire(self, countdown_start: float) -> None:
        """End of backoff: transmit if the medium stayed idle throughout."""
        self._pending_event = None
        if not self._queue:
            return
        frame = self._queue[0]
        now = self._engine.now
        gate_time = frame.gate(frame.packet) if frame.gate is not None else now
        if gate_time > now:
            self._attempt()
            return
        if self._channel.busy_during(self._node_id, countdown_start, now):
            self.backoff_restarts += 1
            self._attempt()
            return
        self._queue.popleft()
        self._transmitting = True
        self._begin_tx()
        transmission = self._channel.transmit(self._node_id, frame.packet)
        duration = transmission.end - transmission.start
        self._engine.schedule(duration, lambda: self._complete(frame))

    def _complete(self, frame: _QueuedFrame) -> None:
        self._transmitting = False
        self.frames_sent += 1
        self._end_tx()
        if frame.on_sent is not None:
            frame.on_sent(frame.packet)
        self._kick()
