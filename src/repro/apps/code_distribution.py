"""The code-distribution workload (paper Section 5.1).

One node is the code-distribution source.  New updates are generated
*deterministically* at rate lambda; each broadcast packet carries the ``k``
most recent update ids, so a node that misses a packet can still recover
an update from the next k-1 packets (the paper presents k=1, where misses
are permanent; the general k is implemented and swept by an ablation
bench).

Generation times are aligned to fall inside ATIM windows — the paper notes
"new packets always arrive at the source during the ATIM window" — by
adding a small offset after each nominal arrival instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.mac.base import BroadcastMac
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)

#: Seconds from each nominal generation instant to the update's arrival at
#: the source, landing it inside the ATIM window that opens at that
#: instant.  The seed-batched detailed kernel generates at the same times.
DEFAULT_FIRST_OFFSET = 0.01


@dataclass(frozen=True)
class UpdateRecord:
    """One update generated at the source."""

    update_id: int
    generated_at: float


class CodeDistributionApp:
    """Generates updates at the source and records receptions everywhere.

    Parameters
    ----------
    engine:
        Simulation clock / scheduler.
    source:
        The code-distribution source node id.
    n_nodes:
        Network size (for coverage metrics).
    update_interval:
        Seconds between updates (``1 / lambda``).
    k:
        Updates carried per packet (Table 2 presents k = 1).
    packet_size_bytes:
        Total on-air packet size (Table 2: 64 bytes).
    first_offset:
        Delay from each nominal generation instant, used to land arrivals
        inside the ATIM window that opens at the same instant.
    """

    def __init__(
        self,
        engine: Engine,
        source: int,
        n_nodes: int,
        update_interval: float = 100.0,
        k: int = 1,
        packet_size_bytes: int = 64,
        first_offset: float = DEFAULT_FIRST_OFFSET,
    ) -> None:
        check_positive("update_interval", update_interval)
        check_positive_int("k", k)
        check_positive_int("packet_size_bytes", packet_size_bytes)
        check_non_negative("first_offset", first_offset)
        self._engine = engine
        self.source = source
        self.n_nodes = n_nodes
        self.update_interval = update_interval
        self.k = k
        self.packet_size_bytes = packet_size_bytes
        self.first_offset = first_offset
        self.updates: List[UpdateRecord] = []
        #: ``receptions[node][update_id] -> first reception time``.
        self.receptions: Dict[int, Dict[int, float]] = {
            node: {} for node in range(n_nodes)
        }
        self._source_mac: Optional[BroadcastMac] = None
        self._next_update_id = 0

    def bind_source_mac(self, mac: BroadcastMac) -> None:
        """Attach the MAC through which the source broadcasts."""
        self._source_mac = mac

    def delivery_callback(self, node_id: int) -> Callable[[Packet, float], None]:
        """The per-node callback a MAC invokes on each new data packet."""

        def _deliver(packet: Packet, t: float) -> None:
            records = self.receptions[node_id]
            for update_id in packet.updates:
                if update_id not in records:
                    records[update_id] = t

        return _deliver

    def start(self, duration: float) -> None:
        """Schedule update generation over ``[0, duration)``."""
        check_positive("duration", duration)
        if self._source_mac is None:
            raise RuntimeError("bind_source_mac() must be called before start()")
        t = self.first_offset
        while t < duration:
            self._engine.schedule_at(t, self._generate)
            t += self.update_interval

    @property
    def n_updates(self) -> int:
        """Updates generated so far."""
        return len(self.updates)

    def _generate(self) -> None:
        now = self._engine.now
        update_id = self._next_update_id
        self._next_update_id += 1
        self.updates.append(UpdateRecord(update_id, now))
        # The source trivially "has" its own update the moment it exists.
        self.receptions[self.source][update_id] = now
        recent = tuple(
            record.update_id for record in self.updates[-self.k:]
        )
        packet = Packet(
            kind=PacketKind.DATA,
            origin=self.source,
            seqno=update_id,
            size_bytes=self.packet_size_bytes,
            updates=recent,
        )
        assert self._source_mac is not None  # checked in start()
        self._source_mac.broadcast(packet)
