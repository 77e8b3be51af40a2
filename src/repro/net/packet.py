"""Packet and frame definitions.

The detailed simulator exchanges three frame kinds, mirroring the paper's
IEEE 802.11 PSM setting (Figures 1-2):

* ``BEACON`` -- the synchronisation beacon opening each beacon interval;
* ``ATIM`` -- Ad-hoc Traffic Indication Message announcing a pending
  broadcast inside the ATIM window;
* ``DATA`` -- the broadcast payload itself.  For the code-distribution
  application each data packet carries the ``k`` most recent updates
  generated at the source (Table 2 uses 64-byte packets with a 30-byte
  payload).

Transmission duration is ``size_bytes * 8 / bit_rate`` — at the paper's
19.2 kbps a 64-byte packet occupies the channel for ~26.7 ms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.util.validation import check_positive


class PacketKind(enum.Enum):
    """Frame type on the air."""

    DATA = "data"
    BEACON = "beacon"
    ATIM = "atim"


@dataclass(frozen=True)
class Packet:
    """An immutable frame.

    Frames are shared, never copied: a forwarding node re-sends the frame
    it received, and the channel records who is transmitting it.

    Attributes
    ----------
    kind:
        Frame type (data / beacon / ATIM).
    origin:
        Node id that originally generated the broadcast (the source for
        data packets; the transmitter itself for beacons and ATIMs).
    seqno:
        Source-assigned sequence number identifying the broadcast.  Nodes
        suppress duplicates on ``(origin, seqno)``.
    size_bytes:
        On-air size, including headers.
    updates:
        For code-distribution data packets: tuple of update ids carried
        (the ``k`` most recent at the source when the packet was built).
    """

    kind: PacketKind
    origin: int
    seqno: int
    size_bytes: int
    updates: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)

    @property
    def broadcast_id(self) -> Tuple[int, int]:
        """The duplicate-suppression key ``(origin, seqno)``."""
        return (self.origin, self.seqno)

    def duration(self, bit_rate_bps: float) -> float:
        """On-air time in seconds at ``bit_rate_bps``."""
        check_positive("bit_rate_bps", bit_rate_bps)
        return self.size_bytes * 8.0 / bit_rate_bps
