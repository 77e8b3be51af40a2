"""Network substrate: topologies, packets, propagation, and the channel.

This package supplies everything below the MAC layer:

* :mod:`repro.net.topology` -- node placement and connectivity.  The paper
  uses two families: square lattices for the Section 4 analysis (75x75 by
  default) and uniform-random deployments of N=50 nodes whose density
  ``delta = pi * R^2 * N / A`` is the Section 5 control variable.
* :mod:`repro.net.packet` -- the frame types exchanged by the protocols
  (data broadcasts, PSM beacons, ATIM announcements).
* :mod:`repro.net.propagation` -- the optional independent per-reception
  loss injector (audibility itself is topology adjacency).
* :mod:`repro.net.channel` -- the shared wireless medium for the detailed
  simulator: half-duplex transceivers, carrier sensing, and corruption of
  overlapping transmissions (the collisions whose effect Section 5 studies).
"""

from repro.net.channel import Channel, ChannelListener, Transmission
from repro.net.packet import Packet, PacketKind
from repro.net.propagation import LossModel
from repro.net.topology import (
    GridTopology,
    RandomTopology,
    Topology,
    area_for_density,
    density_for_area,
)

__all__ = [
    "Channel",
    "ChannelListener",
    "GridTopology",
    "LossModel",
    "Packet",
    "PacketKind",
    "RandomTopology",
    "Topology",
    "Transmission",
    "area_for_density",
    "density_for_area",
]
