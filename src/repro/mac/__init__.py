"""MAC layer: CSMA/CA, IEEE 802.11 PSM, PBBF, and the NO PSM baseline.

The detailed simulator's protocol stack, mirroring the paper's ns-2 setup:
one CSMA/CA transmitter under the four MACs the simulator builds (PSM with
PBBF, NO PSM, S-MAC and T-MAC).

* :mod:`repro.mac.csma` -- a CSMA/CA broadcast transmitter (carrier sense,
  DIFS, random backoff; broadcasts carry no ACKs or retries, exactly as in
  802.11 DCF);
* :mod:`repro.mac.pbbf` -- IEEE 802.11 PSM (beacon intervals, ATIM
  windows, broadcast ATIM announcements) with PBBF's p/q knobs layered in.
  Plain PSM is the ``p=q=0`` configuration of the same MAC, which is
  faithful to the paper ("the original sleep scheduling protocol is a
  special case of PBBF with p=0 and q=0");
* :mod:`repro.mac.always_on` -- the "NO PSM" flooding baseline;
* :mod:`repro.mac.smac` / :mod:`repro.mac.tmac` -- alternative sleep
  schedulers demonstrating that PBBF integrates with any of them
  (the paper's "can be integrated into any sleep scheduling protocol").
"""

from repro.mac.always_on import AlwaysOnMac
from repro.mac.base import BroadcastMac, MacConfig, MacStats
from repro.mac.csma import CsmaConfig, CsmaTransmitter
from repro.mac.pbbf import PBBFMac
from repro.mac.smac import SMacConfig, SMacPBBF
from repro.mac.tmac import TMacConfig, TMacPBBF

__all__ = [
    "AlwaysOnMac",
    "BroadcastMac",
    "CsmaConfig",
    "CsmaTransmitter",
    "MacConfig",
    "MacStats",
    "PBBFMac",
    "SMacConfig",
    "SMacPBBF",
    "TMacConfig",
    "TMacPBBF",
]
