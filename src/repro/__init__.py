"""PBBF: Probability-Based Broadcast Forwarding.

A full reproduction of *"Exploring the Energy-Latency Trade-off for
Broadcasts in Energy-Saving Sensor Networks"* (Miller, Sengul, Gupta —
ICDCS 2005): the PBBF protocol, the percolation-based reliability analysis,
the idealized Section 4 simulator, an ns-2-like detailed simulator with an
802.11 PSM MAC, and a harness regenerating every table and figure.

Quickstart
----------
>>> from repro import GridTopology, IdealSimulator, PBBFParams
>>> sim = IdealSimulator(GridTopology(15), PBBFParams(p=0.5, q=0.8), seed=1)
>>> result = sim.run_campaign(n_broadcasts=5)
>>> result.reliability(0.99) >= 0.8
True

See EXPERIMENTS.md for the artifact catalog and ROADMAP.md for the
architecture notes.
"""

from repro.adaptive import AdaptivePBBFAgent, AdaptivePolicy
from repro.analysis import (
    energy_latency_curve,
    energy_ratio_vs_original,
    expected_per_hop_latency,
)
from repro.core import PBBFAgent, PBBFParams, edge_open_probability
from repro.detailed import (
    CodeDistributionParameters,
    DetailedResult,
    DetailedSimulator,
)
from repro.energy import MICA2, PowerProfile, RadioEnergyModel, RadioState
from repro.ideal import AnalysisParameters, IdealSimulator, SchedulingMode
from repro.net import GridTopology, Packet, PacketKind, RandomTopology, Topology
from repro.percolation import (
    bond_sweep,
    estimate_critical_bond_fraction,
    minimum_q_for_reliability,
)
from repro.util import RandomStreams

__version__ = "1.0.0"

__all__ = [
    "AdaptivePBBFAgent",
    "AdaptivePolicy",
    "AnalysisParameters",
    "CodeDistributionParameters",
    "DetailedResult",
    "DetailedSimulator",
    "GridTopology",
    "IdealSimulator",
    "MICA2",
    "PBBFAgent",
    "PBBFParams",
    "Packet",
    "PacketKind",
    "PowerProfile",
    "RadioEnergyModel",
    "RadioState",
    "RandomStreams",
    "RandomTopology",
    "SchedulingMode",
    "Topology",
    "__version__",
    "bond_sweep",
    "edge_open_probability",
    "energy_latency_curve",
    "energy_ratio_vs_original",
    "estimate_critical_bond_fraction",
    "expected_per_hop_latency",
    "minimum_q_for_reliability",
]
