"""Reliability thresholds and the p-q feasibility frontier.

Connects the percolation machinery to PBBF's knobs:

* :func:`estimate_critical_bond_fraction` reproduces Figure 6 — the
  fraction of bonds that must be open for the source's cluster to cover a
  reliability level (80/90/99/100%) on 10x10 .. 40x40 grids;
* :func:`minimum_q_for_reliability` inverts Remark 1
  (``pedge = 1 - p*(1-q) >= pc``) into the minimum q for a given p;
* :func:`minimum_q_frontier` sweeps p to produce the Figure 7 curves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.net.topology import GridTopology, Topology
from repro.percolation.bond import _first_bond_counts
from repro.util.stats import Summary, summarize
from repro.util.validation import check_probability


@dataclass(frozen=True)
class ReliabilityThresholds:
    """Critical bond fractions per reliability level for one topology."""

    grid_label: str
    thresholds: Tuple[Tuple[float, Summary], ...]

    def threshold_for(self, reliability: float) -> Summary:
        """Critical bond-fraction summary for ``reliability``."""
        for level, summary in self.thresholds:
            if abs(level - reliability) < 1e-12:
                return summary
        raise KeyError(f"no threshold estimated for reliability {reliability}")


def estimate_critical_bond_fraction(
    topology: Topology,
    reliability_levels: Sequence[float],
    rng: random.Random,
    runs: int = 20,
    grid_label: str = "",
) -> ReliabilityThresholds:
    """Estimate critical bond fractions for several reliability levels.

    A single set of sweeps serves every level (each sweep's occupation
    curve is monotone, so thresholds for all levels can be read from the
    same runs) — the efficiency trick that makes the Newman-Ziff approach
    "fast" in the cited technical report.
    """
    levels = [check_probability("reliability", level) for level in reliability_levels]
    if not levels:
        raise ValueError("reliability_levels must be non-empty")
    per_level: Dict[float, List[float]] = {level: [] for level in levels}
    for _ in range(runs):
        fractions = _sweep_thresholds(topology, levels, rng)
        for level, fraction in zip(levels, fractions):
            per_level[level].append(fraction)
    thresholds = tuple(
        (level, summarize(per_level[level])) for level in levels
    )
    return ReliabilityThresholds(grid_label=grid_label or repr(topology), thresholds=thresholds)


def _sweep_thresholds(
    topology: Topology,
    levels: Sequence[float],
    rng: random.Random,
) -> List[float]:
    """One sweep, thresholds for every level read off the same run.

    The sweep stops once the source's cluster covers the highest level.
    """
    fractions: List[float] = []
    for level, count in zip(levels, _first_bond_counts(topology, levels, rng)):
        if count is None:
            raise RuntimeError(
                f"sweep never reached coverage {level}; is the topology connected?"
            )
        fractions.append(count / topology.n_edges)
    return fractions


def minimum_q_for_reliability(p: float, critical_bond_fraction: float) -> float:
    """Minimum q such that ``pedge = 1 - p*(1-q)`` meets the threshold.

    Solving Remark 1 for q::

        1 - p*(1-q) >= pc
        p*(1-q)     <= 1 - pc
        q           >= 1 - (1 - pc)/p        (for p > 1 - pc)

    For ``p <= 1 - pc`` even ``q = 0`` satisfies the threshold (enough
    broadcasts go through the always-delivered "normal" path).
    """
    p = check_probability("p", p)
    pc = check_probability("critical_bond_fraction", critical_bond_fraction)
    if p == 0.0:
        return 0.0
    return max(0.0, 1.0 - (1.0 - pc) / p)


def minimum_q_frontier(
    p_values: Sequence[float],
    critical_bond_fraction: float,
) -> List[Tuple[float, float]]:
    """The Figure 7 frontier: ``(p, q_min)`` pairs for one reliability level.

    Operating points above the frontier satisfy Remark 1's threshold; points
    below it fall into the unreliable region.
    """
    return [
        (p, minimum_q_for_reliability(p, critical_bond_fraction))
        for p in p_values
    ]


def default_grid_suite(sizes: Sequence[int] = (10, 20, 30, 40)) -> List[GridTopology]:
    """The grid family of Figure 6 (10x10 through 40x40)."""
    return [GridTopology(size) for size in sizes]
