"""Figures 6, 7, 12 and perc02 — the percolation analysis artifacts.

Figure 6 estimates the critical bond fraction per reliability level and
grid size (Newman-Ziff sweeps); Figure 7 inverts Remark 1 into the minimum
q per p on a fixed grid; Figure 12 walks that frontier at 99% reliability
and evaluates the Eq. 8 energy and Eq. 9 latency at every point.  The
extension figure **perc02** re-estimates the bond *and* site thresholds
across the scenario layer's topology families — how far the paper's
square-lattice percolation numbers travel to tori, carved-out grids and
unit-disk deployments.  The threshold estimates run as ``percolation``
campaigns, so Figures 7 and 12 share their frontier-grid points with each
other (and with any other invocation) through the campaign runner's memo
and disk cache.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tradeoff import energy_latency_curve
from repro.experiments.scale import Scale
from repro.experiments.spec import ExperimentResult, Series
from repro.ideal.config import AnalysisParameters
from repro.runners import CampaignSpec, run_campaign


def size_sweep_campaign(scale: Scale) -> CampaignSpec:
    """The Figure 6 sweep: grid sizes x reliability levels."""
    return CampaignSpec.build(
        kind="percolation",
        axes={
            "grid_side": scale.percolation_sizes,
            "reliability": scale.reliability_levels,
        },
        fixed={"runs": scale.percolation_runs, "process": "bond"},
        seed_params=("grid_side", "reliability"),
        base_seed=scale.base_seed,
    )


def frontier_campaign(scale: Scale) -> CampaignSpec:
    """The Figures 7/12 thresholds: every level on the frontier grid."""
    return CampaignSpec.build(
        kind="percolation",
        axes={"reliability": scale.reliability_levels},
        fixed={
            "grid_side": scale.frontier_grid_side,
            "runs": scale.percolation_runs,
            "process": "bond",
        },
        seed_params=("grid_side", "reliability"),
        base_seed=scale.base_seed,
    )


def run_fig06(scale: Scale) -> ExperimentResult:
    """Critical bond fraction vs grid size, one line per reliability level."""
    campaign = run_campaign(size_sweep_campaign(scale))
    series: List[Series] = []
    for level in scale.reliability_levels:
        points = tuple(
            (
                float(size),
                campaign.metrics(grid_side=size, reliability=level).critical_fraction,
            )
            for size in scale.percolation_sizes
        )
        series.append(Series(label=f"{level:.0%} reliability", points=points))
    return ExperimentResult(
        experiment_id="fig06",
        title="Critical bond fraction for grid topologies",
        x_label="grid side (NxN)",
        y_label="fraction of occupied bonds",
        series=tuple(series),
        expectation=(
            "Higher reliability needs more occupied bonds at every size; "
            "thresholds for partial coverage (80-99%) hover a little above "
            "the infinite-lattice bond threshold 0.5 and drift down with "
            "grid size, while 100% coverage stays well above it."
        ),
    )


def run_fig07(scale: Scale) -> ExperimentResult:
    """Minimum q vs p for each reliability level on the frontier grid."""
    from repro.percolation.threshold import minimum_q_for_reliability

    campaign = run_campaign(frontier_campaign(scale))
    p_values = [round(0.05 * i, 2) for i in range(21)]
    series: List[Series] = []
    for level in scale.reliability_levels:
        pc = campaign.metrics(reliability=level).critical_fraction
        points = tuple(
            (p, minimum_q_for_reliability(p, pc)) for p in p_values
        )
        series.append(Series(label=f"{level:.0%} reliability", points=points))
    return ExperimentResult(
        experiment_id="fig07",
        title=(
            f"p vs q for given reliability levels "
            f"({scale.frontier_grid_side}x{scale.frontier_grid_side} grid)"
        ),
        x_label="p",
        y_label="minimum q",
        series=tuple(series),
        expectation=(
            "Each curve is flat at q=0 while p <= 1-pc, then rises "
            "concavely to q=pc at p=1; higher reliability levels lie "
            "strictly above lower ones.  Operating points above a curve "
            "satisfy Remark 1 for that level."
        ),
    )


def run_fig12(scale: Scale) -> ExperimentResult:
    """Energy vs latency along the 99% reliability frontier."""
    analysis = AnalysisParameters()
    # A one-point campaign; its run key coincides with the matching point
    # of ``frontier_campaign`` whenever 0.99 is among the scale's levels,
    # so the estimate is shared rather than recomputed.
    spec = CampaignSpec.build(
        kind="percolation",
        axes={"reliability": (0.99,)},
        fixed={
            "grid_side": scale.frontier_grid_side,
            "runs": scale.percolation_runs,
            "process": "bond",
        },
        seed_params=("grid_side", "reliability"),
        base_seed=scale.base_seed,
    )
    pc = run_campaign(spec).metrics(reliability=0.99).critical_fraction
    # L2 is the extra sleep-induced wait of a normal broadcast; one full
    # frame minus the access time reproduces the observed per-hop PSM
    # latency of ~Tframe (see EXPERIMENTS.md's calibration note).
    l2 = analysis.t_frame - analysis.l1
    p_values = [round(0.05 * i, 2) for i in range(1, 21)]
    points = energy_latency_curve(
        critical_bond_fraction=pc,
        p_values=p_values,
        l1=analysis.l1,
        l2=l2,
        t_active=analysis.t_active,
        t_sleep=analysis.t_sleep,
        update_interval=analysis.update_interval,
        profile=analysis.power,
    )
    curve = tuple(
        (point.per_hop_latency_s, point.joules_per_update) for point in points
    )
    ordered = tuple(sorted(curve))
    return ExperimentResult(
        experiment_id="fig12",
        title="Energy-latency trade-off at 99% reliability",
        x_label="per-hop latency (s)",
        y_label="joules consumed / update (per node)",
        series=(Series(label="99% reliability frontier", points=ordered),),
        expectation=(
            "A monotonically decreasing curve: pushing per-hop latency "
            "down from the PSM corner (~L1+L2) toward L1 requires more "
            "always-awake time and therefore more energy per update — the "
            "inverse energy-latency relationship of the paper's title."
        ),
        notes=(
            f"critical bond fraction pc(99%) = {pc:.3f} on "
            f"{scale.frontier_grid_side}x{scale.frontier_grid_side}",
            f"L1 = {analysis.l1} s, L2 = {l2} s (Tframe - L1)",
        ),
    )


# -- perc02: thresholds across scenario families --------------------------

#: The percolation processes perc02 estimates per family.
PERC02_PROCESSES = ("bond", "site")


def family_threshold_campaign(scale: Scale) -> CampaignSpec:
    """The perc02 sweep: topology family x process x reliability level.

    The family panel is scen02's (same sizes, same tokens), so the
    realized topologies are shared with the portability figure through
    the scenario-realization memo and the runner caches.
    """
    from repro.experiments.scenario_figures import portability_scenarios

    return CampaignSpec.build(
        kind="percolation",
        axes={
            "scenario": tuple(
                spec for _, spec in portability_scenarios(scale)
            ),
            "process": PERC02_PROCESSES,
            "reliability": scale.reliability_levels,
        },
        fixed={"runs": scale.percolation_runs},
        seed_params=("scenario", "process", "reliability"),
        base_seed=scale.base_seed,
    )


def run_perc02(scale: Scale) -> ExperimentResult:
    """Bond/site critical fractions per topology family.

    One series per (family, process); x is the reliability level, y the
    estimated critical occupied fraction.  This is Figure 6's question
    asked across deployment shapes instead of grid sizes.
    """
    from repro.experiments.scenario_figures import portability_scenarios

    campaign = run_campaign(family_threshold_campaign(scale))
    panel = portability_scenarios(scale)
    series: List[Series] = []
    for process in PERC02_PROCESSES:
        for label, spec in panel:
            series.append(
                Series(
                    label=f"{process} {label}",
                    points=tuple(
                        (
                            level,
                            campaign.metrics(
                                scenario=spec,
                                process=process,
                                reliability=level,
                            ).critical_fraction,
                        )
                        for level in scale.reliability_levels
                    ),
                )
            )
    return ExperimentResult(
        experiment_id="perc02",
        title="Critical bond/site fractions across topology families",
        x_label="coverage reliability level",
        y_label="critical occupied fraction",
        series=tuple(series),
        expectation=(
            "Every family shows Figure 6's structure — more occupied "
            "bonds/sites needed at higher reliability — but the level "
            "moves with connectivity: the torus needs the fewest (no "
            "boundary), carved-out grids the most among lattices, and "
            "dense unit-disk families (random, clustered) percolate at "
            "far lower fractions than the degree-4 lattices.  Site "
            "thresholds sit above bond thresholds on every family (a "
            "lost node severs all its bonds at once)."
        ),
        notes=tuple(
            f"{label}: {spec.describe()}" for label, spec in panel
        ),
    )
