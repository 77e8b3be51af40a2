"""Figures 4, 5, 8, 9, 10, 11 — the Section 4 ideal-simulator sweeps.

All six figures come from the same family of campaigns (one per
protocol-and-q operating point), expressed as a single declarative
:class:`~repro.runners.spec.CampaignSpec` and executed through
:func:`~repro.runners.campaign.run_campaign` — so one `--jobs N` fan-out
(or one warm cache) pays for every figure in the family at once.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.experiments.scale import Scale
from repro.experiments.spec import ExperimentResult, Series
from repro.ideal.simulator import SchedulingMode
from repro.runners import CampaignSpec, run_campaign
from repro.runners.points import IdealPointMetrics


def ideal_campaign(scale: Scale) -> CampaignSpec:
    """The Section 4 sweep as a declarative campaign.

    The (p, q) product runs under the PSM/PBBF schedule; the paper's two
    horizontal reference lines are the extra corner points — PSM is
    PBBF(0, 0) and NO PSM is PBBF(1, 1) with the radios always on.
    """
    return CampaignSpec.build(
        kind="ideal",
        axes={"p": scale.ideal_p_values, "q": scale.ideal_q_values},
        fixed={
            "grid_side": scale.grid_side,
            "n_broadcasts": scale.n_broadcasts,
            "mode": SchedulingMode.PSM_PBBF.value,
            "hop_near": scale.hop_distance_near,
            "hop_far": scale.hop_distance_far,
        },
        extra_points=(
            {"p": 0.0, "q": 0.0},
            {"p": 1.0, "q": 1.0, "mode": SchedulingMode.ALWAYS_ON.value},
        ),
        seed_params=("grid_side", "p", "q", "mode"),
        base_seed=scale.base_seed,
    )


MetricFn = Callable[[IdealPointMetrics], Optional[float]]


def _sweep(scale: Scale, metric: MetricFn) -> Tuple[Series, ...]:
    """The standard Section 4 figure layout: PBBF-p lines + two baselines.

    PSM and NO PSM do not depend on q; the paper draws them as horizontal
    reference lines, which we reproduce by replicating their single
    measurement across the x axis.
    """
    campaign = run_campaign(ideal_campaign(scale))
    series: List[Series] = []
    for p in scale.ideal_p_values:
        points = tuple(
            (q, metric(campaign.metrics(p=p, q=q))) for q in scale.ideal_q_values
        )
        series.append(Series(label=f"PBBF-{p:g}", points=points))
    psm_value = metric(campaign.metrics(p=0.0, q=0.0))
    series.append(
        Series(
            label="PSM",
            points=tuple((q, psm_value) for q in scale.ideal_q_values),
        )
    )
    no_psm_value = metric(
        campaign.metrics(p=1.0, q=1.0, mode=SchedulingMode.ALWAYS_ON.value)
    )
    series.append(
        Series(
            label="NO PSM",
            points=tuple((q, no_psm_value) for q in scale.ideal_q_values),
        )
    )
    return tuple(series)


def run_fig04(scale: Scale) -> ExperimentResult:
    """Fraction of updates received by >= 90% of nodes, vs q."""
    return ExperimentResult(
        experiment_id="fig04",
        title="Threshold behavior for 90% reliability (ideal grid)",
        x_label="q",
        y_label="fraction of updates received by 90% of nodes",
        series=_sweep(scale, lambda m: m.reliability_90),
        expectation=(
            "PSM and NO PSM sit at 1.0.  Each PBBF-p curve is ~0 for small q, "
            "then jumps sharply to 1.0 at a p-dependent threshold q "
            "(larger p => larger threshold), mirroring bond percolation."
        ),
    )


def run_fig05(scale: Scale) -> ExperimentResult:
    """Fraction of updates received by >= 99% of nodes, vs q."""
    return ExperimentResult(
        experiment_id="fig05",
        title="Threshold behavior for 99% reliability (ideal grid)",
        x_label="q",
        y_label="fraction of updates received by 99% of nodes",
        series=_sweep(scale, lambda m: m.reliability_99),
        expectation=(
            "Same threshold structure as Figure 4 with thresholds shifted "
            "right: 99% coverage needs a higher q at every p."
        ),
    )


def run_fig08(scale: Scale) -> ExperimentResult:
    """Average per-node energy per update, vs q."""
    return ExperimentResult(
        experiment_id="fig08",
        title="Average energy consumption (ideal grid)",
        x_label="q",
        y_label="joules consumed / update (per node)",
        series=_sweep(scale, lambda m: m.joules_per_update_per_node),
        expectation=(
            "Energy rises linearly in q and is independent of p (all PBBF "
            "lines overlap), from the PSM floor (~0.3 J at a 10% duty "
            "cycle) to ~the NO PSM ceiling (~3 J at lambda=0.01/s); "
            "Eq. 8's 1 + q*Tsleep/Tactive."
        ),
    )


def run_fig09(scale: Scale) -> ExperimentResult:
    """Average hops actually travelled to near-distance nodes, vs q."""
    return ExperimentResult(
        experiment_id="fig09",
        title=(
            f"Average hops travelled to reach nodes "
            f"{scale.hop_distance_near} hops from the source"
        ),
        x_label="q",
        y_label=f"mean path hops to distance-{scale.hop_distance_near} nodes",
        series=_sweep(scale, lambda m: m.mean_hops_near),
        expectation=(
            "Near the reliability threshold paths are tortuous (hops well "
            "above the lattice distance, toward the d^(5/4) bound); as q "
            "grows the count collapses to ~the lattice distance.  PSM and "
            "NO PSM stay at the lattice distance throughout."
        ),
    )


def run_fig10(scale: Scale) -> ExperimentResult:
    """Average hops actually travelled to far-distance nodes, vs q."""
    return ExperimentResult(
        experiment_id="fig10",
        title=(
            f"Average hops travelled to reach nodes "
            f"{scale.hop_distance_far} hops from the source"
        ),
        x_label="q",
        y_label=f"mean path hops to distance-{scale.hop_distance_far} nodes",
        series=_sweep(scale, lambda m: m.mean_hops_far),
        expectation=(
            "Same shape as Figure 9 amplified by distance: path stretch "
            "near the threshold is larger in absolute hops, and again "
            "collapses to ~the lattice distance at high reliability."
        ),
    )


def run_fig11(scale: Scale) -> ExperimentResult:
    """Average per-hop update latency, vs q."""
    return ExperimentResult(
        experiment_id="fig11",
        title="Average per-hop update latency (ideal grid)",
        x_label="q",
        y_label="per-hop latency (s)",
        series=_sweep(scale, lambda m: m.mean_per_hop_latency),
        expectation=(
            "PSM sits near Tframe (~10 s per hop) and NO PSM near L1 "
            "(~1.5 s).  PBBF falls between: higher p and q push per-hop "
            "latency down toward L1 (note the paper's caveat that points "
            "at small q average only over the few nodes reached)."
        ),
    )
