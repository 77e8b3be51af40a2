"""Figures 13-18 — the Section 5 detailed-simulator study.

Each figure point averages several independent scenarios (deployment,
source, traffic and coins all re-sampled per run), matching the paper's
"each data point is averaged over ten runs".  The q-sweep figures (13-16)
and the density-sweep figures (17-18) are each one declarative
:class:`~repro.runners.spec.CampaignSpec`, so the whole family shares its
underlying runs through the campaign runner's memo and disk cache, and
fans out over processes under ``--jobs N``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.experiments.scale import Scale
from repro.experiments.spec import ExperimentResult, Series
from repro.ideal.simulator import SchedulingMode
from repro.runners import CampaignResult, CampaignSpec, run_campaign
from repro.runners.points import DetailedPointMetrics

MetricFn = Callable[[DetailedPointMetrics], Optional[float]]

#: Table 2's default density, used by the q-sweep figures (13-16).
_DEFAULT_DENSITY = 10.0
#: Table 2's default q, used by the density-sweep figures (17-18).
_DEFAULT_Q = 0.25


def q_sweep_campaign(scale: Scale, density: float = _DEFAULT_DENSITY) -> CampaignSpec:
    """The Figures 13-16 sweep: (p, q) product plus the two baselines."""
    return CampaignSpec.build(
        kind="detailed",
        axes={"p": scale.detailed_p_values, "q": scale.detailed_q_values},
        fixed={
            "density": density,
            "mode": SchedulingMode.PSM_PBBF.value,
            "duration": scale.duration,
            "scheduler": "psm",
        },
        extra_points=(
            {"p": 0.0, "q": 0.0},
            {"p": 1.0, "q": 1.0, "mode": SchedulingMode.ALWAYS_ON.value},
        ),
        seed_params=("p", "q", "density", "mode"),
        n_seeds=scale.detailed_runs,
        base_seed=scale.base_seed,
        seed_with_run_index=True,
    )


def density_sweep_campaign(scale: Scale, q: float = _DEFAULT_Q) -> CampaignSpec:
    """The Figures 17-18 sweep: density on x, q fixed at Table 2's 0.25."""
    baselines = tuple(
        {"p": 0.0, "q": 0.0, "density": density} for density in scale.densities
    ) + tuple(
        {
            "p": 1.0,
            "q": 1.0,
            "density": density,
            "mode": SchedulingMode.ALWAYS_ON.value,
        }
        for density in scale.densities
    )
    return CampaignSpec.build(
        kind="detailed",
        axes={"p": scale.detailed_p_values, "density": scale.densities},
        fixed={
            "q": q,
            "mode": SchedulingMode.PSM_PBBF.value,
            "duration": scale.duration,
            "scheduler": "psm",
        },
        extra_points=baselines,
        seed_params=("p", "q", "density", "mode"),
        n_seeds=scale.detailed_runs,
        base_seed=scale.base_seed,
        seed_with_run_index=True,
    )


def _q_sweep(
    scale: Scale, metric: MetricFn, density: float = _DEFAULT_DENSITY
) -> Tuple[Series, ...]:
    """The Figures 13-16 layout: PBBF-p lines over q, plus two baselines."""
    campaign = run_campaign(q_sweep_campaign(scale, density))
    series: List[Series] = []
    for p in scale.detailed_p_values:
        points = tuple(
            (q, campaign.mean_metric(metric, p=p, q=q))
            for q in scale.detailed_q_values
        )
        series.append(Series(label=f"PBBF-{p:g}", points=points))
    psm = campaign.mean_metric(metric, p=0.0, q=0.0)
    series.append(
        Series(label="PSM", points=tuple((q, psm) for q in scale.detailed_q_values))
    )
    no_psm = campaign.mean_metric(
        metric, p=1.0, q=1.0, mode=SchedulingMode.ALWAYS_ON.value
    )
    series.append(
        Series(
            label="NO PSM",
            points=tuple((q, no_psm) for q in scale.detailed_q_values),
        )
    )
    return tuple(series)


def _density_sweep(
    scale: Scale, metric: MetricFn, q: float = _DEFAULT_Q
) -> Tuple[Series, ...]:
    """The Figures 17-18 layout: one point per (protocol, density)."""
    campaign = run_campaign(density_sweep_campaign(scale, q))

    def density_series(label: str, **overrides) -> Series:
        return Series(
            label=label,
            points=tuple(
                (density, campaign.mean_metric(metric, density=density, **overrides))
                for density in scale.densities
            ),
        )

    series: List[Series] = [
        density_series(f"PBBF-{p:g}", p=p) for p in scale.detailed_p_values
    ]
    series.append(density_series("PSM", p=0.0, q=0.0))
    series.append(
        density_series(
            "NO PSM", p=1.0, q=1.0, mode=SchedulingMode.ALWAYS_ON.value
        )
    )
    return tuple(series)


def run_fig13(scale: Scale) -> ExperimentResult:
    """Average per-node energy per update vs q (detailed simulator)."""
    return ExperimentResult(
        experiment_id="fig13",
        title="Average energy consumption (detailed, N=50, delta=10)",
        x_label="q",
        y_label="joules consumed / update (per node)",
        series=_q_sweep(scale, lambda m: m.joules_per_update_per_node),
        expectation=(
            "PSM saves roughly 2 J per update over NO PSM; PBBF's energy "
            "grows linearly with q and overlaps across p values (q "
            "dominates p for energy)."
        ),
    )


def run_fig14(scale: Scale) -> ExperimentResult:
    """2-hop average update latency vs q."""
    return ExperimentResult(
        experiment_id="fig14",
        title="2-hop average update latency (detailed)",
        x_label="q",
        y_label="mean latency at 2-hop nodes (s)",
        series=_q_sweep(scale, lambda m: m.latency_2hop),
        expectation=(
            "PSM stays near AW + BI (~11 s); NO PSM is far lower.  PBBF "
            "starts above/near PSM at small q (fewer redundant deliveries) "
            "and drops below it as p and q grow — a crossover in q."
        ),
    )


def run_fig15(scale: Scale) -> ExperimentResult:
    """5-hop average update latency vs q."""
    return ExperimentResult(
        experiment_id="fig15",
        title="5-hop average update latency (detailed)",
        x_label="q",
        y_label="mean latency at 5-hop nodes (s)",
        series=_q_sweep(scale, lambda m: m.latency_5hop),
        expectation=(
            "Same structure as Figure 14 scaled by distance (~4-5 beacon "
            "intervals for PSM), with the PBBF-beats-PSM crossover at a "
            "*lower* q than the 2-hop case (more chances en route to skip "
            "a beacon interval)."
        ),
    )


def run_fig16(scale: Scale) -> ExperimentResult:
    """Fraction of updates received vs q."""
    return ExperimentResult(
        experiment_id="fig16",
        title="Average updates received (detailed)",
        x_label="q",
        y_label="updates received / updates sent",
        series=_q_sweep(scale, lambda m: m.updates_received_fraction),
        expectation=(
            "PSM and NO PSM deliver ~everything.  PBBF-0.5 is visibly "
            "degraded until q reaches ~0.5; p=0.25 loses a little; "
            "p <= 0.1 loses under 1%."
        ),
    )


def run_fig17(scale: Scale) -> ExperimentResult:
    """Average update latency vs density (q = 0.25)."""
    return ExperimentResult(
        experiment_id="fig17",
        title="Average update latency vs density (detailed, q=0.25)",
        x_label="density (delta)",
        y_label="mean update latency (s)",
        series=_density_sweep(scale, lambda m: m.mean_update_latency),
        expectation=(
            "Latency falls as density rises for the sleep-scheduled "
            "protocols (nodes are fewer hops from the source, so fewer "
            "beacon intervals are paid); PSM and PBBF improve at about "
            "the same rate, NO PSM stays lowest throughout."
        ),
    )


def run_fig18(scale: Scale) -> ExperimentResult:
    """Fraction of updates received vs density (q = 0.25)."""
    return ExperimentResult(
        experiment_id="fig18",
        title="Average updates received vs density (detailed, q=0.25)",
        x_label="density (delta)",
        y_label="updates received / updates sent",
        series=_density_sweep(scale, lambda m: m.updates_received_fraction),
        expectation=(
            "PBBF's delivery fraction improves with density (more "
            "redundant broadcast copies per node); PSM and NO PSM stay "
            "at ~1.0 throughout."
        ),
    )
