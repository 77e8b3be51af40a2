"""Trade-off analysis figures: Pareto frontiers over campaign results.

The paper's central artifact is Figure 12's energy-latency curve, traced
from the *closed-form* model.  These figures recover the same structure
from *simulated* campaigns through :mod:`repro.analysis`:

* **pareto01** — the static (p, q) frontier per scenario family: which
  swept operating points are actually non-dominated in (per-hop latency,
  energy per update) once a coverage floor is imposed, with knee points
  and bootstrap confidence intervals;
* **pareto02** — adaptive controller vs. static (p, q) on the detailed
  simulator: the AIAD controller's operating points overlaid on the
  static frontier at an equal delivery floor (Remark 1's frontier
  discussion, tested empirically);
* **pareto03** — the pareto01 frontier re-denominated in projected
  battery-days through :mod:`repro.energy.lifetime` (Lipinski's
  maximum-lifetime framing): the same points, read as deployment
  lifetime against latency.

All three run as ordinary declarative campaigns; frontier extraction
(:func:`family_frontiers`, :func:`campaign_frontier`), knee selection
and cross-family comparison are plain functions of the returned
:class:`~repro.runners.CampaignResult`, so the derived artifacts are
bit-identical across backends and cache replays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.adaptive import AdaptivePolicy
from repro.analysis.compare import compare_frontiers
from repro.analysis.objectives import Constraint, Objective, operating_points
from repro.analysis.pareto import Frontier, pareto_frontier
from repro.analysis.denomination import lifetime_objective
from repro.analysis.selectors import knee_index
from repro.experiments.scale import Scale
from repro.experiments.spec import ExperimentResult, Series
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import SchedulingMode
from repro.experiments.detailed_figures import _DEFAULT_DENSITY as _DETAILED_DENSITY
from repro.runners import CampaignResult, CampaignSpec, run_campaign
from repro.scenarios import ScenarioSpec

#: The adaptive controller swept by pareto02: gentle AIAD steps with a
#: reliability-first q floor — q decays only to 0.1 in loss-free windows,
#: so delivery holds while idle energy is shed.
PARETO02_POLICY = AdaptivePolicy(q_min=0.1, q_step=0.1, p_max=0.75)


# -- objectives ----------------------------------------------------------


def energy_objective() -> Objective:
    """Per-node energy per update (the Figure 8/13 y-axis), minimised."""
    return Objective(
        name="energy",
        label="J/update per node",
        metric=lambda m: m.joules_per_update_per_node,
        sense="min",
    )


def hop_latency_objective() -> Objective:
    """Ideal-simulator per-hop latency (the Figure 11 y-axis), minimised."""
    return Objective(
        name="latency",
        label="per-hop latency (s)",
        metric=lambda m: m.mean_per_hop_latency,
        sense="min",
    )


def update_latency_objective() -> Objective:
    """Detailed-simulator end-to-end update latency, minimised."""
    return Objective(
        name="latency",
        label="update latency (s)",
        metric=lambda m: m.mean_update_latency,
        sense="min",
    )


def coverage_constraint(scale: Scale) -> Constraint:
    """The ideal frontiers' reliability floor on mean coverage."""
    return Constraint(
        name="coverage",
        metric=lambda m: m.mean_coverage,
        bound=scale.pareto_coverage,
        sense="ge",
    )


def delivery_constraint(scale: Scale) -> Constraint:
    """pareto02's delivery floor on the updates-received fraction."""
    return Constraint(
        name="delivery",
        metric=lambda m: m.updates_received_fraction,
        bound=scale.pareto_delivery,
        sense="ge",
    )


def static_pbbf_where():
    """The genuine-static-PBBF point filter for q-sweep frontiers.

    The Figures 13-16 q-sweep campaign also carries the always-on NO PSM
    baseline corner, which is not a static (p, q) operating point and
    must not anchor a frontier.  Shared by pareto02 and the CLI's
    ``pareto --simulator detailed`` so the exclusion can never drift
    between the two.
    """
    return lambda params: params.get("mode") == SchedulingMode.PSM_PBBF.value


# -- campaigns -----------------------------------------------------------


def pareto_family_panel(scale: Scale) -> Tuple[Tuple[str, ScenarioSpec], ...]:
    """The (label, spec) scenario families whose frontiers are compared."""
    side = scale.pareto_side
    builders = {
        "grid": lambda: ScenarioSpec.build("grid", {"side": side}),
        "torus": lambda: ScenarioSpec.build("torus", {"side": side}),
        "grid_holes": lambda: ScenarioSpec.build(
            "grid_holes",
            {"side": side, "n_holes": 3, "hole_side": max(2, side // 6)},
        ),
        "random": lambda: ScenarioSpec.build(
            "random",
            {"n_nodes": side * side, "radio_range": 10.0, "density": 12.0},
            source="random",
        ),
    }
    panel = []
    for name in scale.pareto_families:
        if name not in builders:
            raise ValueError(
                f"unknown pareto family {name!r}; have {sorted(builders)}"
            )
        panel.append((name, builders[name]()))
    return tuple(panel)


def static_frontier_campaign(scale: Scale) -> CampaignSpec:
    """The pareto01/pareto03 sweep: family x p x q on the ideal simulator."""
    hop_near, hop_far = 2, max(4, scale.pareto_side // 3)
    return CampaignSpec.build(
        kind="ideal",
        axes={
            "scenario": tuple(spec for _, spec in pareto_family_panel(scale)),
            "p": scale.pareto_p_values,
            "q": scale.pareto_q_values,
        },
        fixed={
            "n_broadcasts": scale.pareto_n_broadcasts,
            "mode": SchedulingMode.PSM_PBBF.value,
            "hop_near": hop_near,
            "hop_far": hop_far,
        },
        seed_params=("scenario", "p", "q"),
        n_seeds=scale.pareto_seeds,
        base_seed=scale.base_seed,
    )


def adaptive_campaign(scale: Scale) -> CampaignSpec:
    """pareto02's adaptive side: controller start points on the detailed sim.

    Seed labels fold the same (p, q, density, mode) content as the static
    q-sweep, so an adaptive run starting at (p, q) shares deployment,
    traffic and coin streams with the static run *at* (p, q) — common
    random numbers make the frontier overlay a paired comparison.
    """
    return CampaignSpec.build(
        kind="detailed",
        axes={
            "p": scale.detailed_p_values,
            "q": scale.pareto_adaptive_q0_values,
        },
        fixed={
            "density": _DETAILED_DENSITY,
            "mode": SchedulingMode.PSM_PBBF.value,
            "duration": scale.duration,
            "scheduler": "psm",
            "adaptive": PARETO02_POLICY.token,
        },
        seed_params=("p", "q", "density", "mode"),
        n_seeds=scale.detailed_runs,
        base_seed=scale.base_seed,
        seed_with_run_index=True,
    )


# -- frontier extraction -------------------------------------------------


def campaign_frontier(
    campaign: CampaignResult,
    objectives: Sequence[Objective],
    constraints: Sequence[Constraint],
    n_resamples: int,
    where=None,
) -> Frontier:
    """The frontier over a finished campaign's operating points.

    ``where`` filters the candidate points by parameters — pareto02 uses
    it to keep the static frontier to genuine PBBF (p, q) operating
    points (the q-sweep campaign also carries the always-on NO PSM
    baseline corner, which is not a static operating point and must not
    anchor the frontier).
    """
    points = operating_points(
        campaign,
        objectives,
        constraints=constraints,
        where=where,
        n_resamples=n_resamples,
    )
    return pareto_frontier(points, objectives)


def family_frontiers(
    campaign: CampaignResult,
    panel: Sequence[Tuple[str, ScenarioSpec]],
    objectives: Sequence[Objective],
    constraints: Sequence[Constraint],
    n_resamples: int,
) -> Dict[str, Frontier]:
    """One frontier per scenario family of ``panel``, by family label."""
    return {
        label: campaign_frontier(
            campaign,
            objectives,
            constraints,
            n_resamples,
            where=lambda params, token=spec.token: (
                params.get("scenario") == token
            ),
        )
        for label, spec in panel
    }


# -- rendering helpers ---------------------------------------------------


def _format_value(value: float) -> str:
    return f"{value:.4g}"


def frontier_table(
    frontiers: Mapping[str, Frontier],
) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, ...], ...]]:
    """The frontier block of a trade-off figure: header + formatted rows.

    One row per non-dominated point, grouped by frontier name in sorted
    order, the knee of each frontier marked ``*`` in the first cell.
    Objective columns interleave mean and bootstrap ``±95%`` half-width.
    """
    names = sorted(frontiers)
    if not names:
        raise ValueError("frontier_table() needs at least one frontier")
    objectives = frontiers[names[0]].objectives
    header = ["", "set", "point"]
    for objective in objectives:
        header.extend([objective.label, "±95%"])
    rows: List[Tuple[str, ...]] = []
    for name in names:
        frontier = frontiers[name]
        if not frontier.points:
            continue
        knee = knee_index(frontier)
        for index, point in enumerate(frontier.points):
            row = ["*" if index == knee else "", name, point.label]
            for value, ci in zip(point.values, point.ci95):
                row.extend([_format_value(value), _format_value(ci)])
            rows.append(tuple(row))
    return tuple(header), tuple(rows)


def _frontier_series(name: str, frontier: Frontier) -> Series:
    """A frontier as a plotted series: (objective 0, objective 1) points."""
    return Series(
        label=name,
        points=tuple((point.values[0], point.values[1]) for point in frontier.points),
    )


def _comparison_notes(
    frontiers: Mapping[str, Frontier], comparison=None
) -> List[str]:
    """Hypervolume/knee notes for the figure footer (deterministic order).

    Pass a precomputed :func:`compare_frontiers` result to avoid scoring
    the same frontiers twice when the caller also reads the comparison.
    """
    populated = {name: f for name, f in frontiers.items() if f.points}
    if not populated:
        return ["no operating point met the constraint at this scale"]
    if comparison is None:
        comparison = compare_frontiers(populated)
    notes = []
    for summary in comparison.summaries:
        notes.append(
            f"{summary.name}: {summary.n_points} non-dominated of "
            f"{summary.n_points + summary.n_dominated} feasible, "
            f"hypervolume {summary.hypervolume:.4g}, "
            f"knee {summary.knee_label}"
        )
    return notes


# -- the figures ---------------------------------------------------------


def run_pareto01(scale: Scale) -> ExperimentResult:
    """Static (p, q) Pareto frontier per scenario family."""
    objectives = (hop_latency_objective(), energy_objective())
    panel = pareto_family_panel(scale)
    frontiers = family_frontiers(
        run_campaign(static_frontier_campaign(scale)),
        panel,
        objectives,
        (coverage_constraint(scale),),
        scale.bootstrap_resamples,
    )
    header, rows = frontier_table(frontiers)
    series = tuple(
        _frontier_series(name, frontiers[name]) for name, _ in panel
    )
    return ExperimentResult(
        experiment_id="pareto01",
        title=(
            f"Static (p, q) energy-latency frontier per family "
            f"(coverage >= {scale.pareto_coverage:g})"
        ),
        x_label="per-hop latency (s)",
        y_label="joules consumed / update (per node)",
        series=series,
        expectation=(
            "Each family's non-dominated set traces Figure 12's inverse "
            "energy-latency relationship: lower latency is bought with "
            "more awake time.  Families with denser connectivity (torus, "
            "random) meet the coverage floor at cheaper operating points, "
            "so their frontiers sit left/below the open grid's."
        ),
        notes=tuple(_comparison_notes(frontiers)),
        frontier_header=header,
        frontier_rows=rows,
    )


def paired_adaptive_notes(
    static: CampaignResult, adaptive: CampaignResult, scale: Scale
) -> List[str]:
    """Per-start-point paired comparison: adaptive vs. the static it left.

    Both campaigns fold identical seed labels, so each comparison is a
    common-random-numbers pairing of the same deployments and traffic.
    Reported per start point shared by both sweeps: energy delta at the
    delivery each side achieved — the 'equal reliability, lower energy'
    demonstration the adaptive controller exists for.
    """
    notes: List[str] = []
    shared_q0 = [
        q0 for q0 in scale.pareto_adaptive_q0_values if q0 in scale.detailed_q_values
    ]
    for p in scale.detailed_p_values:
        for q0 in shared_q0:
            static_energy = static.mean_metric(
                lambda m: m.joules_per_update_per_node, p=p, q=q0
            )
            adaptive_energy = adaptive.mean_metric(
                lambda m: m.joules_per_update_per_node, p=p, q=q0
            )
            static_delivery = static.mean_metric(
                lambda m: m.updates_received_fraction, p=p, q=q0
            )
            adaptive_delivery = adaptive.mean_metric(
                lambda m: m.updates_received_fraction, p=p, q=q0
            )
            if None in (
                static_energy, adaptive_energy, static_delivery, adaptive_delivery
            ):
                continue
            notes.append(
                f"paired at p={p:g} q0={q0:g}: adaptive "
                f"{adaptive_energy:.4g} J/upd at {adaptive_delivery:.3f} "
                f"delivery vs static {static_energy:.4g} J/upd at "
                f"{static_delivery:.3f}"
            )
    return notes


def run_pareto02(scale: Scale) -> ExperimentResult:
    """Adaptive-controller frontier vs. the static (p, q) frontier."""
    from repro.experiments.detailed_figures import q_sweep_campaign

    objectives = (update_latency_objective(), energy_objective())
    constraints = (delivery_constraint(scale),)
    static = run_campaign(q_sweep_campaign(scale))
    adaptive = run_campaign(adaptive_campaign(scale))
    frontiers = {
        "static": campaign_frontier(
            static,
            objectives,
            constraints,
            scale.bootstrap_resamples,
            where=static_pbbf_where(),
        ),
        "adaptive": campaign_frontier(
            adaptive, objectives, constraints, scale.bootstrap_resamples
        ),
    }
    header, rows = frontier_table(frontiers)
    series = (
        _frontier_series("static frontier", frontiers["static"]),
        _frontier_series("adaptive frontier", frontiers["adaptive"]),
    )
    return ExperimentResult(
        experiment_id="pareto02",
        title=(
            f"Adaptive controller vs static (p, q) frontier "
            f"(delivery >= {scale.pareto_delivery:g})"
        ),
        x_label="mean update latency (s)",
        y_label="joules consumed / update (per node)",
        series=series,
        expectation=(
            "The adaptive controller's frontier matches or dominates the "
            "static sweep's: by shedding q in loss-free windows and "
            "raising it on detected misses, adapted operating points "
            "deliver equal reliability at lower energy than the static "
            "points they started from (Remark 1's frontier, tracked "
            "dynamically instead of provisioned statically)."
        ),
        notes=tuple(_comparison_notes(frontiers))
        + tuple(paired_adaptive_notes(static, adaptive, scale))
        + (f"adaptive policy: {PARETO02_POLICY.token}",),
        frontier_header=header,
        frontier_rows=rows,
    )


def run_pareto03(scale: Scale) -> ExperimentResult:
    """The static frontier denominated in projected battery-days."""
    analysis = AnalysisParameters()
    objectives = (
        hop_latency_objective(),
        lifetime_objective(energy_objective(), analysis.update_interval),
    )
    panel = pareto_family_panel(scale)
    frontiers = family_frontiers(
        run_campaign(static_frontier_campaign(scale)),
        panel,
        objectives,
        (coverage_constraint(scale),),
        scale.bootstrap_resamples,
    )
    header, rows = frontier_table(frontiers)
    series = tuple(
        _frontier_series(name, frontiers[name]) for name, _ in panel
    )
    return ExperimentResult(
        experiment_id="pareto03",
        title=(
            f"Deployment lifetime vs latency frontier per family "
            f"(coverage >= {scale.pareto_coverage:g}, AA pair)"
        ),
        x_label="per-hop latency (s)",
        y_label="projected lifetime (battery-days)",
        series=series,
        expectation=(
            "The same frontier as pareto01 read in deployment units: "
            "battery-days fall as per-hop latency is pushed down.  The "
            "knee is where the paper's 'weeks of lifetime on a pair of "
            "AAs' motivation meets its latency budget — past it, each "
            "second of latency saved costs days of deployment life."
        ),
        notes=tuple(_comparison_notes(frontiers))
        + (
            f"lifetime from {analysis.update_interval:g}s update interval "
            "on a 20 kJ AA pair",
        ),
        frontier_header=header,
        frontier_rows=rows,
    )
