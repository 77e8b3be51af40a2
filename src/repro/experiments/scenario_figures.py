"""Scenario-extension figures: broadcasts beyond the paper's one world.

The paper evaluates a single scenario shape — one broadcast source at the
centre of an open grid.  These figures run the *same* simulator metrics
through the scenario layer (:mod:`repro.scenarios`) to probe the regimes
related work cares about:

* **scen01** — reachability and per-hop latency as a growing fraction of
  nodes fail before the broadcast ("Sleeping on the Job"'s unreliable
  participants, expressed as a swept campaign axis);
* **scen02** — the p/q trade-off's portability across topology families
  (open grid, torus, grid with failed regions, uniform random, clustered
  — the time/energy-vs-topology question of Klonowski & Pajak);
* **scen03** — the *detailed* (MAC-level) simulator under mid-run node
  deaths: reachability, end-to-end latency and energy per update as a
  growing fraction of nodes dies while traffic is flowing, per sleep
  scheduler (the fault-tolerance regime of Gandhi et al. and the
  ODMRP-style robustness studies);
* **scen04** — frontier robustness: the static (p, q) energy-latency
  frontier on the detailed simulator, recomputed under clock skew plus
  mid-run deaths and compared to the nominal frontier by hypervolume and
  two-set coverage.

All are ordinary declarative campaigns: the scenario rides in the
``scenario`` axis as a token string, so the runner's seeds, backends and
caches treat deployment shape — and now its time-varying perturbations —
exactly like any numeric parameter.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.experiments.scale import Scale
from repro.experiments.spec import ExperimentResult, Series
from repro.ideal.simulator import SchedulingMode
from repro.runners import CampaignSpec, run_campaign
from repro.scenarios import (
    ClockSkew,
    FailureTimes,
    Perturbations,
    ScenarioSpec,
)


def _hop_buckets(scale: Scale) -> Tuple[int, int]:
    """Near/far hop-bucket distances sized to the scenario grid."""
    return 2, max(4, scale.scenario_side // 3)


def failure_scenarios(scale: Scale) -> Tuple[Tuple[float, ScenarioSpec], ...]:
    """The (fraction, spec) panel scen01 sweeps — one grid, rising failures."""
    return tuple(
        (
            fraction,
            ScenarioSpec.build(
                "grid", {"side": scale.scenario_side}, failure_fraction=fraction
            ),
        )
        for fraction in scale.failure_fractions
    )


def failure_campaign(scale: Scale) -> CampaignSpec:
    """The scen01 sweep: failure fraction x forwarding probability.

    Every point shares the same grid; only the failure set (drawn from
    the realization streams) and the p coin threshold vary.
    """
    hop_near, hop_far = _hop_buckets(scale)
    return CampaignSpec.build(
        kind="ideal",
        axes={
            "scenario": tuple(spec for _, spec in failure_scenarios(scale)),
            "p": scale.scenario_p_values,
        },
        fixed={
            "q": scale.scenario_q,
            "n_broadcasts": scale.scenario_n_broadcasts,
            "mode": SchedulingMode.PSM_PBBF.value,
            "hop_near": hop_near,
            "hop_far": hop_far,
        },
        seed_params=("scenario", "p", "q"),
        n_seeds=scale.scenario_seeds,
        base_seed=scale.base_seed,
    )


def portability_scenarios(scale: Scale) -> Tuple[Tuple[str, ScenarioSpec], ...]:
    """The (label, spec) family panel scen02 sweeps.

    Node counts are matched to ``scenario_side**2`` where the family
    allows it; random deployments use a density comfortably above the
    connectivity threshold and a random source (there is no centre).
    """
    side = scale.scenario_side
    n = side * side
    return (
        ("grid", ScenarioSpec.build("grid", {"side": side})),
        ("torus", ScenarioSpec.build("torus", {"side": side})),
        (
            "holes",
            ScenarioSpec.build(
                "grid_holes",
                {"side": side, "n_holes": 3, "hole_side": max(2, side // 6)},
            ),
        ),
        (
            "random",
            ScenarioSpec.build(
                "random",
                {"n_nodes": n, "radio_range": 10.0, "density": 12.0},
                source="random",
            ),
        ),
        (
            "clustered",
            ScenarioSpec.build(
                "clustered",
                {
                    "n_clusters": 4,
                    "cluster_size": max(4, n // 4),
                    "radio_range": 10.0,
                    "spread": 5.0,
                    "extent": 40.0,
                },
                source="random",
            ),
        ),
    )


def portability_campaign(scale: Scale) -> CampaignSpec:
    """The scen02 sweep: topology family x stay-awake probability.

    Seeds fold only the scenario (not q), so every q point of a family
    reuses the same realized deployment and coin streams — common random
    numbers make the per-family threshold curves monotone in q.
    """
    hop_near, hop_far = _hop_buckets(scale)
    return CampaignSpec.build(
        kind="ideal",
        axes={
            "scenario": tuple(spec for _, spec in portability_scenarios(scale)),
            "q": scale.ideal_q_values,
        },
        fixed={
            "p": scale.scenario_p,
            "n_broadcasts": scale.scenario_n_broadcasts,
            "mode": SchedulingMode.PSM_PBBF.value,
            "hop_near": hop_near,
            "hop_far": hop_far,
        },
        seed_params=("scenario",),
        n_seeds=scale.scenario_seeds,
        base_seed=scale.base_seed,
    )


def run_scen01(scale: Scale) -> ExperimentResult:
    """Reachability and per-hop latency vs pre-broadcast node failures."""
    campaign = run_campaign(failure_campaign(scale))
    panel = failure_scenarios(scale)
    series: List[Series] = []
    for p in scale.scenario_p_values:
        series.append(
            Series(
                label=f"coverage PBBF-{p:g}",
                points=tuple(
                    (
                        fraction,
                        campaign.mean_metric(
                            lambda m: m.mean_coverage, scenario=spec, p=p
                        ),
                    )
                    for fraction, spec in panel
                ),
            )
        )
    for p in scale.scenario_p_values:
        series.append(
            Series(
                label=f"latency/hop PBBF-{p:g}",
                points=tuple(
                    (
                        fraction,
                        campaign.mean_metric(
                            lambda m: m.mean_per_hop_latency, scenario=spec, p=p
                        ),
                    )
                    for fraction, spec in panel
                ),
            )
        )
    return ExperimentResult(
        experiment_id="scen01",
        title=(
            f"Reachability and latency vs node-failure fraction "
            f"(grid {scale.scenario_side}x{scale.scenario_side}, "
            f"q={scale.scenario_q:g})"
        ),
        x_label="failed node fraction",
        y_label="coverage (fraction) / per-hop latency (s)",
        series=tuple(series),
        expectation=(
            "Coverage decays gracefully while the surviving component "
            "percolates, then collapses once failures fragment it; higher "
            "p buys little against failures (dead nodes never forward).  "
            "Per-hop latency rises before the collapse as broadcasts "
            "route around the failed regions."
        ),
        notes=(
            "failures are injected before the first broadcast and count "
            "as unreached in coverage",
        ),
    )


def run_scen02(scale: Scale) -> ExperimentResult:
    """Coverage vs q across topology families at fixed p."""
    campaign = run_campaign(portability_campaign(scale))
    panel = portability_scenarios(scale)
    series = tuple(
        Series(
            label=label,
            points=tuple(
                (
                    q,
                    campaign.mean_metric(
                        lambda m: m.mean_coverage, scenario=spec, q=q
                    ),
                )
                for q in scale.ideal_q_values
            ),
        )
        for label, spec in panel
    )
    return ExperimentResult(
        experiment_id="scen02",
        title=(
            f"Topology portability of the p/q trade-off "
            f"(p={scale.scenario_p:g})"
        ),
        x_label="q",
        y_label="mean coverage (fraction of nodes reached)",
        series=series,
        expectation=(
            "Every family shows the same threshold structure in q, but "
            "the threshold moves with the deployment: dense unit-disk "
            "families (random, clustered) saturate at much lower q than "
            "the degree-4 lattices, the torus beats the open grid in the "
            "transition (no boundary losses), and carved-out failed "
            "regions push the grid's threshold right."
        ),
        notes=tuple(
            f"{label}: {spec.describe()}" for label, spec in panel
        ),
    )


# -- detailed-simulator scenario figures (scen03, scen04) -----------------

#: The sleep schedulers scen03 compares (see :mod:`repro.mac`).
SCEN03_SCHEDULERS = ("psm", "smac", "tmac")


def detailed_world_spec(
    scale: Scale, perturbations: Optional[Perturbations] = None
) -> ScenarioSpec:
    """The detailed figures' random deployment, as a scenario value.

    Matches the legacy ``RandomTopology.connected`` world (Table 2's
    radio range and density, random source) at the scale's node count, so
    only the perturbations distinguish the panel entries — realization
    draws placement from the same streams for every entry, keeping
    nominal-vs-perturbed comparisons paired (common random numbers).
    """
    return ScenarioSpec.build(
        "random",
        {
            "n_nodes": scale.detailed_scenario_nodes,
            "radio_range": 40.0,
            "density": 10.0,
        },
        source="random",
        perturbations=perturbations if perturbations is not None else Perturbations(),
    )


def _midrun_window(scale: Scale) -> Tuple[float, float]:
    """The death window in simulated seconds."""
    lo, hi = scale.midrun_window
    return (
        lo * scale.detailed_scenario_duration,
        hi * scale.detailed_scenario_duration,
    )


def midrun_failure_scenarios(
    scale: Scale,
) -> Tuple[Tuple[float, ScenarioSpec], ...]:
    """The (fraction, spec) panel scen03 sweeps — one world, rising deaths.

    Fraction 0 carries *no* ``failure_times`` sub-spec, so the nominal
    point's token (and therefore its run keys and cache entries) is the
    plain deployment any other detailed-scenario campaign would use.
    """
    start, end = _midrun_window(scale)
    panel = []
    for fraction in scale.midrun_failure_fractions:
        perturbations = (
            Perturbations(failure_times=FailureTimes(fraction, start, end))
            if fraction
            else Perturbations()
        )
        panel.append((fraction, detailed_world_spec(scale, perturbations)))
    return tuple(panel)


def midrun_failure_campaign(scale: Scale) -> CampaignSpec:
    """The scen03 sweep: mid-run failure fraction x sleep scheduler.

    Seeds fold only the operating point — *not* the scenario or the
    scheduler — so every (fraction, scheduler) cell of a seed index runs
    the same deployment, source, traffic and coin streams: the per-line
    trends and the cross-scheduler gaps are both paired comparisons.
    """
    return CampaignSpec.build(
        kind="detailed",
        axes={
            "scenario": tuple(
                spec for _, spec in midrun_failure_scenarios(scale)
            ),
            "scheduler": SCEN03_SCHEDULERS,
        },
        fixed={
            "p": scale.sched_p,
            "q": scale.sched_q,
            "mode": SchedulingMode.PSM_PBBF.value,
            "duration": scale.detailed_scenario_duration,
        },
        seed_params=("p", "q"),
        n_seeds=scale.scenario_seeds,
        base_seed=scale.base_seed,
        seed_with_run_index=True,
    )


def run_scen03(scale: Scale) -> ExperimentResult:
    """Detailed reachability/latency/energy vs mid-run failure fraction."""
    campaign = run_campaign(midrun_failure_campaign(scale))
    panel = midrun_failure_scenarios(scale)
    series: List[Series] = []
    metrics = (
        ("delivery", lambda m: m.updates_received_fraction),
        ("latency", lambda m: m.mean_update_latency),
        ("J/update", lambda m: m.joules_per_update_per_node),
    )
    for metric_label, metric in metrics:
        for scheduler in SCEN03_SCHEDULERS:
            series.append(
                Series(
                    label=f"{metric_label} {scheduler.upper()}",
                    points=tuple(
                        (
                            fraction,
                            campaign.mean_metric(
                                metric, scenario=spec, scheduler=scheduler
                            ),
                        )
                        for fraction, spec in panel
                    ),
                )
            )
    start, end = _midrun_window(scale)
    return ExperimentResult(
        experiment_id="scen03",
        title=(
            f"Detailed broadcast under mid-run node deaths "
            f"(p={scale.sched_p:g}, q={scale.sched_q:g}, "
            f"N={scale.detailed_scenario_nodes})"
        ),
        x_label="mid-run failed node fraction",
        y_label="delivery (fraction) / latency (s) / J per update",
        series=tuple(series),
        expectation=(
            "Delivery decays with the death fraction on every scheduler "
            "but degrades gracefully rather than collapsing: updates "
            "generated before a death still spread, and PBBF's redundant "
            "immediate broadcasts route around fresh holes.  Latency "
            "drifts up as broadcasts detour around the holes, while the "
            "*per-node* energy mean falls — dead radios idle at sleep "
            "power, so the survivors' real cost is masked in the "
            "network-wide average.  The scheduler ranking is preserved "
            "from the loss study (sched01): deaths hit all three alike."
        ),
        notes=(
            f"deaths drawn uniformly over [{start:g}, {end:g}] s "
            "(mid-run; see Perturbations.failure_times)",
            "seeds fold only (p, q): every cell of a seed index shares "
            "deployment, traffic and coins (paired comparison)",
        ),
    )


def frontier_robustness_scenarios(
    scale: Scale,
) -> Tuple[Tuple[str, ScenarioSpec], ...]:
    """scen04's (label, spec) pair: the nominal world and its perturbed twin."""
    start, end = _midrun_window(scale)
    perturbed = Perturbations(
        failure_times=FailureTimes(
            scale.scen04_failure_fraction, start, end
        ),
        clock_skew=ClockSkew(scale.scen04_skew_std),
    )
    return (
        ("nominal", detailed_world_spec(scale)),
        ("perturbed", detailed_world_spec(scale, perturbed)),
    )


def frontier_robustness_campaign(scale: Scale) -> CampaignSpec:
    """The scen04 sweep: (p, q) grid x {nominal, perturbed} world.

    Seeds fold only (p, q), so each operating point's nominal and
    perturbed runs share deployment, traffic and coin streams — the
    frontier shift is measured under common random numbers, not
    re-sampled worlds.
    """
    return CampaignSpec.build(
        kind="detailed",
        axes={
            "scenario": tuple(
                spec for _, spec in frontier_robustness_scenarios(scale)
            ),
            "p": scale.detailed_p_values,
            "q": scale.detailed_q_values,
        },
        fixed={
            "mode": SchedulingMode.PSM_PBBF.value,
            "duration": scale.detailed_scenario_duration,
        },
        seed_params=("p", "q"),
        n_seeds=scale.detailed_runs,
        base_seed=scale.base_seed,
        seed_with_run_index=True,
    )


def run_scen04(scale: Scale) -> ExperimentResult:
    """Static (p, q) frontier robustness under skew + mid-run deaths."""
    from repro.analysis.compare import compare_frontiers
    from repro.analysis.objectives import Constraint
    from repro.experiments.pareto_figures import (
        _comparison_notes,
        _frontier_series,
        energy_objective,
        family_frontiers,
        frontier_table,
        update_latency_objective,
    )

    objectives = (update_latency_objective(), energy_objective())
    constraint = Constraint(
        name="delivery",
        metric=lambda m: m.updates_received_fraction,
        bound=scale.scen04_delivery,
        sense="ge",
    )
    panel = frontier_robustness_scenarios(scale)
    frontiers = family_frontiers(
        run_campaign(frontier_robustness_campaign(scale)),
        panel,
        objectives,
        (constraint,),
        scale.bootstrap_resamples,
    )
    populated = {name: f for name, f in frontiers.items() if f.points}
    comparison = compare_frontiers(populated) if populated else None
    notes = list(_comparison_notes(frontiers, comparison))
    if len(populated) == 2:
        nominal_hv = comparison.summary("nominal").hypervolume
        perturbed_hv = comparison.summary("perturbed").hypervolume
        if nominal_hv > 0.0:
            notes.append(
                f"perturbed frontier retains "
                f"{perturbed_hv / nominal_hv:.0%} of the nominal "
                f"hypervolume (shared reference)"
            )
        notes.append(
            f"coverage C(nominal, perturbed)="
            f"{comparison.coverage[('nominal', 'perturbed')]:.2f}, "
            f"C(perturbed, nominal)="
            f"{comparison.coverage[('perturbed', 'nominal')]:.2f}"
        )
    header: Tuple[str, ...] = ()
    rows: Tuple[Tuple[str, ...], ...] = ()
    if populated:
        header, rows = frontier_table(frontiers)
    series = tuple(
        _frontier_series(name, frontiers[name])
        for name, _ in panel
        if frontiers[name].points
    )
    return ExperimentResult(
        experiment_id="scen04",
        title=(
            f"Frontier robustness under skew + mid-run deaths "
            f"(delivery >= {scale.scen04_delivery:g}, "
            f"skew std {scale.scen04_skew_std:g}s, "
            f"deaths {scale.scen04_failure_fraction:g})"
        ),
        x_label="mean update latency (s)",
        y_label="joules consumed / update (per node)",
        series=series,
        expectation=(
            "The trade-off structure survives the perturbations: the "
            "perturbed frontier keeps the inverse energy-latency shape "
            "and most of the nominal hypervolume, shifted rather than "
            "destroyed.  Feasibility shrinks first — skewed ATIM windows "
            "and mid-run deaths push low-q points under the delivery "
            "floor — while latency drifts up along what remains.  "
            "Per-node energy can read *lower* under deaths (dead radios "
            "idle at sleep power and dilute the mean), so the coverage "
            "notes, not a single axis, carry the comparison; high-q "
            "points degrade least (always-awake neighbours mask both "
            "skew and deaths)."
        ),
        notes=tuple(notes)
        + tuple(f"{label}: {spec.describe()}" for label, spec in panel),
        frontier_header=header,
        frontier_rows=rows,
    )
