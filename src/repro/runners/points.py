"""Point evaluators: one simulated parameter point boiled down to metrics.

This is the only module the execution backends call into, and it is the
layering boundary of the runner subsystem: it imports simulator packages
(:mod:`repro.ideal`, :mod:`repro.detailed`, :mod:`repro.percolation`) but
never the experiment harness, so :mod:`repro.experiments` can build on the
runner without an import cycle.

Each evaluator is a pure function of ``(params, seed)`` — identical inputs
give bit-identical metrics in any process — which is what makes the
serial and process-pool backends interchangeable and the disk cache safe.
Metric bundles are flat dataclasses of JSON-representable scalars so they
survive both pickling (process pool) and the JSON cache round-trip
without loss (``repr``-exact floats).

Scenario resolution: all three kinds accept a ``scenario`` parameter — a
:attr:`repro.scenarios.ScenarioSpec.token` string naming the topology
family, source policy and perturbations (pre-broadcast failures, mid-run
death schedules, clock skew) — which replaces the legacy hard-coded
worlds (``GridTopology(grid_side)`` for ideal/percolation,
``RandomTopology.connected(density)`` for detailed).  Points *without* a
scenario run the legacy world through the unchanged code path and keep
their legacy parameter layout, so their run keys (and therefore every
existing cache entry) are unchanged — the same default-omission contract
the ``detailed`` kind uses for ``scheduler`` and ``loss_probability``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode
from repro.net.topology import Topology
from repro.obs import get_recorder
from repro.percolation.site import coverage_site_fraction
from repro.percolation.threshold import estimate_critical_bond_fraction
from repro.scenarios import RealizedScenario, ScenarioSpec
from repro.util.stats import summarize


@dataclass(frozen=True)
class IdealPointMetrics:
    """Everything the Section 4 figures need from one operating point."""

    reliability_90: float
    reliability_99: float
    joules_per_update_per_node: float
    mean_per_hop_latency: Optional[float]
    mean_hops_near: Optional[float]
    mean_hops_far: Optional[float]
    mean_coverage: float


@dataclass(frozen=True)
class DetailedPointMetrics:
    """Everything the Section 5 figures need from one run."""

    joules_per_update_per_node: float
    latency_2hop: Optional[float]
    latency_5hop: Optional[float]
    updates_received_fraction: float
    mean_update_latency: Optional[float]
    n_2hop_nodes: int
    n_5hop_nodes: int


@dataclass(frozen=True)
class PercolationPointMetrics:
    """Critical-fraction estimate for one (grid, coverage) point."""

    critical_fraction: float
    ci95: float
    n_runs: int


_METRICS_TYPES = {
    "ideal": IdealPointMetrics,
    "detailed": DetailedPointMetrics,
    "percolation": PercolationPointMetrics,
}


def _realized_scenario(scenario_token: str, seed: int) -> RealizedScenario:
    """The world ``scenario_token`` realizes to at ``seed``, memoized.

    Every evaluator realizes its world here.  A seed-free spec
    (:attr:`ScenarioSpec.seed_free`) realizes to the same world at every
    seed, so its memo entry is keyed on the token alone: one realization,
    with its CSR and padded views and its BFS memo, serves every point in
    the process, whatever its seed (the seed still keys the point's
    coins).  Other specs key on ``(token, seed)``, which still lets
    campaigns that fold only the scenario into the seed sweep many p/q
    points over one realized world.  :func:`clear_point_caches` empties
    the memo.
    """
    seed_free = ScenarioSpec.from_token(scenario_token).seed_free
    return _realize(scenario_token, None if seed_free else seed)


@lru_cache(maxsize=64)
def _realize(scenario_token: str, seed: Optional[int]) -> RealizedScenario:
    """Realize ``scenario_token`` at ``seed`` (``None``: seed-free, at 0)."""
    with get_recorder().span("phase.realize", kind="scenario", seed=seed):
        return ScenarioSpec.from_token(scenario_token).realize(
            0 if seed is None else seed
        )


def _summarize_ideal_campaign(
    simulator: IdealSimulator, n_broadcasts: int, hop_near: int, hop_far: int
) -> IdealPointMetrics:
    """Run one ideal-simulator campaign and summarise the figure metrics."""
    recorder = get_recorder()
    with recorder.span("phase.simulate", kind="ideal"):
        campaign = simulator.run_campaign(n_broadcasts)
    with recorder.span("phase.analyze", kind="ideal"):
        return IdealPointMetrics(
            reliability_90=campaign.reliability(0.90),
            reliability_99=campaign.reliability(0.99),
            joules_per_update_per_node=campaign.joules_per_update_per_node(),
            mean_per_hop_latency=campaign.mean_per_hop_latency(),
            mean_hops_near=campaign.mean_hops_at_distance(hop_near),
            mean_hops_far=campaign.mean_hops_at_distance(hop_far),
            mean_coverage=campaign.mean_coverage(),
        )


@lru_cache(maxsize=4096)
def _ideal_point(
    grid_side: int,
    n_broadcasts: int,
    p: float,
    q: float,
    mode_value: str,
    seed: int,
    hop_near: int,
    hop_far: int,
) -> IdealPointMetrics:
    """The legacy grid point, resolved through the default grid scenario.

    ``ScenarioSpec.grid_default`` is seed-free (grid placement and centre
    source are deterministic), so every point shares one realization and
    the result is bit-identical to the pre-scenario
    ``GridTopology(grid_side)`` path — the parity goldens in
    tests/scenarios lock that in.
    """
    realized = _realized_scenario(
        ScenarioSpec.grid_default(grid_side).token, seed
    )
    simulator = IdealSimulator(
        realized.topology,
        PBBFParams(p=p, q=q),
        AnalysisParameters(grid_side=grid_side),
        seed=seed,
        source=realized.source,
        mode=SchedulingMode(mode_value),
    )
    return _summarize_ideal_campaign(simulator, n_broadcasts, hop_near, hop_far)


@lru_cache(maxsize=4096)
def _ideal_scenario_point(
    scenario_token: str,
    n_broadcasts: int,
    p: float,
    q: float,
    mode_value: str,
    seed: int,
    hop_near: int,
    hop_far: int,
) -> IdealPointMetrics:
    """One ideal-simulator campaign on an arbitrary realized scenario."""
    realized = _realized_scenario(scenario_token, seed)
    simulator = IdealSimulator(
        realized.topology,
        PBBFParams(p=p, q=q),
        AnalysisParameters(),
        seed=seed,
        source=realized.source,
        mode=SchedulingMode(mode_value),
        failed_nodes=realized.failed_nodes,
    )
    return _summarize_ideal_campaign(simulator, n_broadcasts, hop_near, hop_far)


def _summarize_detailed(metrics) -> DetailedPointMetrics:
    """Boil one detailed run's :class:`BroadcastMetrics` down to the bundle."""
    return DetailedPointMetrics(
        joules_per_update_per_node=metrics.joules_per_update_per_node(),
        latency_2hop=metrics.mean_latency_at_distance(2),
        latency_5hop=metrics.mean_latency_at_distance(5),
        updates_received_fraction=metrics.mean_updates_received_fraction(),
        mean_update_latency=metrics.mean_update_latency(),
        n_2hop_nodes=len(metrics.nodes_at_distance(2)),
        n_5hop_nodes=len(metrics.nodes_at_distance(5)),
    )


@lru_cache(maxsize=8192)
def _detailed_run(
    p: float,
    q: float,
    density: float,
    mode_value: str,
    duration: float,
    seed: int,
    scheduler: str = "psm",
    loss_probability: float = 0.0,
) -> DetailedPointMetrics:
    """One detailed-simulator scenario boiled down to its figure metrics."""
    # Imported lazily: the detailed stack is the heaviest import chain and
    # ideal/percolation campaigns never need it.
    from repro.detailed.config import CodeDistributionParameters
    from repro.detailed.simulator import DetailedSimulator

    mode = SchedulingMode(mode_value)
    config = CodeDistributionParameters(density=density, duration=duration)
    simulator = DetailedSimulator(
        PBBFParams(p=p, q=q),
        config,
        seed=seed,
        mode=mode,
        scheduler=scheduler,
        loss_probability=loss_probability,
    )
    recorder = get_recorder()
    with recorder.span("phase.simulate", kind="detailed", seed=seed):
        result = simulator.run()
    with recorder.span("phase.analyze", kind="detailed"):
        return _summarize_detailed(result.metrics)


@lru_cache(maxsize=8192)
def _detailed_scenario_point(
    scenario_token: str,
    p: float,
    q: float,
    mode_value: str,
    duration: float,
    seed: int,
    scheduler: str = "psm",
    loss_probability: float = 0.0,
) -> DetailedPointMetrics:
    """One detailed run on an arbitrary realized scenario.

    The scenario supplies the deployment, source, pre-broadcast failed
    set, mid-run death schedule and clock offsets; the config is sized to
    the realized topology (``density`` is a scenario family parameter
    here, not a campaign one, so the legacy ``density`` axis does not
    appear in scenario-resolved points).
    """
    from repro.detailed.config import CodeDistributionParameters
    from repro.detailed.simulator import DetailedSimulator

    realized = _realized_scenario(scenario_token, seed)
    config = CodeDistributionParameters.for_topology(
        realized.topology, duration=duration
    )
    simulator = DetailedSimulator(
        PBBFParams(p=p, q=q),
        config,
        seed=seed,
        mode=SchedulingMode(mode_value),
        scheduler=scheduler,
        loss_probability=loss_probability,
        scenario=realized,
    )
    recorder = get_recorder()
    with recorder.span("phase.simulate", kind="detailed-scenario", seed=seed):
        result = simulator.run()
    with recorder.span("phase.analyze", kind="detailed-scenario"):
        return _summarize_detailed(result.metrics)


@lru_cache(maxsize=2048)
def _detailed_adaptive_run(
    p: float,
    q: float,
    density: float,
    mode_value: str,
    duration: float,
    seed: int,
    scheduler: str,
    loss_probability: float,
    adaptive: str,
) -> DetailedPointMetrics:
    """One detailed run under the adaptive p/q controller.

    ``(p, q)`` are the controller's *starting* operating point and
    ``adaptive`` an :attr:`repro.adaptive.AdaptivePolicy.token` string;
    every node gets its own :class:`~repro.adaptive.AdaptivePBBFAgent`
    seeded from the run's named streams, so the run stays a pure function
    of its parameters like every other evaluator.
    """
    from repro.adaptive import AdaptivePBBFAgent, AdaptivePolicy
    from repro.detailed.config import CodeDistributionParameters
    from repro.detailed.simulator import DetailedSimulator

    policy = AdaptivePolicy.from_token(adaptive)
    start = PBBFParams(p=p, q=q)

    def factory(node_id: int, rng: random.Random) -> AdaptivePBBFAgent:
        return AdaptivePBBFAgent(start, rng, policy=policy)

    config = CodeDistributionParameters(density=density, duration=duration)
    simulator = DetailedSimulator(
        start,
        config,
        seed=seed,
        mode=SchedulingMode(mode_value),
        scheduler=scheduler,
        loss_probability=loss_probability,
        agent_factory=factory,
    )
    recorder = get_recorder()
    with recorder.span("phase.simulate", kind="detailed-adaptive", seed=seed):
        result = simulator.run()
    with recorder.span("phase.analyze", kind="detailed-adaptive"):
        return _summarize_detailed(result.metrics)


def _percolation_summary(
    topology: Topology,
    label: str,
    reliability: float,
    runs: int,
    seed: int,
    process: str,
) -> PercolationPointMetrics:
    """Critical bond/site fraction summary on one concrete topology."""
    if process not in ("bond", "site"):
        raise ValueError(f"process must be 'bond' or 'site', got {process!r}")
    recorder = get_recorder()
    rng = random.Random(seed)
    with recorder.span("phase.simulate", kind="percolation", seed=seed):
        if process == "bond":
            thresholds = estimate_critical_bond_fraction(
                topology, (reliability,), rng, runs=runs, grid_label=label
            )
            summary = thresholds.threshold_for(reliability)
        else:
            summary = summarize(
                coverage_site_fraction(topology, reliability, rng, runs=runs)
            )
    with recorder.span("phase.analyze", kind="percolation"):
        return PercolationPointMetrics(
            critical_fraction=summary.mean, ci95=summary.ci95, n_runs=summary.n
        )


@lru_cache(maxsize=512)
def _percolation_point(
    grid_side: int,
    reliability: float,
    runs: int,
    seed: int,
    process: str = "bond",
) -> PercolationPointMetrics:
    """The legacy grid point, resolved through the default grid scenario.

    Like :func:`_ideal_point`, it shares the default grid's one
    realization, so results and run keys are bit-identical to the
    pre-scenario ``GridTopology(grid_side)`` path.
    """
    realized = _realized_scenario(
        ScenarioSpec.grid_default(grid_side).token, seed
    )
    return _percolation_summary(
        realized.topology,
        f"{grid_side}x{grid_side}",
        reliability,
        runs,
        seed,
        process,
    )


@lru_cache(maxsize=512)
def _percolation_scenario_point(
    scenario_token: str,
    reliability: float,
    runs: int,
    seed: int,
    process: str = "bond",
) -> PercolationPointMetrics:
    """Critical-fraction summary on an arbitrary realized scenario.

    The percolation process itself is the failure model here, so the
    scenario's source policy and failure fraction are ignored — only the
    topology family matters.
    """
    realized = _realized_scenario(scenario_token, seed)
    return _percolation_summary(
        realized.topology,
        realized.spec.describe(),
        reliability,
        runs,
        seed,
        process,
    )


@lru_cache(maxsize=512)
def _detailed_seed_batch(
    p: float,
    q: float,
    density: Optional[float],
    scenario_token: Optional[str],
    mode_value: str,
    duration: float,
    loss_probability: float,
    seeds: Tuple[int, ...],
) -> Tuple[DetailedPointMetrics, ...]:
    """One point's whole seed list through the seed-batched kernel.

    Builds the same per-seed :class:`DetailedSimulator` objects the
    singular evaluators would and hands them to
    :func:`repro.detailed.batched.run_batch` in one call, so machinery
    instants are advanced once for every seed instead of once per seed.
    Results are bit-identical to the per-seed evaluators (the parity
    suite locks this in), so memo entries, run keys and cache payloads
    are interchangeable with theirs.  The caller has checked the
    configuration against the kernel's scope.
    """
    from repro.detailed.batched import run_batch
    from repro.detailed.config import CodeDistributionParameters
    from repro.detailed.simulator import DetailedSimulator

    recorder = get_recorder()
    pbbf = PBBFParams(p=p, q=q)
    mode = SchedulingMode(mode_value)
    sims = []
    with recorder.span("phase.realize", kind="detailed-batch",
                       seeds=len(seeds)):
        for seed in seeds:
            if scenario_token is None:
                config = CodeDistributionParameters(
                    density=density, duration=duration
                )
                sim = DetailedSimulator(
                    pbbf,
                    config,
                    seed=seed,
                    mode=mode,
                    loss_probability=loss_probability,
                )
            else:
                realized = _realized_scenario(scenario_token, seed)
                config = CodeDistributionParameters.for_topology(
                    realized.topology, duration=duration
                )
                sim = DetailedSimulator(
                    pbbf,
                    config,
                    seed=seed,
                    mode=mode,
                    loss_probability=loss_probability,
                    scenario=realized,
                )
            sims.append(sim)
    with recorder.span("phase.simulate", kind="detailed-batch",
                       seeds=len(seeds)):
        results = run_batch(sims)
    with recorder.span("phase.analyze", kind="detailed-batch"):
        return tuple(
            _summarize_detailed(result.metrics) for result in results
        )


def evaluate_run_batch(
    kind: str, params: Mapping[str, Any], seeds: Sequence[int]
) -> List[Any]:
    """Evaluate one campaign point at every seed, batching when possible.

    The batched path triggers for multi-seed ``detailed`` points inside
    the seed-batched kernel's scope
    (:func:`repro.detailed.batched.fallback_reason`, which also honours
    the ambient ``detailed_fast_path`` flag); everything else — other
    kinds, single seeds, out-of-scope configurations — degrades to a
    plain :func:`evaluate_run` loop.  Either way the returned bundles are
    bit-identical and in seed order, so callers need not know which path
    ran.
    """
    seeds = list(seeds)
    if (
        kind == "detailed"
        and len(seeds) > 1
        and _detailed_fallback_reason(params) is None
    ):
        return list(
            _detailed_seed_batch(
                float(params["p"]),
                float(params["q"]),
                None if "scenario" in params else float(params["density"]),
                str(params["scenario"]) if "scenario" in params else None,
                str(params["mode"]),
                float(params["duration"]),
                float(params.get("loss_probability", 0.0)),
                tuple(seeds),
            )
        )
    return [evaluate_run(kind, params, seed) for seed in seeds]


def _detailed_fallback_reason(params: Mapping[str, Any]) -> Optional[str]:
    """The batched kernel's fallback reason for a detailed point's params."""
    from repro.detailed.batched import fallback_reason
    from repro.runners.context import get_execution

    return fallback_reason(
        SchedulingMode(str(params["mode"])),
        str(params.get("scheduler", "psm")),
        # An adaptive point installs its controller as the agent factory.
        agent_factory=params.get("adaptive"),
        fast_path=get_execution().detailed_fast_path,
    )


def evaluate_run(kind: str, params: Mapping[str, Any], seed: int):
    """Evaluate one campaign run and return its typed metrics bundle.

    The ``scenario`` parameter (a :class:`~repro.scenarios.ScenarioSpec`
    token, present only when a campaign sweeps scenario axes) selects the
    scenario-resolved evaluator; its absence keeps the legacy parameter
    layout so existing run keys and cache entries stay valid.  The
    ``detailed`` kind likewise accepts an optional ``adaptive`` parameter
    (an :class:`~repro.adaptive.AdaptivePolicy` token) selecting the
    adaptive-controller evaluator under the same default-omission
    contract.
    """
    if kind == "ideal":
        common: Tuple[Any, ...] = (
            int(params["n_broadcasts"]),
            float(params["p"]),
            float(params["q"]),
            str(params["mode"]),
            seed,
            int(params["hop_near"]),
            int(params["hop_far"]),
        )
        if "scenario" in params:
            return _ideal_scenario_point(str(params["scenario"]), *common)
        return _ideal_point(int(params["grid_side"]), *common)
    if kind == "detailed":
        scheduler = str(params.get("scheduler", "psm"))
        loss = float(params.get("loss_probability", 0.0))
        if "scenario" in params:
            # Scenario-resolved points carry no density axis (deployment
            # comes from the realized scenario); adaptive control on
            # scenario worlds is not wired up yet, so fail loudly rather
            # than silently dropping the perturbations.
            if "adaptive" in params:
                raise ValueError(
                    "the detailed evaluator does not support 'adaptive' "
                    "and 'scenario' on the same point yet"
                )
            return _detailed_scenario_point(
                str(params["scenario"]),
                float(params["p"]),
                float(params["q"]),
                str(params["mode"]),
                float(params["duration"]),
                seed,
                scheduler,
                loss,
            )
        args = (
            float(params["p"]),
            float(params["q"]),
            float(params["density"]),
            str(params["mode"]),
            float(params["duration"]),
            seed,
        )
        if "adaptive" in params:
            # The adaptive-controller variant: present only when a
            # campaign opts in, so static points keep their legacy
            # layout, run keys and cache entries.
            return _detailed_adaptive_run(
                *args, scheduler, loss, str(params["adaptive"])
            )
        if loss != 0.0:
            return _detailed_run(*args, scheduler, loss)
        if scheduler == "psm":
            # Omit the defaults so the lru_cache key matches legacy direct
            # callers (which pass six positional args) and the two paths
            # share entries instead of re-simulating.
            return _detailed_run(*args)
        return _detailed_run(*args, scheduler)
    if kind == "percolation":
        # Positional, matching critical_fraction's direct calls, so both
        # paths share one lru_cache entry per point.
        tail = (
            float(params["reliability"]),
            int(params["runs"]),
            seed,
            str(params.get("process", "bond")),
        )
        if "scenario" in params:
            return _percolation_scenario_point(str(params["scenario"]), *tail)
        return _percolation_point(int(params["grid_side"]), *tail)
    raise ValueError(f"unknown campaign kind {kind!r}")


def metrics_to_dict(metrics: Any) -> Dict[str, Any]:
    """Flatten a metrics dataclass for pickling / JSON storage."""
    return asdict(metrics)


def metrics_from_dict(kind: str, payload: Mapping[str, Any]):
    """Rebuild the typed metrics bundle for ``kind`` from a flat dict."""
    try:
        cls = _METRICS_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown campaign kind {kind!r}") from None
    return cls(**payload)


def validate_flat_metrics(kind: str, flat: Any) -> bool:
    """Whether ``flat`` rebuilds into ``kind``'s metrics bundle.

    The backends' sanity gate on whatever a worker hands back: a result
    that would blow up later in :func:`metrics_from_dict` — or one
    substituted by a corrupt-result fault — is rejected here so the
    failure charges the task's retry budget instead of the campaign.
    """
    if not isinstance(flat, Mapping):
        return False
    try:
        metrics_from_dict(kind, flat)
    except (TypeError, ValueError):
        return False
    return True


def clear_point_caches() -> None:
    """Drop the in-process memo of every point evaluator (benchmarks)."""
    _ideal_point.cache_clear()
    _ideal_scenario_point.cache_clear()
    _detailed_run.cache_clear()
    _detailed_scenario_point.cache_clear()
    _detailed_adaptive_run.cache_clear()
    _detailed_seed_batch.cache_clear()
    _percolation_point.cache_clear()
    _percolation_scenario_point.cache_clear()
    _realize.cache_clear()
