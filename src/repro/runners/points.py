"""Point evaluators: one simulated parameter point boiled down to metrics.

This is the only module the execution backends call into, and it is the
layering boundary of the runner subsystem: it imports simulator packages
(:mod:`repro.ideal`, :mod:`repro.detailed`, :mod:`repro.percolation`) but
never the experiment harness, so :mod:`repro.experiments` can build on the
runner without an import cycle.

Each simulator kind has one evaluator, ``evaluate(runs, reference)``,
which takes ``(params, seed)`` pairs and returns one metrics bundle per
pair, in order; :data:`EVALUATORS` holds it beside the kind's metrics
type.  The ideal evaluator runs the pairs that share a world through as
few kernel calls as :data:`IDEAL_CALL_CELLS` allows.  Evaluation is a
pure function of ``(params, seed)`` — identical inputs give
bit-identical metrics in any process — which is what makes the serial
and process-pool backends interchangeable and the disk cache safe.  Metric bundles are flat
dataclasses of JSON-representable scalars so they survive both pickling
(process pool) and the JSON cache round-trip without loss
(``repr``-exact floats).

No evaluator is memoized: :func:`~repro.runners.campaign.run_campaign`
hands a backend only runs whose key it has not memoized yet.  The one
in-process cache here is the scenario memo behind
:func:`_realized_scenario` (with the seed-free flag of each token).

Evaluators run each simulator's fast kernel; only degraded attempts
(``on_exhausted="degrade"``) pass ``reference=True`` to
:func:`evaluate_runs` for the reference loops.  Percolation has one
kernel.

Scenario resolution: all three kinds accept a ``scenario`` parameter — a
:attr:`repro.scenarios.ScenarioSpec.token` string naming the topology
family, source policy and perturbations (pre-broadcast failures, mid-run
death schedules, clock skew).  Without one, ideal and percolation points
run on :meth:`ScenarioSpec.grid_default` of their ``grid_side`` and
detailed points sample ``RandomTopology.connected`` at their
``density``.  Run keys hash the parameters as given, so points that
leave ``scenario`` out keep their legacy layout and run keys (and
therefore every existing cache entry) — the same default-omission
contract the ``detailed`` kind uses for ``scheduler``,
``loss_probability`` and ``adaptive``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode, run_campaigns
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


#: One run to evaluate: the point's parameters and the run's seed.
RunInput = Tuple[Mapping[str, Any], int]


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
    return _realize(scenario_token, None if _seed_free(scenario_token) else seed)


@lru_cache(maxsize=256)
def _seed_free(scenario_token: str) -> bool:
    """:attr:`ScenarioSpec.seed_free` of ``scenario_token``, memoized."""
    return ScenarioSpec.from_token(scenario_token).seed_free


@lru_cache(maxsize=64)
def _realize(scenario_token: str, seed: Optional[int]) -> RealizedScenario:
    """Realize ``scenario_token`` at ``seed`` (``None``: seed-free, at 0)."""
    with get_recorder().span("phase.realize", kind="scenario", seed=seed):
        return ScenarioSpec.from_token(scenario_token).realize(
            0 if seed is None else seed
        )


def _grid_or_scenario(
    params: Mapping[str, Any], seed: int
) -> RealizedScenario:
    """An ideal or percolation point's world: its scenario, else its grid.

    ``ScenarioSpec.grid_default`` is seed-free (grid placement and centre
    source are deterministic), so every legacy grid point shares one
    realization, bit-identical to the pre-scenario
    ``GridTopology(grid_side)`` path — the parity goldens in
    tests/scenarios lock that in.
    """
    return _realized_scenario(_world_token(params), seed)


def _world_token(params: Mapping[str, Any]) -> str:
    """The scenario token of an ideal or percolation point's world."""
    if "scenario" in params:
        return str(params["scenario"])
    return ScenarioSpec.grid_default(int(params["grid_side"])).token


def seed_free_world(params: Mapping[str, Any]) -> bool:
    """Whether an ideal point's world is the same at every seed."""
    return _seed_free(_world_token(params))


#: Most (broadcast x node) cells one ideal kernel call holds; a campaign
#: larger than this runs alone.  Measured as perfbench ``fast-jobs2``'s
#: ``peak_rss_mb`` against one call per point (2 vCPU Xeon): 2**17 cells
#: cost +8.4-9.2%, 2**16 +3.5-5.3% (+1.2-4.5% over 12 pairs, median
#: +3.0%, for a 15% lower ``cpu_s``) and 2**15 +0.3-1.1% with a smaller
#: saving; 2**16 is the best trade measured.  A paper-scale point (75x75
#: grid, 50 broadcasts: 281k cells) exceeds it.
IDEAL_CALL_CELLS = 1 << 16


def _ideal_calls(members: Sequence[int], cells: int) -> List[Sequence[int]]:
    """``members`` cut into as few even kernel calls as the budget allows."""
    per_call = max(1, IDEAL_CALL_CELLS // cells)
    n_calls = -(-len(members) // per_call)
    bounds = [len(members) * k // n_calls for k in range(n_calls + 1)]
    return [members[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _ideal_metrics(
    campaign, hop_near: int, hop_far: int
) -> IdealPointMetrics:
    """The figure metrics of one ideal-simulator campaign."""
    return IdealPointMetrics(
        reliability_90=campaign.reliability(0.90),
        reliability_99=campaign.reliability(0.99),
        joules_per_update_per_node=campaign.joules_per_update_per_node(),
        mean_per_hop_latency=campaign.mean_per_hop_latency(),
        mean_hops_near=campaign.mean_hops_at_distance(hop_near),
        mean_hops_far=campaign.mean_hops_at_distance(hop_far),
        mean_coverage=campaign.mean_coverage(),
    )


def _summarize_ideal_campaign(
    simulator: IdealSimulator, n_broadcasts: int, hop_near: int, hop_far: int,
    reference: bool = False,
) -> IdealPointMetrics:
    """Run one ideal-simulator campaign and summarise the figure metrics."""
    return _run_ideal_call(
        [simulator], n_broadcasts, [(hop_near, hop_far)], reference
    )[0]


def _ideal_simulator(params: Mapping[str, Any], seed: int) -> IdealSimulator:
    """The :class:`IdealSimulator` an ideal point runs at ``seed``."""
    realized = _grid_or_scenario(params, seed)
    return IdealSimulator(
        realized.topology,
        PBBFParams(p=float(params["p"]), q=float(params["q"])),
        AnalysisParameters(),
        seed=seed,
        source=realized.source,
        mode=SchedulingMode(str(params["mode"])),
        failed_nodes=realized.failed_nodes,
    )


def _evaluate_ideal(
    runs: Sequence[RunInput], reference: bool
) -> List[IdealPointMetrics]:
    """One ideal-simulator campaign per run, runs on one world batched.

    Runs whose simulators share a realized topology and a broadcast
    count go through :func:`~repro.ideal.simulator.run_campaigns`
    together, at most :data:`IDEAL_CALL_CELLS` cells a call, and each
    call's campaigns are summarised and dropped before the next starts.
    ``reference`` runs each campaign alone, on the scalar loop.
    """
    sims = [_ideal_simulator(params, seed) for params, seed in runs]
    hop_buckets = [
        (int(params["hop_near"]), int(params["hop_far"])) for params, _ in runs
    ]
    worlds: Dict[Tuple[int, int], List[int]] = {}
    for index, ((params, _), sim) in enumerate(zip(runs, sims)):
        world = (id(sim.topology), int(params["n_broadcasts"]))
        worlds.setdefault(world, []).append(index)
    bundles: List[Any] = [None] * len(runs)
    for (_, n_broadcasts), members in worlds.items():
        cells = n_broadcasts * sims[members[0]].topology.n_nodes
        calls = [[i] for i in members] if reference else _ideal_calls(members, cells)
        for call in calls:
            metrics = _run_ideal_call(
                [sims[i] for i in call],
                n_broadcasts,
                [hop_buckets[i] for i in call],
                reference,
            )
            for index, bundle in zip(call, metrics):
                bundles[index] = bundle
    return bundles


def _run_ideal_call(
    sims: Sequence[IdealSimulator],
    n_broadcasts: int,
    hop_buckets: Sequence[Tuple[int, int]],
    reference: bool = False,
) -> List[IdealPointMetrics]:
    """The metrics of one kernel call; its campaigns die when it returns."""
    recorder = get_recorder()
    with recorder.span("phase.simulate", kind="ideal", points=len(sims)):
        if reference:
            campaigns = [sim.run_campaign_reference(n_broadcasts) for sim in sims]
        elif len(sims) == 1:
            # A lone campaign takes its simulator's own entry point, the
            # one perfbench's ``ideal.kernel`` layer times.
            campaigns = [sims[0].run_campaign(n_broadcasts)]
        else:
            campaigns = run_campaigns(sims, n_broadcasts)
    with recorder.span("phase.analyze", kind="ideal"):
        return [
            _ideal_metrics(campaign, *buckets)
            for campaign, buckets in zip(campaigns, hop_buckets)
        ]


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


def _detailed_simulator(params: Mapping[str, Any], seed: int):
    """The :class:`DetailedSimulator` a detailed point runs at ``seed``.

    The world is the point's scenario (deployment, source, pre-broadcast
    failed set, mid-run death schedule and clock offsets, with the config
    sized to the realized topology) or, without one, a connected random
    deployment at the point's ``density``.  An ``adaptive`` parameter
    (an :attr:`repro.adaptive.AdaptivePolicy.token`) hands the simulator
    that policy: every node runs the controller from ``(p, q)``, seeded
    from the run's named streams, so the run stays a pure function of its
    parameters.
    """
    # Imported lazily: the detailed stack is the heaviest import chain and
    # ideal/percolation campaigns never need it.
    from repro.detailed.config import CodeDistributionParameters
    from repro.detailed.simulator import DetailedSimulator

    pbbf = PBBFParams(p=float(params["p"]), q=float(params["q"]))
    duration = float(params["duration"])
    scenario = None
    if "scenario" in params:
        scenario = _realized_scenario(str(params["scenario"]), seed)
        config = CodeDistributionParameters.for_topology(
            scenario.topology, duration=duration
        )
    else:
        config = CodeDistributionParameters(
            density=float(params["density"]), duration=duration
        )
    adaptive = None
    if "adaptive" in params:
        from repro.adaptive import AdaptivePolicy

        adaptive = AdaptivePolicy.from_token(str(params["adaptive"]))
    return DetailedSimulator(
        pbbf,
        config,
        seed=seed,
        mode=SchedulingMode(str(params["mode"])),
        scheduler=str(params.get("scheduler", "psm")),
        loss_probability=float(params.get("loss_probability", 0.0)),
        scenario=scenario,
        adaptive=adaptive,
    )


def _evaluate_detailed(
    runs: Sequence[RunInput], reference: bool
) -> List[DetailedPointMetrics]:
    """Seeds of one detailed point, in one batched-kernel call if it can.

    The runs share one configuration, so the first simulator's
    :meth:`~repro.detailed.simulator.DetailedSimulator.fallback_reason`
    speaks for all of them: in scope, :func:`repro.detailed.batched.run_batch`
    advances machinery instants once for every seed; otherwise, or with
    ``reference``, each seed runs on the heap loop.  Results are
    bit-identical either way.
    """
    from repro.detailed import batched

    recorder = get_recorder()
    with recorder.span("phase.realize", kind="detailed", seeds=len(runs)):
        sims = [_detailed_simulator(params, seed) for params, seed in runs]
    with recorder.span("phase.simulate", kind="detailed", seeds=len(runs)):
        if sims and not reference and sims[0].fallback_reason() is None:
            results = batched.run_batch(sims)
        else:
            results = [sim.run_reference() for sim in sims]
    with recorder.span("phase.analyze", kind="detailed"):
        return [_summarize_detailed(result.metrics) for result in results]


def _evaluate_percolation(
    runs: Sequence[RunInput], reference: bool
) -> List[PercolationPointMetrics]:
    """Critical bond/site fraction summary per run on the point's world.

    The percolation process itself is the failure model here, so a
    scenario's source policy and perturbations are ignored — only its
    topology matters.  It has one kernel, so ``reference`` changes
    nothing.
    """
    return [_percolation_metrics(params, seed) for params, seed in runs]


def _percolation_metrics(
    params: Mapping[str, Any], seed: int
) -> PercolationPointMetrics:
    """One percolation run's critical-fraction summary."""
    process = str(params.get("process", "bond"))
    if process not in ("bond", "site"):
        raise ValueError(f"process must be 'bond' or 'site', got {process!r}")
    reliability = float(params["reliability"])
    runs = int(params["runs"])
    recorder = get_recorder()
    realized = _grid_or_scenario(params, seed)
    rng = random.Random(seed)
    with recorder.span("phase.simulate", kind="percolation", seed=seed):
        if process == "bond":
            summary = estimate_critical_bond_fraction(
                realized.topology,
                (reliability,),
                rng,
                runs=runs,
                grid_label=realized.spec.describe(),
            ).threshold_for(reliability)
        else:
            summary = summarize(
                coverage_site_fraction(realized.topology, reliability, rng, runs=runs)
            )
    with recorder.span("phase.analyze", kind="percolation"):
        return PercolationPointMetrics(
            critical_fraction=summary.mean,
            ci95=summary.ci95,
            n_runs=summary.n,
        )


class KindEvaluator(NamedTuple):
    """One simulator kind: its metrics bundle and its evaluator."""

    metrics_type: type
    evaluate: Callable[[Sequence[RunInput], bool], List[Any]]


#: The simulator kinds campaigns can run, by name.
EVALUATORS: Dict[str, KindEvaluator] = {
    "ideal": KindEvaluator(IdealPointMetrics, _evaluate_ideal),
    "detailed": KindEvaluator(DetailedPointMetrics, _evaluate_detailed),
    "percolation": KindEvaluator(
        PercolationPointMetrics, _evaluate_percolation
    ),
}


def _lookup(kind: str) -> KindEvaluator:
    try:
        return EVALUATORS[kind]
    except KeyError:
        raise ValueError(f"unknown campaign kind {kind!r}") from None


def evaluate_runs(
    kind: str, runs: Sequence[RunInput], reference: bool = False
) -> List[Any]:
    """Evaluate ``(params, seed)`` runs of one kind: bundles in run order.

    ``reference`` runs the simulators' reference loops instead of their
    fast kernels, with bit-identical results; only degraded attempts
    (``on_exhausted="degrade"``) ask for it.
    """
    return _lookup(kind).evaluate(list(runs), reference)


def evaluate_run_batch(
    kind: str,
    params: Mapping[str, Any],
    seeds: Sequence[int],
    reference: bool = False,
) -> List[Any]:
    """Evaluate one campaign point at every seed: bundles in seed order."""
    return evaluate_runs(kind, [(params, seed) for seed in seeds], reference)


def evaluate_run(kind: str, params: Mapping[str, Any], seed: int):
    """Evaluate one campaign run and return its typed metrics bundle."""
    return evaluate_run_batch(kind, params, (seed,))[0]


def metrics_to_dict(metrics: Any) -> Dict[str, Any]:
    """Flatten a metrics dataclass for pickling / JSON storage."""
    return asdict(metrics)


def metrics_from_dict(kind: str, payload: Mapping[str, Any]):
    """Rebuild the typed metrics bundle for ``kind`` from a flat dict."""
    return _lookup(kind).metrics_type(**payload)


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
    """Drop the in-process scenario memo (benchmarks, tests)."""
    _realize.cache_clear()
    _seed_free.cache_clear()
