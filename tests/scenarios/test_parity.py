"""Pre-refactor parity: the scenario layer must not move a single bit.

The goldens below were captured on the commit *before* the scenario
refactor (run keys from ``run_key``, metrics from ``evaluate_run``).
They lock two contracts:

* legacy parameter layouts (no ``scenario`` key) hash to the same run
  keys, so every existing disk-cache entry is still a hit; and
* the default grid scenario resolves to bit-identical metrics for all
  three simulator kinds — realization of the paper's world draws nothing
  from the seed streams.
"""

import pytest

from repro.adaptive import AdaptivePolicy
from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode
from repro.net.topology import GridTopology
from repro.runners.points import evaluate_run
from repro.runners.spec import run_key
from repro.scenarios import ClockSkew, FailureTimes, ScenarioSpec

IDEAL_PARAMS = {
    "grid_side": 9,
    "n_broadcasts": 3,
    "p": 0.5,
    "q": 0.6,
    "mode": "psm_pbbf",
    "hop_near": 2,
    "hop_far": 4,
}
DETAILED_PARAMS = {
    "p": 0.5,
    "q": 0.5,
    "density": 10.0,
    "mode": "psm_pbbf",
    "duration": 60.0,
    "scheduler": "psm",
}
PERCOLATION_PARAMS = {
    "grid_side": 8,
    "reliability": 0.9,
    "runs": 3,
    "process": "bond",
}


class TestRunKeyGoldens:
    """Legacy layouts must keep their pre-refactor content hashes."""

    def test_ideal_key_unchanged(self):
        assert run_key("ideal", IDEAL_PARAMS, 123) == (
            "d0c239819e2a7f89b0b459787b6c2f5349b1cbdd78906f3e85700b6552f7de62"
        )

    def test_detailed_key_unchanged(self):
        assert run_key("detailed", DETAILED_PARAMS, 7) == (
            "79e0a0752886c48138e444ca12cd2ab12e3166314d07c9e9667852ebb4e0cef3"
        )

    def test_percolation_key_unchanged(self):
        assert run_key("percolation", PERCOLATION_PARAMS, 11) == (
            "cf0d61431f55f3cd48159f2406b203d8db3b21ce637e65e2a01380fc390200c2"
        )


class TestMetricGoldens:
    """Default-grid resolution reproduces pre-refactor metrics exactly."""

    def test_ideal_metrics_unchanged(self):
        metrics = evaluate_run("ideal", IDEAL_PARAMS, 123)
        assert metrics.reliability_90 == 1.0
        assert metrics.reliability_99 == 0.0
        assert metrics.joules_per_update_per_node == 1.9214344197530862
        assert metrics.mean_per_hop_latency == 4.787295977684861
        assert metrics.mean_hops_near == 3.130434782608696
        assert metrics.mean_hops_far == 4.956521739130435
        assert metrics.mean_coverage == 0.9753086419753085

    def test_detailed_metrics_unchanged(self):
        metrics = evaluate_run("detailed", DETAILED_PARAMS, 7)
        assert metrics.joules_per_update_per_node == 1.1914403200000008
        assert metrics.latency_2hop == 8.582458333333335
        assert metrics.latency_5hop == 27.77557746881735
        assert metrics.updates_received_fraction == 0.9591836734693877
        assert metrics.mean_update_latency == 12.5814220459224
        assert metrics.n_2hop_nodes == 16
        assert metrics.n_5hop_nodes == 6

    def test_percolation_metrics_unchanged(self):
        metrics = evaluate_run("percolation", PERCOLATION_PARAMS, 11)
        assert metrics.critical_fraction == 0.6190476190476191
        assert metrics.ci95 == 0.0677611557507001
        assert metrics.n_runs == 3


class TestScenarioEquivalence:
    """The explicit grid scenario and the legacy layout agree bit-for-bit."""

    def test_grid_token_matches_legacy_evaluator(self):
        params = dict(IDEAL_PARAMS)
        del params["grid_side"]
        params["scenario"] = ScenarioSpec.grid_default(9).token
        legacy = evaluate_run("ideal", IDEAL_PARAMS, 123)
        via_scenario = evaluate_run("ideal", params, 123)
        assert legacy == via_scenario

    def test_grid_token_matches_direct_simulator(self):
        """Scenario resolution equals hand-building the paper's world."""
        realized = ScenarioSpec.grid_default(9).realize(123)
        direct = IdealSimulator(
            GridTopology(9),
            PBBFParams(p=0.5, q=0.6),
            AnalysisParameters(grid_side=9),
            seed=123,
            mode=SchedulingMode.PSM_PBBF,
        ).run_campaign(3)
        resolved = IdealSimulator(
            realized.topology,
            PBBFParams(p=0.5, q=0.6),
            AnalysisParameters(grid_side=9),
            seed=123,
            source=realized.source,
            mode=SchedulingMode.PSM_PBBF,
        ).run_campaign(3)
        assert direct.outcomes == resolved.outcomes
        assert direct.total_joules == resolved.total_joules

    def test_scenario_key_differs_from_legacy_key(self):
        """Scenario points are distinct cache entries, never collisions."""
        params = dict(IDEAL_PARAMS)
        del params["grid_side"]
        params["scenario"] = ScenarioSpec.grid_default(9).token
        assert run_key("ideal", params, 123) != run_key("ideal", IDEAL_PARAMS, 123)

    def test_detailed_loss_axis_default_matches_its_absence(self):
        """loss_probability=0 simulates exactly what its absence does,
        under its own run key (keys hash the parameters as given)."""
        with_default = dict(DETAILED_PARAMS)
        with_default["loss_probability"] = 0.0
        a = evaluate_run("detailed", DETAILED_PARAMS, 3)
        b = evaluate_run("detailed", with_default, 3)
        assert a == b
        assert run_key("detailed", with_default, 3) != run_key(
            "detailed", DETAILED_PARAMS, 3
        )


#: The scenario the detailed-parity checks resolve: the legacy world's
#: shape (connected random unit-disk deployment, random source) as data.
DETAILED_SCENARIO = {
    "family": "random",
    "params": {"n_nodes": 16, "radio_range": 40.0, "density": 10.0},
    "source": "random",
}


class TestDetailedScenarioEquivalence:
    """The scenario-resolved detailed evaluator mirrors the ideal one's
    contracts: distinct run keys, bit-identical direct-construction
    metrics, and an untouched legacy path (no CACHE_VERSION bump)."""

    def test_cache_version_unbumped(self):
        from repro.runners.cache import CACHE_VERSION

        assert CACHE_VERSION == 1

    def test_scenario_key_differs_from_legacy_key(self):
        from repro.scenarios import ScenarioSpec

        params = dict(DETAILED_PARAMS)
        del params["density"]
        params["scenario"] = ScenarioSpec.build(
            DETAILED_SCENARIO["family"],
            DETAILED_SCENARIO["params"],
            source=DETAILED_SCENARIO["source"],
        ).token
        assert run_key("detailed", params, 7) != run_key(
            "detailed", DETAILED_PARAMS, 7
        )

    def test_scenario_token_matches_direct_simulator(self):
        """Evaluator resolution equals hand-building with the scenario."""
        from repro.detailed.config import CodeDistributionParameters
        from repro.detailed.simulator import DetailedSimulator
        from repro.runners.points import _summarize_detailed
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec.build(
            DETAILED_SCENARIO["family"],
            DETAILED_SCENARIO["params"],
            source=DETAILED_SCENARIO["source"],
        )
        params = dict(DETAILED_PARAMS)
        del params["density"]
        params["scenario"] = spec.token
        via_evaluator = evaluate_run("detailed", params, 7)
        realized = spec.realize(7)
        direct = DetailedSimulator(
            PBBFParams(p=0.5, q=0.5),
            CodeDistributionParameters.for_topology(
                realized.topology, duration=60.0
            ),
            seed=7,
            mode=SchedulingMode.PSM_PBBF,
            scenario=realized,
        )
        assert via_evaluator == _summarize_detailed(direct.run().metrics)

    def test_legacy_layout_never_touches_scenario_resolution(self):
        """A legacy point leaves the scenario memo cold."""
        from repro.runners.points import _realize, clear_point_caches

        clear_point_caches()
        evaluate_run("detailed", DETAILED_PARAMS, 7)
        assert _realize.cache_info().currsize == 0


#: Worlds adaptive control must run on: the paper's grid, the legacy
#: world's shape as a scenario, and that shape with clock skew and
#: mid-run deaths.
ADAPTIVE_WORLDS = {
    "grid": ScenarioSpec.grid_default(4),
    "random": ScenarioSpec.build(
        "random", DETAILED_SCENARIO["params"], source="random"
    ),
    "random-skew-deaths": ScenarioSpec.build(
        "random",
        DETAILED_SCENARIO["params"],
        source="random",
        failure_times=FailureTimes(0.25, 20.0, 40.0),
        clock_skew=ClockSkew(1.0),
    ),
}


def adaptive_scenario_params(world: str) -> dict:
    params = dict(DETAILED_PARAMS)
    del params["density"]
    params["scenario"] = ADAPTIVE_WORLDS[world].token
    params["adaptive"] = AdaptivePolicy().token
    return params


class TestAdaptiveOnScenarios:
    """An ``adaptive`` point on a scenario world runs the controller on
    that world, perturbations included."""

    @pytest.mark.parametrize("world", sorted(ADAPTIVE_WORLDS))
    def test_matches_a_hand_built_simulator(self, world):
        from repro.detailed.config import CodeDistributionParameters
        from repro.detailed.simulator import DetailedSimulator
        from repro.runners.points import _summarize_detailed

        params = adaptive_scenario_params(world)
        start = PBBFParams(p=0.5, q=0.5)
        policy = AdaptivePolicy.from_token(params["adaptive"])
        realized = ADAPTIVE_WORLDS[world].realize(7)
        direct = DetailedSimulator(
            start,
            CodeDistributionParameters.for_topology(
                realized.topology, duration=60.0
            ),
            seed=7,
            mode=SchedulingMode.PSM_PBBF,
            scenario=realized,
            adaptive=policy,
        )
        adaptive = evaluate_run("detailed", params, 7)
        assert adaptive == _summarize_detailed(direct.run_reference().metrics)
        static = dict(params)
        del static["adaptive"]
        assert adaptive != evaluate_run("detailed", static, 7)

    def test_pool_matches_serial(self):
        from repro.runners import CampaignSpec, clear_run_caches, run_campaign

        fixed = adaptive_scenario_params("grid")
        del fixed["scenario"]
        spec = CampaignSpec.build(
            kind="detailed",
            axes={"scenario": tuple(ADAPTIVE_WORLDS.values())},
            fixed=fixed,
            seed_params=("scenario",),
            n_seeds=2,
        )
        clear_run_caches()
        serial = run_campaign(spec, jobs=1, use_cache=False)
        clear_run_caches()
        pool = run_campaign(spec, jobs=2, use_cache=False)
        for point in spec.points():
            for index in range(spec.n_seeds):
                assert serial.metrics(seed_index=index, **point) == (
                    pool.metrics(seed_index=index, **point)
                )
