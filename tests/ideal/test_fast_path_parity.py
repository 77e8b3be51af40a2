"""Scalar-vs-vectorized parity contract for the ideal simulator.

The vectorized kernel (`run_broadcast` / `run_campaign`), which runs a
campaign's broadcasts in lockstep, must produce *bit-identical*
:class:`BroadcastOutcome`\\ s to the scalar heap loop
(`run_broadcast_reference` / `run_campaign_reference`) — same receive
times (float-for-float), same hop counts, same spanning-tree parents,
same transmission counters — across both scheduling modes, both
q-coin scopes, and a wide seed/parameter matrix, both for single
broadcasts (a batch of one) and for whole campaigns.
The array-backed :class:`CampaignResult` metrics must equal the loops
over the outcomes they replaced.  This equality is what lets the fast
path replace the reference implementation in every figure campaign
without changing a single plotted number.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import CampaignResult, IdealSimulator, SchedulingMode
from repro.net.topology import GridTopology, RandomTopology
from repro.runners.points import _summarize_ideal_campaign
from repro.scenarios import ScenarioSpec

GRID = GridTopology(15)
CONFIG = AnalysisParameters()

MODES = [SchedulingMode.PSM_PBBF, SchedulingMode.ALWAYS_ON]
SCOPES = ["frame", "broadcast"]
OPERATING_POINTS = [(0.0, 0.0), (0.2, 0.3), (0.5, 0.6), (1.0, 1.0), (0.05, 0.9)]


def outcomes_pair(topology, params, index=0, **kwargs):
    scalar = IdealSimulator(
        topology, params, CONFIG, **kwargs
    ).run_broadcast_reference(index)
    fast = IdealSimulator(
        topology, params, CONFIG, **kwargs
    ).run_broadcast(index)
    return scalar, fast


def assert_identical(scalar, fast):
    assert scalar.receive_times == fast.receive_times
    assert scalar.hops == fast.hops
    assert scalar.parents == fast.parents
    assert scalar.n_transmissions == fast.n_transmissions
    assert scalar.n_immediate_forwards == fast.n_immediate_forwards
    assert scalar.n_normal_forwards == fast.n_normal_forwards
    assert scalar == fast


class TestBroadcastParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("p,q", OPERATING_POINTS)
    def test_mode_scope_param_matrix_over_20_seeds(self, mode, scope, p, q):
        for seed in range(20):
            scalar, fast = outcomes_pair(
                GRID, PBBFParams(p, q), seed=seed, mode=mode, q_coin_scope=scope
            )
            assert_identical(scalar, fast)

    @pytest.mark.parametrize("index", [0, 1, 7])
    def test_later_broadcast_indices(self, index):
        scalar, fast = outcomes_pair(
            GRID, PBBFParams(0.3, 0.4), index=index, seed=11
        )
        assert_identical(scalar, fast)

    def test_random_topology(self):
        topo = RandomTopology.connected(60, 40.0, 10.0, random.Random(9))
        for seed in range(5):
            scalar, fast = outcomes_pair(topo, PBBFParams(0.4, 0.5), seed=seed)
            assert_identical(scalar, fast)

    def test_non_center_source(self):
        scalar, fast = outcomes_pair(GRID, PBBFParams(0.5, 0.6), seed=2, source=0)
        assert_identical(scalar, fast)

    def test_campaign_parity(self):
        """Whole campaigns (energy, aggregated outcomes) agree too."""
        for mode, scope in itertools.product(MODES, SCOPES):
            a = IdealSimulator(
                GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5,
                mode=mode, q_coin_scope=scope,
            ).run_campaign_reference(4)
            b = IdealSimulator(
                GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5,
                mode=mode, q_coin_scope=scope,
            ).run_campaign(4)
            assert a.outcomes == b.outcomes
            assert a.total_joules == b.total_joules
            assert a.shortest_hops == b.shortest_hops


class TestFailureInjectionParity:
    """Pre-broadcast node failures must not break kernel equivalence."""

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_nodes_matrix_over_seeds(self, mode):
        rng = random.Random(17)
        nodes = [v for v in GRID.nodes() if v != GRID.center_node()]
        failed = tuple(sorted(rng.sample(nodes, 40)))
        for seed in range(10):
            scalar, fast = outcomes_pair(
                GRID, PBBFParams(0.3, 0.5), seed=seed, mode=mode,
                failed_nodes=failed,
            )
            assert_identical(scalar, fast)
            assert all(scalar.receive_times[v] is None for v in failed)

    def test_failure_scenario_realization_parity(self):
        """The scenario layer's failure sets flow through both kernels."""
        spec = ScenarioSpec.build("grid", {"side": 15}, failure_fraction=0.25)
        for seed in range(5):
            realized = spec.realize(seed)
            scalar, fast = outcomes_pair(
                realized.topology,
                PBBFParams(0.4, 0.6),
                seed=seed,
                source=realized.source,
                failed_nodes=realized.failed_nodes,
            )
            assert_identical(scalar, fast)

    def test_failed_random_topology(self):
        topo = RandomTopology.connected(60, 40.0, 10.0, random.Random(4))
        failed = tuple(sorted(random.Random(8).sample(range(1, 60), 12)))
        scalar, fast = outcomes_pair(
            topo, PBBFParams(0.5, 0.4), seed=6, source=0, failed_nodes=failed
        )
        assert_identical(scalar, fast)

    def test_campaign_energy_parity_with_failures(self):
        failed = (0, 1, 16, 17, 44, 199)
        a = IdealSimulator(
            GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5, failed_nodes=failed,
        ).run_campaign_reference(3)
        b = IdealSimulator(
            GRID, PBBFParams(0.5, 0.6), CONFIG, seed=5, failed_nodes=failed,
        ).run_campaign(3)
        assert a.outcomes == b.outcomes
        assert a.total_joules == b.total_joules


FRACTIONS = (0.0, 0.5, 0.9, 0.99, 1.0)
ARRAYS = ("t_generated", "receive_times", "hops", "parents", "counters")


def campaign_pair(topology, params, n_broadcasts, config=CONFIG, **kwargs):
    scalar = IdealSimulator(
        topology, params, config, **kwargs
    ).run_campaign_reference(n_broadcasts)
    fast = IdealSimulator(
        topology, params, config, **kwargs
    ).run_campaign(n_broadcasts)
    return scalar, fast


def distances_of(campaign):
    """Every populated hop bucket plus one past the farthest (empty)."""
    present = {d for d in campaign.shortest_hops if d is not None}
    return sorted(present) + [max(present) + 1]


def array_summary(campaign):
    """Every metric method of the array-backed result."""
    distances = distances_of(campaign)
    return {
        "n_broadcasts": campaign.n_broadcasts,
        "reliability": [campaign.reliability(f) for f in FRACTIONS],
        "mean_coverage": campaign.mean_coverage(),
        "joules_per_update": campaign.joules_per_update(),
        "joules_per_update_per_node": campaign.joules_per_update_per_node(),
        "mean_per_hop_latency": campaign.mean_per_hop_latency(),
        "nodes_at_distance": [campaign.nodes_at_distance(d) for d in distances],
        "mean_hops_at_distance": [campaign.mean_hops_at_distance(d) for d in distances],
        "mean_latency_at_distance": [
            campaign.mean_latency_at_distance(d) for d in distances
        ],
    }


def loop_summary(campaign):
    """The same metrics as loops over the materialized outcomes.

    These are the formulas the result computed before it kept arrays:
    builtin ``sum`` over values appended broadcast by broadcast, node by
    node.
    """
    outcomes = campaign.outcomes
    n = len(outcomes)

    def mean(values):
        return sum(values) / len(values) if values else None

    def at_distance(d, value):
        nodes = [v for v, h in enumerate(campaign.shortest_hops) if h == d]
        return mean([
            value(o, v) for o in outcomes for v in nodes if o.hops[v] is not None
        ])

    distances = distances_of(campaign)
    return {
        "n_broadcasts": n,
        "reliability": [
            sum(1 for o in outcomes if o.reached_fraction(f)) / n for f in FRACTIONS
        ],
        "mean_coverage": sum(o.coverage for o in outcomes) / n,
        "joules_per_update": campaign.total_joules / n,
        "joules_per_update_per_node": (
            campaign.total_joules / n / len(campaign.shortest_hops)
        ),
        "mean_per_hop_latency": mean(
            [value for o in outcomes for value in o.per_hop_latencies()]
        ),
        "nodes_at_distance": [
            [v for v, h in enumerate(campaign.shortest_hops) if h == d]
            for d in distances
        ],
        "mean_hops_at_distance": [
            at_distance(d, lambda o, v: float(o.hops[v])) for d in distances
        ],
        "mean_latency_at_distance": [
            at_distance(d, lambda o, v: o.latency(v)) for d in distances
        ],
    }


def assert_campaigns_identical(scalar, fast):
    # The scalar result holds the heap loop's own records; the batched
    # one builds its records from the kernel arrays.
    assert fast.outcomes == scalar.outcomes
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(fast, name), getattr(scalar, name))
    assert fast.total_joules == scalar.total_joules
    assert fast.shortest_hops == scalar.shortest_hops
    assert array_summary(fast) == array_summary(scalar)


class TestCampaignParity:
    """The lockstep kernel against the scalar loop, whole campaigns."""

    @pytest.mark.parametrize("n_broadcasts", [1, 3, 12])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scope", SCOPES)
    def test_mode_scope_matrix_over_20_seeds(self, n_broadcasts, mode, scope):
        for seed in range(20):
            p, q = OPERATING_POINTS[seed % len(OPERATING_POINTS)]
            scalar, fast = campaign_pair(
                GRID, PBBFParams(p, q), n_broadcasts,
                seed=seed, mode=mode, q_coin_scope=scope,
            )
            assert_campaigns_identical(scalar, fast)

    @pytest.mark.parametrize("mode", MODES)
    def test_failed_nodes(self, mode):
        nodes = [v for v in GRID.nodes() if v != GRID.center_node()]
        failed = tuple(sorted(random.Random(23).sample(nodes, 30)))
        for seed in range(5):
            scalar, fast = campaign_pair(
                GRID, PBBFParams(0.4, 0.5), 12, seed=seed, mode=mode,
                failed_nodes=failed,
            )
            assert_campaigns_identical(scalar, fast)
            assert (fast.hops[:, list(failed)] == -1).all()

    def test_random_topology(self):
        topo = RandomTopology.connected(60, 40.0, 10.0, random.Random(9))
        for seed in range(5):
            scalar, fast = campaign_pair(
                topo, PBBFParams(0.4, 0.5), 12, seed=seed, source=0
            )
            assert_campaigns_identical(scalar, fast)

    def test_torus_scenario(self):
        spec = ScenarioSpec.build("torus", {"side": 12}, source="corner")
        for seed in range(5):
            realized = spec.realize(seed)
            scalar, fast = campaign_pair(
                realized.topology, PBBFParams(0.5, 0.6), 12, seed=seed,
                source=realized.source, failed_nodes=realized.failed_nodes,
            )
            assert_campaigns_identical(scalar, fast)

    @pytest.mark.parametrize("mode", MODES)
    def test_inexact_timings(self, mode):
        """Timings that are not binary fractions round in every float step,
        so any reassociated timestamp expression breaks parity here."""
        config = AnalysisParameters(
            update_rate=1 / 33.3, l1=0.45, t_frame=2.9, t_active=0.27,
            bit_rate_bps=9600.3,
        )
        for seed in range(10):
            p, q = OPERATING_POINTS[seed % len(OPERATING_POINTS)]
            scalar, fast = campaign_pair(
                GRID, PBBFParams(p, q), 12, config=config, seed=seed, mode=mode
            )
            assert_campaigns_identical(scalar, fast)

    def test_non_center_source(self):
        for source in (0, 14, 112):
            scalar, fast = campaign_pair(
                GRID, PBBFParams(0.5, 0.6), 12, seed=2, source=source
            )
            assert_campaigns_identical(scalar, fast)

    @pytest.mark.parametrize("scope", SCOPES)
    def test_batch_of_one_matches_the_campaign_row(self, scope):
        """``run_broadcast(i)`` is row ``i`` of the lockstep campaign."""
        sim = IdealSimulator(
            GRID, PBBFParams(0.3, 0.7), CONFIG, seed=4, q_coin_scope=scope,
        )
        campaign = sim.run_campaign(6)
        assert [sim.run_broadcast(i) for i in range(6)] == campaign.outcomes


class TestSummaryParity:
    """Array-backed metrics equal the loops over outcomes they replaced."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("p,q", OPERATING_POINTS)
    def test_every_metric_method(self, mode, scope, p, q):
        for seed in range(3):
            campaign = IdealSimulator(
                GRID, PBBFParams(p, q), CONFIG, seed=seed, mode=mode,
                q_coin_scope=scope,
            ).run_campaign(7)
            assert array_summary(campaign) == loop_summary(campaign)

    def test_with_failed_nodes(self):
        """Failed nodes are unreached, down to a source walled in by them."""
        walled_in = tuple(GRID.neighbors(GRID.center_node()))
        for failed in (walled_in, walled_in[:2] + (0, 1, 2, 224)):
            campaign = IdealSimulator(
                GRID, PBBFParams(0.5, 0.3), CONFIG, seed=8,
                failed_nodes=failed,
            ).run_campaign(5)
            assert array_summary(campaign) == loop_summary(campaign)

    def test_walled_in_source_metrics_are_none(self):
        campaign = IdealSimulator(
            GRID, PBBFParams(0.5, 0.3), CONFIG, seed=8,
            failed_nodes=tuple(GRID.neighbors(GRID.center_node())),
        ).run_campaign(4)
        assert campaign.mean_per_hop_latency() is None
        assert campaign.mean_hops_at_distance(2) is None
        assert campaign.mean_latency_at_distance(2) is None
        assert campaign.mean_coverage() == 1 / GRID.n_nodes

    def test_summarize_never_materializes_outcomes(self, monkeypatch):
        """The runner reads the arrays only, which keeps its memory small."""

        def refuse(_self):
            raise AssertionError("outcomes were materialized")

        monkeypatch.setattr(CampaignResult, "outcomes", property(refuse))
        sim = IdealSimulator(GRID, PBBFParams(0.5, 0.6), CONFIG, seed=3)
        metrics = _summarize_ideal_campaign(sim, 5, 2, 4)
        assert 0.0 < metrics.mean_coverage <= 1.0
        assert sim.run_campaign(5).n_broadcasts == 5


class TestKernelsByName:
    def test_fast_path_is_not_a_constructor_argument(self):
        """No option selects the kernel: each is called by name."""
        with pytest.raises(TypeError):
            IdealSimulator(GRID, PBBFParams(0.5, 0.5), fast_path=False)
