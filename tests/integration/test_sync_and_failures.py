"""Clock-skew and node-failure injection across the detailed stack.

A realized scenario is the simulator's only source of both: skew comes
from a :class:`~repro.scenarios.ClockSkew` perturbation, and a hand-written
death schedule from ``dataclasses.replace`` on the realized world.
"""

import pytest

from repro.core.params import PBBFParams
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator
from tests.detailed.test_batched_parity import world as config_world

CONFIG = CodeDistributionParameters(n_nodes=20, density=10.0, duration=300.0)


def world(seed, deaths=None, skew=None):
    """CONFIG's deployment at ``seed``, with deaths and clock skew."""
    return config_world(seed, deaths, skew, config=CONFIG)


class TestClockSkew:
    def test_q_one_masks_skew(self):
        # Nodes that never sleep cannot miss a window they disagree about.
        skewed = DetailedSimulator(
            PBBFParams(p=0.0, q=1.0), CONFIG, seed=5,
            scenario=world(5, skew=4.0),
        ).run()
        assert skewed.metrics.mean_updates_received_fraction() > 0.95


class TestNodeFailures:
    def test_failed_node_receives_nothing_after_death(self):
        sim = DetailedSimulator(
            PBBFParams.psm(), CONFIG, seed=6, scenario=world(6)
        )
        victim = (sim.source + 1) % CONFIG.n_nodes
        failing = DetailedSimulator(
            PBBFParams.psm(), CONFIG, seed=6,
            scenario=world(6, {victim: 50.0}),
        )
        result = failing.run()
        # Updates generated after the failure (t >= 50 s) never reach it.
        app = result.metrics._app
        late_updates = [u for u in app.updates if u.generated_at >= 50.0]
        assert late_updates
        for update in late_updates:
            assert update.update_id not in app.receptions[victim]

    def test_failed_node_consumes_sleep_power_after_death(self):
        sim = DetailedSimulator(
            PBBFParams(p=0.0, q=1.0), CONFIG, seed=7,
            scenario=world(7, {0: 100.0}),
        )
        result = sim.run()
        if sim.source == 0:
            pytest.skip("victim happened to be the source for this seed")
        joules = result.node_joules[0]
        # ~100 s awake at 30 mW, then ~200 s at 3 uW.
        assert joules == pytest.approx(100 * 0.030, rel=0.1)

    def test_non_cut_vertex_failure_leaves_rest_connected(self):
        base = DetailedSimulator(
            PBBFParams.psm(), CONFIG, seed=8, scenario=world(8)
        )
        # Fail a node late so early updates flood everywhere first.
        victim = (base.source + 3) % CONFIG.n_nodes
        result = DetailedSimulator(
            PBBFParams.psm(), CONFIG, seed=8,
            scenario=world(8, {victim: 250.0}),
        ).run()
        app = result.metrics._app
        early = [u for u in app.updates if u.generated_at < 200.0]
        for update in early:
            assert update.update_id in app.receptions[victim]

    def test_out_of_range_victim_rejected(self):
        with pytest.raises(IndexError):
            DetailedSimulator(
                PBBFParams.psm(), CONFIG, seed=9,
                scenario=world(9, {99: 10.0}),
            ).run()

    @pytest.mark.parametrize("scheduler", ["psm", "smac", "tmac"])
    def test_failure_supported_on_every_scheduler(self, scheduler):
        result = DetailedSimulator(
            PBBFParams(0.1, 0.3), CONFIG, seed=10,
            scheduler=scheduler, scenario=world(10, {1: 150.0}),
        ).run()
        assert result.n_updates >= 1  # run completed

    def test_failure_on_always_on(self):
        from repro.ideal.simulator import SchedulingMode

        result = DetailedSimulator(
            PBBFParams.always_on(), CONFIG, seed=11,
            mode=SchedulingMode.ALWAYS_ON, scenario=world(11, {1: 150.0}),
        ).run()
        assert result.n_updates >= 1
