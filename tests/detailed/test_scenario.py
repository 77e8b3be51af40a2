"""Scenario-native detailed simulation: the realized world drives the run."""

import dataclasses
import math

import pytest

from repro.core.params import PBBFParams
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator
from repro.scenarios import (
    ClockSkew,
    FailureTimes,
    Perturbations,
    ScenarioSpec,
)

WORLD = {"n_nodes": 16, "radio_range": 40.0, "density": 10.0}


def world_spec(perturbations=None):
    return ScenarioSpec.build(
        "random", WORLD, source="random", perturbations=perturbations
    )


def run_sim(realized, duration=120.0, **kwargs):
    config = CodeDistributionParameters.for_topology(
        realized.topology, duration=duration
    )
    sim = DetailedSimulator(
        kwargs.pop("params", PBBFParams(p=0.25, q=0.5)),
        config,
        seed=3,
        scenario=realized,
        **kwargs,
    )
    return sim


class TestScenarioWiring:
    def test_scenario_supplies_topology_and_source(self):
        realized = world_spec().realize(5)
        sim = run_sim(realized)
        assert sim.topology is realized.topology
        assert sim.source == realized.source

    def test_scenario_and_topology_mutually_exclusive(self):
        realized = world_spec().realize(5)
        with pytest.raises(ValueError, match="not both"):
            DetailedSimulator(
                PBBFParams(p=0.25, q=0.5),
                scenario=realized,
                topology=realized.topology,
            )

    def test_config_defaults_to_the_realized_size(self):
        realized = world_spec().realize(5)
        sim = DetailedSimulator(PBBFParams(p=0.25, q=0.5), scenario=realized)
        assert sim.config.n_nodes == realized.topology.n_nodes

    def test_mismatched_config_rejected(self):
        realized = world_spec().realize(5)
        with pytest.raises(ValueError, match="n_nodes"):
            DetailedSimulator(
                PBBFParams(p=0.25, q=0.5),
                CodeDistributionParameters(n_nodes=50),
                scenario=realized,
            )

    def test_for_topology_rejects_contradictory_override(self):
        realized = world_spec().realize(5)
        with pytest.raises(ValueError, match="n_nodes"):
            CodeDistributionParameters.for_topology(
                realized.topology, n_nodes=99
            )

    def test_nominal_scenario_equals_explicit_topology_run(self):
        """A perturbation-free scenario is just a pre-built world."""
        realized = world_spec().realize(5)
        config = CodeDistributionParameters.for_topology(
            realized.topology, duration=120.0
        )
        via_scenario = run_sim(realized).run()
        direct = DetailedSimulator(
            PBBFParams(p=0.25, q=0.5),
            config,
            seed=3,
            topology=realized.topology,
        )
        # The direct path draws its own source; align it for the pairing.
        direct.source = realized.source
        result = direct.run()
        assert via_scenario.node_joules == result.node_joules
        assert (
            via_scenario.metrics.mean_updates_received_fraction()
            == result.metrics.mean_updates_received_fraction()
        )


class TestPreBroadcastFailures:
    SPEC = world_spec(Perturbations(failure_fraction=0.25))

    def test_prefailed_nodes_receive_nothing(self):
        realized = self.SPEC.realize(5)
        assert realized.failed_nodes
        result = run_sim(realized).run()
        app = result.metrics._app
        for victim in realized.failed_nodes:
            assert not app.receptions[victim]

    def test_prefailed_nodes_consume_sleep_power_only(self):
        realized = self.SPEC.realize(5)
        result = run_sim(realized, duration=120.0).run()
        for victim in realized.failed_nodes:
            # 120 s at the 3 uW sleep draw, not the 30 mW listen draw.
            assert result.node_joules[victim] == pytest.approx(
                120.0 * 3e-6, rel=0.01
            )

    def test_delivery_counts_prefailed_as_unreached(self):
        nominal = run_sim(world_spec().realize(5)).run()
        failed = run_sim(self.SPEC.realize(5)).run()
        assert (
            failed.metrics.mean_updates_received_fraction()
            < nominal.metrics.mean_updates_received_fraction()
        )


class TestMidRunDeaths:
    SPEC = world_spec(
        Perturbations(failure_times=FailureTimes(0.25, 30.0, 60.0))
    )

    def test_victims_receive_nothing_after_death(self):
        realized = self.SPEC.realize(5)
        assert realized.failure_times
        result = run_sim(realized).run()
        app = result.metrics._app
        deaths = dict(realized.failure_times)
        for update in app.updates:
            for victim, died_at in deaths.items():
                if update.generated_at >= died_at:
                    assert update.update_id not in app.receptions[victim]

    def test_victims_alive_before_death(self):
        """q=1 floods everything: pre-death updates must reach victims."""
        realized = self.SPEC.realize(5)
        result = run_sim(realized, params=PBBFParams(p=0.5, q=1.0)).run()
        app = result.metrics._app
        deaths = dict(realized.failure_times)
        early = [u for u in app.updates if u.generated_at < 20.0]
        assert early
        for update in early:
            for victim in deaths:
                assert update.update_id in app.receptions[victim]

class TestDeathScheduleCheck:
    """The death schedule is checked once, when the simulator is built,
    so neither the heap loop nor the kernel ever starts on a bad one."""

    @pytest.mark.parametrize(
        "node,time,error",
        [
            (16, 10.0, IndexError),
            (3, -1.0, ValueError),
            (3, math.nan, ValueError),
            (3, math.inf, ValueError),
        ],
        ids=["node out of range", "negative time", "nan time", "infinite time"],
    )
    def test_bad_schedule_raises_before_either_loop_runs(
        self, monkeypatch, node, time, error
    ):
        from repro.detailed import batched

        def never(*args, **kwargs):
            raise AssertionError("a loop ran on an unchecked schedule")

        monkeypatch.setattr(batched, "run_batch", never)
        monkeypatch.setattr(DetailedSimulator, "run_reference", never)
        realized = dataclasses.replace(
            world_spec().realize(5), failure_times=((node, time),)
        )
        with pytest.raises(error):
            run_sim(realized).run()


class TestClockSkew:
    def test_scenario_offsets_reach_the_macs(self):
        realized = world_spec(
            Perturbations(clock_skew=ClockSkew(4.0))
        ).realize(5)
        sim = run_sim(realized)
        result = sim.run()
        assert result.n_updates >= 1
        assert any(offset > 0.0 for offset in realized.clock_offsets)

    def test_severe_scenario_skew_degrades_psm_delivery(self):
        nominal = run_sim(
            world_spec().realize(5), params=PBBFParams.psm()
        ).run()
        skewed = run_sim(
            world_spec(Perturbations(clock_skew=ClockSkew(4.0))).realize(5),
            params=PBBFParams.psm(),
        ).run()
        assert (
            skewed.metrics.mean_updates_received_fraction()
            < nominal.metrics.mean_updates_received_fraction()
        )

    @pytest.mark.parametrize("scheduler", ["smac", "tmac"])
    def test_skew_scenario_rejected_off_psm(self, scheduler):
        """No other MAC models a schedule phase: running a skew-carrying
        token there would cache nominal results under the perturbed key."""
        realized = world_spec(
            Perturbations(clock_skew=ClockSkew(2.0))
        ).realize(5)
        with pytest.raises(ValueError, match="clock_skew"):
            run_sim(realized, scheduler=scheduler)

    def test_skew_scenario_rejected_on_always_on(self):
        from repro.ideal.simulator import SchedulingMode

        realized = world_spec(
            Perturbations(clock_skew=ClockSkew(2.0))
        ).realize(5)
        with pytest.raises(ValueError, match="clock_skew"):
            run_sim(
                realized,
                params=PBBFParams.always_on(),
                mode=SchedulingMode.ALWAYS_ON,
            )


class TestSchedulerCoverage:
    @pytest.mark.parametrize("scheduler", ["psm", "smac", "tmac"])
    def test_deaths_supported_on_every_scheduler(self, scheduler):
        realized = world_spec(
            Perturbations(failure_times=FailureTimes(0.2, 30.0, 60.0))
        ).realize(5)
        result = run_sim(realized, scheduler=scheduler).run()
        assert result.n_updates >= 1

    def test_deaths_supported_on_always_on(self):
        from repro.ideal.simulator import SchedulingMode

        realized = world_spec(
            Perturbations(failure_times=FailureTimes(0.2, 30.0, 60.0))
        ).realize(5)
        result = run_sim(
            realized,
            params=PBBFParams.always_on(),
            mode=SchedulingMode.ALWAYS_ON,
        ).run()
        assert result.n_updates >= 1
