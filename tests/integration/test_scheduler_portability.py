"""PBBF on alternative sleep schedulers (the 'any scheduler' claim)."""

import pytest

from repro.core.params import PBBFParams
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator

CONFIG = CodeDistributionParameters(n_nodes=20, density=10.0, duration=250.0)


def _run(scheduler, p=0.25, q=0.4, seed=8):
    return DetailedSimulator(
        PBBFParams(p=p, q=q), CONFIG, seed=seed, scheduler=scheduler
    ).run()


class TestAllSchedulersCarryTheWorkload:
    @pytest.mark.parametrize("scheduler", ["psm", "smac", "tmac"])
    def test_delivery_is_high(self, scheduler):
        result = _run(scheduler)
        assert result.metrics.mean_updates_received_fraction() > 0.9

    @pytest.mark.parametrize("scheduler", ["psm", "smac", "tmac"])
    def test_energy_below_always_on(self, scheduler):
        result = _run(scheduler)
        joules = result.metrics.joules_per_update_per_node()
        # Always-on costs duration * 30 mW / n_updates.
        ceiling = CONFIG.duration * 0.030 / result.n_updates
        assert joules < ceiling

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            DetailedSimulator(PBBFParams.psm(), CONFIG, scheduler="zmac")


class TestSchedulerCharacter:
    def test_tmac_idle_energy_cheapest(self):
        # T-MAC truncates idle active periods, so with sparse traffic its
        # duty-cycle energy undercuts the fixed-listen schedulers.
        tmac = _run("tmac").metrics.joules_per_update_per_node()
        smac = _run("smac").metrics.joules_per_update_per_node()
        psm = _run("psm").metrics.joules_per_update_per_node()
        assert tmac < smac
        assert tmac < psm

    def test_smac_latency_beats_psm(self):
        # No announce-then-next-window round trip: S-MAC broadcasts flood
        # within the listen period they start in.
        smac = _run("smac").metrics.mean_update_latency()
        psm = _run("psm").metrics.mean_update_latency()
        assert smac < psm

    def test_q_still_rescues_immediate_forwards_on_smac(self):
        low_q = _run("smac", p=0.9, q=0.0, seed=9)
        high_q = _run("smac", p=0.9, q=0.9, seed=9)
        assert (
            high_q.metrics.mean_updates_received_fraction()
            >= low_q.metrics.mean_updates_received_fraction()
        )


class TestAdaptiveIntegration:
    def test_adaptive_agent_recovers_delivery(self):
        from repro.adaptive import AdaptivePolicy

        start = PBBFParams(p=0.5, q=0.05)  # sub-threshold start
        static = DetailedSimulator(start, CONFIG, seed=12).run()
        adaptive = DetailedSimulator(
            start, CONFIG, seed=12, adaptive=AdaptivePolicy(q_step=0.1)
        ).run_reference()
        assert (
            adaptive.metrics.mean_updates_received_fraction()
            >= static.metrics.mean_updates_received_fraction()
        )
