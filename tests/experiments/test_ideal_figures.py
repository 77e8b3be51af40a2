"""Unit tests for the ideal-figure harness plumbing."""

from repro.experiments.scale import Scale
from repro.ideal.simulator import SchedulingMode
from repro.runners.points import IdealPointMetrics, evaluate_run

TINY = Scale(
    name="unit",
    grid_side=9,
    n_broadcasts=3,
    ideal_runs=1,
    ideal_p_values=(0.5,),
    ideal_q_values=(0.0, 1.0),
    hop_distance_near=2,
    hop_distance_far=4,
    percolation_sizes=(8,),
    percolation_runs=3,
    frontier_grid_side=8,
    reliability_levels=(0.9,),
    detailed_runs=1,
    detailed_p_values=(0.5,),
    detailed_q_values=(0.0,),
    densities=(10.0,),
    duration=100.0,
)


def ideal_point(scale: Scale, p: float, q: float, mode: SchedulingMode) -> IdealPointMetrics:
    """One Section 4 point through the runner's evaluator, seeded as its campaign is."""
    params = {
        "grid_side": scale.grid_side,
        "n_broadcasts": scale.n_broadcasts,
        "p": p,
        "q": q,
        "mode": mode.value,
        "hop_near": scale.hop_distance_near,
        "hop_far": scale.hop_distance_far,
    }
    seed = scale.seed_for("ideal", scale.grid_side, p, q, mode.value)
    return evaluate_run("ideal", params, seed)


class TestIdealPoint:
    def test_returns_metric_bundle(self):
        point = ideal_point(TINY, 0.5, 0.5, SchedulingMode.PSM_PBBF)
        assert isinstance(point, IdealPointMetrics)
        assert 0.0 <= point.reliability_90 <= 1.0
        assert point.joules_per_update_per_node > 0.0

    def test_distinct_points_not_conflated(self):
        a = ideal_point(TINY, 0.5, 0.2, SchedulingMode.PSM_PBBF)
        b = ideal_point(TINY, 0.5, 0.9, SchedulingMode.PSM_PBBF)
        assert a.joules_per_update_per_node != b.joules_per_update_per_node

    def test_mode_distinguished(self):
        # PBBF(1,1) matches always-on energy (the paper's "approximates
        # always-on") but still pays the schedule's temporal overhead:
        # data defers out of ATIM windows, so latency is at least as high.
        psm = ideal_point(TINY, 1.0, 1.0, SchedulingMode.PSM_PBBF)
        on = ideal_point(TINY, 1.0, 1.0, SchedulingMode.ALWAYS_ON)
        assert on.joules_per_update_per_node <= psm.joules_per_update_per_node * 1.01
        assert psm.mean_per_hop_latency >= on.mean_per_hop_latency


class TestSweepStructure:
    def test_series_cover_requested_points(self):
        from repro.experiments.ideal_figures import run_fig08

        result = run_fig08(TINY)
        labels = [series.label for series in result.series]
        assert labels == ["PBBF-0.5", "PSM", "NO PSM"]
        for series in result.series:
            assert series.xs() == list(TINY.ideal_q_values)

    def test_baseline_series_constant(self):
        from repro.experiments.ideal_figures import run_fig11

        result = run_fig11(TINY)
        psm_values = {y for _, y in result.get_series("PSM").points}
        assert len(psm_values) == 1
