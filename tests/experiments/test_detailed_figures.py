"""Unit tests for the detailed-figure harness plumbing."""

from repro.experiments.detailed_figures import (
    DetailedPointMetrics,
    run_fig13,
    run_fig17,
)
from repro.runners import evaluate_run
from tests.experiments.test_figures_smoke import TINY


class TestDetailedRun:
    def test_returns_metrics_bundle(self):
        params = {
            "p": 0.5,
            "q": 0.5,
            "density": 9.0,
            "mode": "psm_pbbf",
            "duration": 150.0,
        }
        point = evaluate_run("detailed", params, 7)
        assert isinstance(point, DetailedPointMetrics)
        assert 0.0 <= point.updates_received_fraction <= 1.0
        assert point.joules_per_update_per_node > 0.0


class TestFigureLayouts:
    def test_fig13_has_baselines_and_q_axis(self):
        result = run_fig13(TINY)
        labels = [series.label for series in result.series]
        assert labels[-2:] == ["PSM", "NO PSM"]
        for series in result.series:
            assert series.xs() == list(TINY.detailed_q_values)

    def test_fig17_uses_density_axis(self):
        result = run_fig17(TINY)
        for series in result.series:
            assert series.xs() == list(TINY.densities)

    def test_baselines_constant_across_axis(self):
        result = run_fig13(TINY)
        psm_values = {y for _, y in result.get_series("PSM").points}
        assert len(psm_values) == 1
