"""Unit tests for the percolation-figure harness plumbing."""

from dataclasses import replace

import pytest

from repro.experiments.percolation_figures import (
    run_fig06,
    run_fig07,
    run_fig12,
    size_sweep_campaign,
)
from repro.runners import run_campaign
from tests.experiments.test_figures_smoke import TINY


def critical_fraction(grid_side: int, reliability: float) -> float:
    """One Figure 6 threshold, through the figure's own campaign."""
    scale = replace(
        TINY, percolation_sizes=(grid_side,), reliability_levels=(reliability,)
    )
    result = run_campaign(size_sweep_campaign(scale))
    return result.metrics(
        grid_side=grid_side, reliability=reliability
    ).critical_fraction


class TestCriticalFraction:
    def test_value_in_sensible_range(self):
        value = critical_fraction(10, 0.9)
        assert 0.4 < value < 0.9

    def test_full_coverage_costs_more(self):
        partial = critical_fraction(10, 0.8)
        full = critical_fraction(10, 1.0)
        assert full > partial


class TestFigureConsistency:
    def test_fig07_endpoints_match_fig06_thresholds(self):
        # At p=1 the frontier's q equals the critical bond fraction for
        # the frontier grid — the two figures must agree by construction.
        scale = replace(TINY, percolation_sizes=(TINY.frontier_grid_side,))
        fig06 = run_fig06(scale)
        fig07 = run_fig07(scale)
        for level in scale.reliability_levels:
            label = f"{level:.0%} reliability"
            pc = fig06.get_series(label).y_at(float(scale.frontier_grid_side))
            frontier_at_p1 = fig07.get_series(label).y_at(1.0)
            assert frontier_at_p1 == pytest.approx(pc)

    def test_fig12_notes_record_calibration(self):
        result = run_fig12(TINY)
        notes = " ".join(result.notes)
        assert "critical bond fraction" in notes
        assert "L1" in notes and "L2" in notes

    def test_fig06_series_one_per_level(self):
        result = run_fig06(TINY)
        assert len(result.series) == len(TINY.reliability_levels)
        for series in result.series:
            assert series.xs() == [float(s) for s in TINY.percolation_sizes]


class TestPerc02:
    def test_one_series_per_family_and_process(self):
        from repro.experiments.percolation_figures import (
            PERC02_PROCESSES,
            run_perc02,
        )
        from repro.experiments.scenario_figures import portability_scenarios

        result = run_perc02(TINY)
        panel = portability_scenarios(TINY)
        labels = [series.label for series in result.series]
        assert len(labels) == len(PERC02_PROCESSES) * len(panel)
        for process in PERC02_PROCESSES:
            for family_label, _ in panel:
                assert f"{process} {family_label}" in labels

    def test_x_axis_is_the_reliability_levels(self):
        from repro.experiments.percolation_figures import run_perc02

        result = run_perc02(TINY)
        assert result.series[0].xs() == list(TINY.reliability_levels)

    def test_site_threshold_at_least_bond_threshold(self):
        """Killing a node severs all its bonds: site percolation needs a
        larger occupied fraction than bond percolation on every family."""
        from repro.experiments.percolation_figures import run_perc02
        from repro.experiments.scenario_figures import portability_scenarios

        result = run_perc02(TINY)
        for family_label, _ in portability_scenarios(TINY):
            bond = dict(result.get_series(f"bond {family_label}").points)
            site = dict(result.get_series(f"site {family_label}").points)
            for level in TINY.reliability_levels:
                assert site[level] >= bond[level] - 0.05

    def test_higher_reliability_needs_more_bonds(self):
        from repro.experiments.percolation_figures import run_perc02
        from repro.experiments.scenario_figures import portability_scenarios

        result = run_perc02(TINY)
        low, high = min(TINY.reliability_levels), max(TINY.reliability_levels)
        for family_label, _ in portability_scenarios(TINY):
            series = dict(result.get_series(f"bond {family_label}").points)
            assert series[high] >= series[low] - 1e-9
