"""Structure tests for the pareto01-03 trade-off figures."""

import pytest

from repro.analysis.pareto import Frontier
from repro.experiments.pareto_figures import (
    PARETO02_POLICY,
    adaptive_campaign,
    coverage_constraint,
    energy_objective,
    family_frontiers,
    frontier_table,
    hop_latency_objective,
    pareto_family_panel,
    run_pareto01,
    run_pareto02,
    run_pareto03,
    static_frontier_campaign,
)
from repro.runners import clear_run_caches, run_campaign
from tests.experiments.test_figures_smoke import TINY


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    yield
    clear_run_caches()


class TestCampaignLayout:
    def test_family_panel_follows_scale(self):
        panel = pareto_family_panel(TINY)
        assert [name for name, _ in panel] == list(TINY.pareto_families)

    def test_unknown_family_rejected(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="unknown pareto family"):
            pareto_family_panel(replace(TINY, pareto_families=("moebius",)))

    def test_static_campaign_sweeps_family_x_p_x_q(self):
        spec = static_frontier_campaign(TINY)
        assert spec.n_points == (
            len(TINY.pareto_families)
            * len(TINY.pareto_p_values)
            * len(TINY.pareto_q_values)
        )
        assert spec.n_seeds == TINY.pareto_seeds

    def test_adaptive_campaign_carries_policy_token(self):
        spec = adaptive_campaign(TINY)
        assert dict(spec.fixed)["adaptive"] == PARETO02_POLICY.token


class TestPareto01:
    def test_one_series_per_family_with_frontier_rows(self):
        result = run_pareto01(TINY)
        assert [s.label for s in result.series] == list(TINY.pareto_families)
        assert result.frontier_header[:3] == ("", "set", "point")
        assert result.frontier_rows
        markers = [row[0] for row in result.frontier_rows]
        assert markers.count("*") == len(
            {row[1] for row in result.frontier_rows}
        )  # one knee per populated family

    def test_frontier_series_trace_the_inverse_relationship(self):
        result = run_pareto01(TINY)
        for series in result.series:
            xs = [x for x, _ in series.points]
            ys = [y for _, y in series.points]
            assert xs == sorted(xs)
            assert ys == sorted(ys, reverse=True)

    def test_frontiers_are_a_function_of_the_returned_campaign(self):
        result = run_pareto01(TINY)
        frontiers = family_frontiers(
            run_campaign(static_frontier_campaign(TINY)),
            pareto_family_panel(TINY),
            (hop_latency_objective(), energy_objective()),
            (coverage_constraint(TINY),),
            TINY.bootstrap_resamples,
        )
        assert frontier_table(frontiers) == (
            result.frontier_header, result.frontier_rows
        )

    def test_rendering_includes_frontier_block(self):
        rendered = run_pareto01(TINY).render()
        assert "frontier (non-dominated operating points; * = knee):" in rendered
        assert "hypervolume" in rendered


class TestPareto02:
    def test_static_and_adaptive_series(self):
        result = run_pareto02(TINY)
        assert [s.label for s in result.series] == [
            "static frontier",
            "adaptive frontier",
        ]
        sets = {row[1] for row in result.frontier_rows}
        assert sets <= {"static", "adaptive"}
        assert any("adaptive policy:" in note for note in result.notes)


class TestPareto03:
    def test_lifetime_axis_is_maximised(self):
        result = run_pareto03(TINY)
        assert "battery-days" in result.y_label
        for series in result.series:
            xs = [x for x, _ in series.points]
            ys = [y for _, y in series.points]
            assert xs == sorted(xs)
            assert ys == sorted(ys)  # more latency -> more battery-days

    def test_shares_campaign_with_pareto01(self):
        run_pareto01(TINY)
        from repro.runners import get_stats, reset_stats

        reset_stats()
        run_pareto03(TINY)
        assert get_stats().computed == 0  # every point reused from memo
