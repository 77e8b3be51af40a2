"""The campaign-backed figures must match direct point evaluation.

This is the refactor's no-regression guarantee: expressing a sweep as a
:class:`CampaignSpec` derives exactly the seeds the hand-rolled loops
used, so every plotted value is bit-identical to evaluating the point
directly.
"""

from repro.experiments.detailed_figures import _detailed_run, run_fig13
from repro.experiments.ideal_figures import run_fig08
from repro.experiments.percolation_figures import (
    _critical_fraction,
    critical_fraction,
    run_fig06,
)
from repro.ideal.simulator import SchedulingMode
from repro.runners import clear_run_caches
from repro.runners.points import _percolation_point
from tests.experiments.test_figures_smoke import TINY
from tests.experiments.test_ideal_figures import ideal_point


def test_fig08_matches_direct_ideal_points():
    result = run_fig08(TINY)
    for p in TINY.ideal_p_values:
        series = result.get_series(f"PBBF-{p:g}")
        for q in TINY.ideal_q_values:
            direct = ideal_point(TINY, p, q, SchedulingMode.PSM_PBBF)
            assert series.y_at(q) == direct.joules_per_update_per_node


def test_fig13_matches_direct_detailed_runs():
    clear_run_caches()  # self-contained: campaign below must simulate fresh
    result = run_fig13(TINY)
    (p,) = TINY.detailed_p_values
    series = result.get_series(f"PBBF-{p:g}")
    # The campaign path and the direct positional calls below must share
    # one lru_cache entry per point (no double simulation of the
    # heaviest simulator in the repo).
    misses_after_campaign = _detailed_run.cache_info().misses
    for q in TINY.detailed_q_values:
        values = []
        for run_index in range(TINY.detailed_runs):
            seed = TINY.seed_for("detailed", p, q, 10.0, "psm_pbbf", run_index)
            values.append(
                _detailed_run(p, q, 10.0, "psm_pbbf", TINY.duration, seed)
                .joules_per_update_per_node
            )
        assert series.y_at(q) == sum(values) / len(values)
    assert _detailed_run.cache_info().misses == misses_after_campaign


def test_fig06_shares_points_with_critical_fraction():
    clear_run_caches()
    _critical_fraction.cache_clear()
    run_fig06(TINY)
    misses_after_campaign = _percolation_point.cache_info().misses
    for size in TINY.percolation_sizes:
        for level in TINY.reliability_levels:
            critical_fraction(TINY, size, level)
    assert _percolation_point.cache_info().misses == misses_after_campaign
