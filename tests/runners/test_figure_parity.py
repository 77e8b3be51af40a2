"""The campaign-backed figures must match direct point evaluation.

This is the refactor's no-regression guarantee: expressing a sweep as a
:class:`CampaignSpec` derives exactly the seeds the hand-rolled loops
used, so every plotted value is bit-identical to evaluating the point
directly.
"""

from repro.experiments.detailed_figures import run_fig13
from repro.experiments.ideal_figures import run_fig08
from repro.experiments.percolation_figures import run_fig07, run_fig12
from repro.ideal.simulator import SchedulingMode
from repro.runners import clear_run_caches, evaluate_run, get_stats, reset_stats
from tests.experiments.test_figures_smoke import TINY
from tests.experiments.test_ideal_figures import ideal_point


def test_fig08_matches_direct_evaluation():
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
    for q in TINY.detailed_q_values:
        params = {
            "p": p,
            "q": q,
            "density": 10.0,
            "mode": "psm_pbbf",
            "duration": TINY.duration,
            "scheduler": "psm",
        }
        values = []
        for run_index in range(TINY.detailed_runs):
            seed = TINY.seed_for("detailed", p, q, 10.0, "psm_pbbf", run_index)
            values.append(
                evaluate_run("detailed", params, seed).joules_per_update_per_node
            )
        assert series.y_at(q) == sum(values) / len(values)


def test_fig12_reuses_the_fig07_threshold_from_the_memo():
    assert 0.99 in TINY.reliability_levels
    clear_run_caches()
    run_fig07(TINY)
    reset_stats()
    run_fig12(TINY)
    stats = get_stats()
    assert stats.computed == 0
    assert stats.reused_memory == 1
