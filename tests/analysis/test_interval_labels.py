"""Operating-point intervals fold each point's label prefix once.

``operating_points`` folds ``(base_seed, "bootstrap", point token)`` once
per point and continues it with each objective's name, which is the
same stream as folding every label on each call.  The intervals of real
campaigns must equal those of the all-labels call, float for float.
"""

from repro.analysis.bootstrap import bootstrap_ci95
from repro.analysis.objectives import Objective, operating_points
from repro.ideal.simulator import SchedulingMode
from repro.runners import CampaignSpec, clear_run_caches, run_campaign
from repro.scenarios import ScenarioSpec
from repro.util.canonical import canonical_json
from repro.util.rng import fold_seed

OBJECTIVES = (
    Objective("latency", "s/hop", lambda m: m.mean_per_hop_latency, "min"),
    Objective("energy", "J/update", lambda m: m.joules_per_update_per_node, "min"),
    Objective("coverage", "coverage", lambda m: m.mean_coverage, "max"),
)


def campaign(base_seed):
    return CampaignSpec.build(
        kind="ideal",
        axes={
            "scenario": (
                ScenarioSpec.build("grid", {"side": 6}),
                ScenarioSpec.build(
                    "random",
                    {"n_nodes": 30, "radio_range": 10.0, "density": 12.0},
                    source="random",
                ),
            ),
            "p": (0.25, 0.75),
            "q": (0.3, 0.9),
        },
        fixed={
            "n_broadcasts": 2,
            "mode": SchedulingMode.PSM_PBBF.value,
            "hop_near": 1,
            "hop_far": 3,
        },
        seed_params=("scenario", "p", "q"),
        n_seeds=4,
        base_seed=base_seed,
    )


def test_intervals_equal_the_all_labels_call():
    for base_seed in (0, -7, 20050610, 2**63 + 5):
        spec = campaign(base_seed)
        clear_run_caches()
        points = operating_points(
            run_campaign(spec, use_cache=False), OBJECTIVES, n_resamples=300
        )
        assert len(points) == len(spec.points())
        for point in points:
            token = canonical_json(dict(point.params))
            for objective, samples, ci95 in zip(OBJECTIVES, point.samples, point.ci95):
                assert ci95 == bootstrap_ci95(
                    samples, spec.base_seed, "bootstrap", token, objective.name,
                    n_resamples=300,
                )
    clear_run_caches()


def test_no_labels_fold_is_the_identity():
    for seed in (0, 1, -3, 2**63, 2**64 + 11):
        assert fold_seed(seed) == seed
