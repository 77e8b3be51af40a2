"""CampaignResult lookups through its per-point index, against the derivation.

A lookup resolves ``(point, seed_index)`` to a run key through an index
built from the campaign's runs.  The oracle here is the derivation every
lookup used to make, ``run_key(kind, params, spec.point_seed(params, i))``:
each hit must return that key's bundle and each miss must raise what the
derivation's miss raised.
"""

import pytest

from repro.experiments.ideal_figures import ideal_campaign
from repro.experiments.pareto_figures import (
    adaptive_campaign,
    pareto_family_panel,
    static_frontier_campaign,
)
from repro.experiments.scale import Scale
from repro.runners import CampaignResult, RunFailure, run_key

#: Real campaigns: a (p, q) grid with baseline extras and one seed, a
#: scenario-token axis with several seeds, and an adaptive-policy token.
SPECS = {
    "grid": lambda: ideal_campaign(Scale.fast()),
    "grid-full": lambda: ideal_campaign(Scale.full()),
    "scenario-token": lambda: static_frontier_campaign(Scale.fast()),
    "adaptive": lambda: adaptive_campaign(Scale.fast()),
}


def key_echo(spec, failures=()):
    """A result whose bundle for each run is that run's own key."""
    failed = {failure.key for failure in failures}
    runs = spec.runs()
    return CampaignResult(
        spec=spec,
        runs=runs,
        by_key={run.key: run.key for run in runs if run.key not in failed},
        computed=0,
        reused=len(runs),
        failures=failures,
    )


def derived_key(spec, point, seed_index):
    """The oracle: the run key re-derived from the point's content."""
    params = spec.merge(point)
    return run_key(spec.kind, params, spec.point_seed(params, seed_index))


def missing_message(spec, point, seed_index):
    return str(
        KeyError(
            f"campaign has no run for params={spec.merge(point)} "
            f"seed_index={seed_index}"
        )
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_lookup_returns_the_derived_key(name):
    spec = SPECS[name]()
    result = key_echo(spec)
    for point in spec.points():
        expected = [derived_key(spec, point, i) for i in range(spec.n_seeds)]
        assert result.metrics_over_seeds(**point) == expected
        assert [
            result.metrics(seed_index=i, **point) for i in range(spec.n_seeds)
        ] == expected
    # One index entry per point, not one per run.
    assert len(result._keys_by_point) == len(spec.points())


def test_a_float_point_misses_an_int_lookup():
    spec = ideal_campaign(Scale.fast())
    result = key_echo(spec)
    assert result.metrics(p=1.0, q=1.0, mode="always_on")
    point = {"p": 1, "q": 1, "mode": "always_on"}
    assert derived_key(spec, point, 0) not in {run.key for run in spec.runs()}
    with pytest.raises(KeyError) as single:
        result.metrics(**point)
    assert str(single.value) == missing_message(spec, point, 0)
    with pytest.raises(KeyError) as over_seeds:
        result.metrics_over_seeds(**point)
    assert str(over_seeds.value) == missing_message(spec, point, 0)


@pytest.mark.parametrize("seed_index", [2, 3, -1])
def test_a_seed_index_outside_the_campaign_misses(seed_index):
    spec = static_frontier_campaign(Scale.fast())
    assert spec.n_seeds == 2
    result = key_echo(spec)
    point = spec.points()[0]
    assert derived_key(spec, point, seed_index) not in {
        run.key for run in spec.runs()
    }
    with pytest.raises(KeyError) as error:
        result.metrics(seed_index=seed_index, **point)
    assert str(error.value) == missing_message(spec, point, seed_index)


def test_any_seed_index_hits_when_the_index_is_not_in_the_label():
    spec = ideal_campaign(Scale.fast())
    assert not spec.seed_with_run_index
    result = key_echo(spec)
    point = spec.points()[3]
    assert result.metrics(seed_index=5, **point) == derived_key(spec, point, 5)
    assert derived_key(spec, point, 5) == derived_key(spec, point, 0)


def test_a_scenario_and_its_token_hit_the_same_entry():
    scale = Scale.fast()
    spec = static_frontier_campaign(scale)
    result = key_echo(spec)
    _, scenario = pareto_family_panel(scale)[0]
    p, q = scale.pareto_p_values[0], scale.pareto_q_values[-1]
    by_object = result.metrics(seed_index=1, scenario=scenario, p=p, q=q)
    assert by_object == result.metrics(seed_index=1, scenario=scenario.token, p=p, q=q)
    assert by_object == derived_key(spec, {"scenario": scenario.token, "p": p, "q": q}, 1)


def test_a_point_without_a_seed_parameter_raises_what_the_derivation_raised():
    spec = ideal_campaign(Scale.fast())
    result = key_echo(spec)
    with pytest.raises(KeyError) as derived:
        derived_key(spec, {"q": 0.2}, 0)
    for lookup in (result.metrics, result.metrics_over_seeds):
        with pytest.raises(KeyError) as looked_up:
            lookup(q=0.2)
        assert looked_up.value.args == derived.value.args == ("p",)


def test_a_failed_run_raises_its_failure_and_is_skipped_over_seeds():
    spec = static_frontier_campaign(Scale.fast())
    point = spec.points()[4]
    params = spec.merge(point)
    failed = next(
        run for run in spec.runs() if run.params_dict() == params and run.seed_index == 1
    )
    failure = RunFailure(
        key=failed.key,
        kind=failed.kind,
        params=failed.params,
        seed=failed.seed,
        attempts=3,
        error_type="WorkerCrashError",
        error="worker died",
    )
    result = key_echo(spec, failures=(failure,))
    with pytest.raises(KeyError) as error:
        result.metrics(seed_index=1, **point)
    assert str(error.value) == str(
        KeyError(
            f"campaign run failed for params={params} seed_index=1: "
            "WorkerCrashError after 3 attempt(s): worker died"
        )
    )
    assert result.metrics_over_seeds(**point) == [derived_key(spec, point, 0)]
