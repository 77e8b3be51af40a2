"""Streaming results: ``on_point`` delivery and frontier snapshot parity.

``run_campaign(on_point=...)`` must deliver every materialised point —
computed on any backend, or reused from the memo or the disk cache —
before the final result returns, and the
:class:`StreamingFrontier` consumer fed that stream must snapshot to the
exact bits of the batch ``operating_points`` → ``pareto_frontier``
pipeline, independent of arrival order.
"""

import pytest

from repro.analysis import (
    Constraint,
    Objective,
    StreamingFrontier,
    operating_points,
    pareto_frontier,
)
from repro.runners import (
    CampaignSpec,
    clear_run_caches,
    execution,
    get_stats,
    reset_stats,
    run_campaign,
)


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    clear_run_caches()
    reset_stats()
    yield
    clear_run_caches()


def tiny_spec(**overrides):
    kwargs = dict(
        kind="percolation",
        axes={"grid_side": (6, 8), "reliability": (0.8, 0.9)},
        fixed={"runs": 3, "process": "bond"},
        seed_params=("grid_side", "reliability"),
        n_seeds=2,
    )
    kwargs.update(overrides)
    return CampaignSpec.build(**kwargs)


OBJECTIVES = (
    Objective(
        "critical", "critical fraction", lambda m: m.critical_fraction, "min"
    ),
    Objective("ci", "ci95 half-width", lambda m: m.ci95, "min"),
)


def result_metrics_by_key(result):
    return {
        run.key: result.metrics(seed_index=run.seed_index, **run.params_dict())
        for run in result.spec.runs()
    }


class TestOnPointDelivery:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_every_computed_point_streams_before_return(self, jobs):
        spec = tiny_spec()
        seen = []
        with execution(jobs=jobs):
            result = run_campaign(
                spec,
                use_cache=False,
                on_point=lambda run, metrics: seen.append((run.key, metrics)),
            )
        assert sorted(key for key, _ in seen) == sorted(
            run.key for run in spec.runs()
        )
        expected = result_metrics_by_key(result)
        assert all(metrics == expected[key] for key, metrics in seen)

    def test_reused_points_stream_too(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, cache=str(tmp_path))
        clear_run_caches()  # drop the memo: reuse must come from disk
        seen = []
        result = run_campaign(
            spec,
            cache=str(tmp_path),
            on_point=lambda run, metrics: seen.append(run.key),
        )
        assert sorted(seen) == sorted(run.key for run in spec.runs())
        assert get_stats().computed == len(spec.runs())  # first run only
        assert not result.failures


class TestStreamingFrontierParity:
    def test_final_snapshot_matches_batch_extraction(self):
        spec = tiny_spec()
        stream = StreamingFrontier(OBJECTIVES, base_seed=spec.base_seed)
        result = run_campaign(spec, use_cache=False, on_point=stream.on_point)
        assert len(stream) == len(spec.runs())
        batch = operating_points(result, OBJECTIVES)
        token = lambda point: point.token
        assert sorted(stream.operating_points(), key=token) == sorted(
            batch, key=token
        )
        assert stream.frontier() == pareto_frontier(batch, OBJECTIVES)

    def test_snapshot_is_arrival_order_independent(self):
        spec = tiny_spec()
        events = []
        run_campaign(
            spec,
            use_cache=False,
            on_point=lambda run, metrics: events.append((run, metrics)),
        )
        forward = StreamingFrontier(OBJECTIVES, base_seed=spec.base_seed)
        backward = StreamingFrontier(OBJECTIVES, base_seed=spec.base_seed)
        for run, metrics in events:
            forward.on_point(run, metrics)
        for run, metrics in reversed(events):
            backward.on_point(run, metrics)
        assert forward.operating_points() == backward.operating_points()
        assert forward.frontier() == backward.frontier()

    def test_redelivery_counts_once_and_changes_nothing(self):
        spec = tiny_spec()
        stream = StreamingFrontier(OBJECTIVES, base_seed=spec.base_seed)
        events = []
        run_campaign(
            spec,
            use_cache=False,
            on_point=lambda run, metrics: events.append((run, metrics)),
        )
        for run, metrics in events:
            stream.on_point(run, metrics)
        snapshot = stream.operating_points()
        for run, metrics in events:  # a hung worker's late double-delivery
            stream.on_point(run, metrics)
        assert len(stream) == len(events)
        assert stream.operating_points() == snapshot

    def test_where_filter_matches_batch(self):
        spec = tiny_spec()
        where = lambda params: params["grid_side"] == 6
        stream = StreamingFrontier(
            OBJECTIVES, where=where, base_seed=spec.base_seed
        )
        result = run_campaign(spec, use_cache=False, on_point=stream.on_point)
        batch = operating_points(result, OBJECTIVES, where=where)
        token = lambda point: point.token
        assert sorted(stream.operating_points(), key=token) == sorted(
            batch, key=token
        )
        assert len(stream) == len(spec.runs()) // 2

    def test_failing_constraint_excludes_points_like_batch(self):
        spec = tiny_spec()
        impossible = Constraint(
            "cf-ceiling", lambda m: m.critical_fraction, -1.0, "le"
        )
        stream = StreamingFrontier(
            OBJECTIVES, constraints=(impossible,), base_seed=spec.base_seed
        )
        result = run_campaign(spec, use_cache=False, on_point=stream.on_point)
        assert stream.operating_points() == []
        assert operating_points(result, OBJECTIVES, (impossible,)) == []

    def test_needs_at_least_one_objective(self):
        with pytest.raises(ValueError, match="objective"):
            StreamingFrontier(())
