"""Tests for campaign specs: enumeration, seeds, content hashing."""

import pytest

from repro.experiments.scale import Scale
from repro.runners.points import evaluate_run, metrics_from_dict
from repro.runners.spec import CampaignSpec, run_key


def tiny_ideal_spec(**overrides):
    kwargs = dict(
        kind="ideal",
        axes={"p": (0.25, 0.5), "q": (0.0, 1.0)},
        fixed={
            "grid_side": 7,
            "n_broadcasts": 2,
            "mode": "psm_pbbf",
            "hop_near": 2,
            "hop_far": 4,
        },
        extra_points=({"p": 1.0, "q": 1.0, "mode": "always_on"},),
        seed_params=("grid_side", "p", "q", "mode"),
    )
    kwargs.update(overrides)
    return CampaignSpec.build(**kwargs)


class TestBuildValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CampaignSpec.build(kind="quantum", axes={"p": (0.5,)})

    @pytest.mark.parametrize(
        "call",
        [
            lambda: evaluate_run("quantum", {"p": 0.5}, 1),
            lambda: metrics_from_dict("quantum", {"x": 1.0}),
        ],
        ids=["evaluate_run", "metrics_from_dict"],
    )
    def test_unknown_kind_rejected_by_the_evaluators(self, call):
        with pytest.raises(ValueError, match="unknown campaign kind 'quantum'"):
            call()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec.build(kind="ideal", axes={"p": ()})

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError, match="n_seeds"):
            tiny_ideal_spec(n_seeds=0)

    def test_extra_point_with_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            tiny_ideal_spec(extra_points=({"voltage": 3.3},))

    def test_seed_params_must_reference_known_parameters(self):
        with pytest.raises(ValueError, match="seed_params"):
            tiny_ideal_spec(seed_params=("p", "does_not_exist"))


class TestEnumeration:
    def test_points_are_product_plus_extras(self):
        spec = tiny_ideal_spec()
        points = spec.points()
        assert len(points) == 2 * 2 + 1
        assert {"p": 1.0, "q": 1.0} == {
            k: points[-1][k] for k in ("p", "q")
        }
        assert points[-1]["mode"] == "always_on"

    def test_extras_override_fixed(self):
        spec = tiny_ideal_spec()
        assert spec.points()[-1]["grid_side"] == 7  # fixed still applies

    def test_duplicate_extra_deduplicated(self):
        spec = tiny_ideal_spec(
            extra_points=({"p": 0.25, "q": 0.0},)  # already in the product
        )
        assert len(spec.points()) == 4

    def test_runs_cover_every_seed_index(self):
        spec = tiny_ideal_spec(n_seeds=3, seed_with_run_index=True)
        runs = spec.runs()
        assert len(runs) == 5 * 3
        assert {run.seed_index for run in runs} == {0, 1, 2}


class TestSeeds:
    def test_seed_depends_on_content_not_order(self):
        forward = tiny_ideal_spec()
        reversed_axes = tiny_ideal_spec(
            axes={"q": (1.0, 0.0), "p": (0.5, 0.25)}
        )
        point = {"p": 0.5, "q": 1.0}
        merged = forward.merge(point)
        assert forward.point_seed(merged) == reversed_axes.point_seed(merged)
        assert {run.key for run in forward.runs()} == {
            run.key for run in reversed_axes.runs()
        }

    def test_seed_matches_scale_seed_for(self):
        # The runner must agree seed-for-seed with the hand-rolled sweeps
        # it replaced, so figure values are unchanged by the refactor.
        scale = Scale.fast()
        spec = tiny_ideal_spec(
            fixed={
                "grid_side": scale.grid_side,
                "n_broadcasts": scale.n_broadcasts,
                "mode": "psm_pbbf",
                "hop_near": scale.hop_distance_near,
                "hop_far": scale.hop_distance_far,
            },
            base_seed=scale.base_seed,
        )
        merged = spec.merge({"p": 0.25, "q": 1.0})
        assert spec.point_seed(merged) == scale.seed_for(
            "ideal", scale.grid_side, 0.25, 1.0, "psm_pbbf"
        )

    def test_run_index_distinguishes_seeds(self):
        spec = tiny_ideal_spec(n_seeds=2, seed_with_run_index=True)
        merged = spec.merge({"p": 0.25, "q": 0.0})
        assert spec.point_seed(merged, 0) != spec.point_seed(merged, 1)

    def test_multi_seed_forces_run_index_into_labels(self):
        # n_seeds > 1 without seed_with_run_index would otherwise give
        # every "independent run" the same seed — a silent statistical lie.
        spec = tiny_ideal_spec(n_seeds=4)
        assert spec.seed_with_run_index
        seeds = {run.seed for run in spec.runs()}
        assert len(seeds) == len(spec.runs())


class TestContentHash:
    def test_deterministic(self):
        assert tiny_ideal_spec().content_hash() == tiny_ideal_spec().content_hash()

    def test_axis_declaration_order_irrelevant(self):
        forward = tiny_ideal_spec()
        reordered = tiny_ideal_spec(axes={"q": (0.0, 1.0), "p": (0.25, 0.5)})
        assert forward.content_hash() == reordered.content_hash()

    def test_sensitive_to_values(self):
        assert tiny_ideal_spec().content_hash() != tiny_ideal_spec(
            axes={"p": (0.25, 0.5), "q": (0.0, 0.9)}
        ).content_hash()

    def test_sensitive_to_seed_and_kind_fields(self):
        base = tiny_ideal_spec()
        assert base.content_hash() != tiny_ideal_spec(base_seed=1).content_hash()
        assert base.content_hash() != tiny_ideal_spec(n_seeds=2).content_hash()


class TestRunKey:
    def test_key_is_content_hash_of_run(self):
        params = {"p": 0.5, "q": 0.0, "grid_side": 7}
        assert run_key("ideal", params, 42) == run_key(
            "ideal", dict(reversed(list(params.items()))), 42
        )
        assert run_key("ideal", params, 42) != run_key("ideal", params, 43)
        assert run_key("ideal", params, 42) != run_key("detailed", params, 42)

    def test_key_stability_golden(self):
        # Pins the serialization format: changing it silently would orphan
        # every existing cache entry.  Update alongside CACHE_VERSION.
        key = run_key("percolation", {"grid_side": 8, "reliability": 0.9}, 7)
        assert key == run_key("percolation", {"reliability": 0.9, "grid_side": 8}, 7)
        assert len(key) == 64 and int(key, 16) >= 0
