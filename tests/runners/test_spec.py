"""Tests for campaign specs: enumeration, seeds, content hashing."""

import hashlib

import pytest

from repro.experiments.detailed_figures import q_sweep_campaign
from repro.experiments.ideal_figures import ideal_campaign
from repro.experiments.pareto_figures import adaptive_campaign, static_frontier_campaign
from repro.experiments.scale import Scale
from repro.experiments.scenario_figures import frontier_robustness_campaign
from repro.runners.cache import CACHE_VERSION
from repro.runners.points import evaluate_run, metrics_from_dict
from repro.runners.spec import CampaignSpec, run_key
from repro.util.canonical import canonical_json
from repro.util.rng import fold_seed


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


class TestRunsFoldEachPointOnce:
    """runs() folds a point's labels once and continues per seed index;
    the seeds and keys must be those of the whole-label derivation."""

    @staticmethod
    def derived(spec, point, seed_index):
        labels = [spec.kind, *(point[name] for name in spec.seed_params)]
        if spec.seed_with_run_index:
            labels.append(seed_index)
        seed = fold_seed(spec.base_seed, *labels)
        payload = canonical_json(
            {"kind": spec.kind, "params": point, "seed": seed, "version": CACHE_VERSION}
        )
        return seed, hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("build", [
        ideal_campaign, static_frontier_campaign, adaptive_campaign,
        q_sweep_campaign, frontier_robustness_campaign,
    ])
    def test_runs_equal_the_whole_label_derivation(self, build):
        spec = build(Scale.fast())
        runs = spec.runs()
        assert [(run.seed, run.key) for run in runs] == [
            self.derived(spec, point, index)
            for point in spec.points()
            for index in range(spec.n_seeds)
        ]
        assert [run.seed for run in runs] == [
            spec.point_seed(run.params_dict(), run.seed_index) for run in runs
        ]

    # Digests of every run's (seed index, seed, key), taken before runs()
    # folded each point once: seeds and run keys must never move.
    GOLDEN = [
        ("fast", ideal_campaign, 26,
         "d743ac5694a2ac418518234990add3f5056477e09b8570fe529b18506a75ff6d"),
        ("fast", static_frontier_campaign, 60,
         "a4319982ff040e4c57e21eaead180763114470f63a6c9b9c3e4cf572381e0d7f"),
        ("fast", adaptive_campaign, 8,
         "c380cbc6b0d23e588bb38bfe3e1e217885dc9961fec334a4fbdee36f79abb4a4"),
        ("fast", q_sweep_campaign, 24,
         "b744610d49f328669cbce2636cafd6e598015932d81b14c1005503bfdedf61af"),
        ("fast", frontier_robustness_campaign, 40,
         "32ff65ee9be26fb6fe8e9f89ccb0eed9fa263361d1ada82c3c9bff163dbd9fbe"),
        ("full", ideal_campaign, 57,
         "cb841b5246d471c89e51edcbaf3309e4b3992ea165b2f435682dfa332ba6a9ff"),
        ("full", static_frontier_campaign, 750,
         "ce934ddaabf6849a54093f3a556d8d606616f039e8226f26583332b46dadbaaf"),
        ("full", adaptive_campaign, 120,
         "e9ec402bf58a7c4e28613eadfceca472148aff75744427ce708cb8d61bbb93ba"),
        ("full", q_sweep_campaign, 460,
         "36ba4ef153fbd2c26a11b52cc6004cf4557e36ce6358287d41739264d3d7c88c"),
        ("full", frontier_robustness_campaign, 880,
         "b9c61cb3dbc6ca396e3e3107eb13afd17fef5a51c67fc848cc21491588bd9da1"),
    ]

    @pytest.mark.parametrize("scale_name, build, n_runs, digest", GOLDEN,
                             ids=lambda value: getattr(value, "__name__", value))
    def test_pinned_runs(self, scale_name, build, n_runs, digest):
        scale = Scale.fast() if scale_name == "fast" else Scale.full()
        runs = build(scale).runs()
        assert len(runs) == n_runs
        assert hashlib.sha256(
            "\n".join(f"{r.seed_index} {r.seed} {r.key}" for r in runs).encode()
        ).hexdigest() == digest

    def test_seed_for_is_unchanged(self):
        scale = Scale.fast()
        assert scale.seed_for("ideal", 25, 0.25, 1.0, "psm_pbbf") == 2399258515927531879
        assert scale.seed_for("fig13", "\u00e9", 3) == 1343660111999681956


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

    @pytest.mark.parametrize("kind, params, seed", [
        ("ideal", {"p": 0.5, "q": 1.0, "mode": "psm_pbbf"}, 0),
        ("detailed", {"scenario": '{"family":"grid","n":"\u00e9"}', "q": -0.0}, 2**63 - 1),
        ("percolation", {"nested": {"b": [1, 2.5, None], "a": True}}, -7),
        ("ideal", {}, 12),
    ])
    def test_key_hashes_the_canonical_payload(self, kind, params, seed):
        # The payload is spliced from its serialized parts; it must be the
        # canonical JSON of the whole payload dict.
        payload = canonical_json(
            {"kind": kind, "params": params, "seed": seed, "version": CACHE_VERSION}
        )
        assert run_key(kind, params, seed) == hashlib.sha256(
            payload.encode("utf-8")
        ).hexdigest()

    def test_key_stability_golden(self):
        # Pins the serialization format: changing it silently would orphan
        # every existing cache entry.  Update alongside CACHE_VERSION.
        key = run_key("percolation", {"grid_side": 8, "reliability": 0.9}, 7)
        assert key == run_key("percolation", {"reliability": 0.9, "grid_side": 8}, 7)
        assert len(key) == 64 and int(key, 16) >= 0
