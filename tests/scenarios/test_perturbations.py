"""The Perturbations sub-spec: tokens, validation, realization draws."""

import math

import pytest

from repro.scenarios import (
    ClockSkew,
    FailureTimes,
    Perturbations,
    ScenarioSpec,
)

WORLD = ("random", {"n_nodes": 30, "radio_range": 40.0, "density": 10.0})


def _spec(perturbations=None):
    family, params = WORLD
    return ScenarioSpec.build(
        family, params, source="random", perturbations=perturbations
    )


class TestTokenStability:
    """Tokens without the new fields must be byte-identical to PR 3's."""

    def test_plain_grid_token_pinned(self):
        assert ScenarioSpec.grid_default(9).token == (
            '{"family":"grid","params":{"side":9}}'
        )

    def test_failure_fraction_token_pinned(self):
        spec = ScenarioSpec.build(
            "grid", {"side": 9}, source="corner", failure_fraction=0.2
        )
        assert spec.token == (
            '{"failure_fraction":0.2,"family":"grid",'
            '"params":{"side":9},"source":"corner"}'
        )

    def test_empty_perturbations_bundle_is_the_legacy_token(self):
        family, params = WORLD
        plain = ScenarioSpec.build(family, params, source="random")
        bundled = _spec(Perturbations())
        assert bundled.token == plain.token
        assert bundled == plain

    def test_new_fields_round_trip_through_the_token(self):
        spec = _spec(
            Perturbations(
                failure_fraction=0.1,
                failure_times=FailureTimes(0.2, 50.0, 150.0),
                clock_skew=ClockSkew(2.0),
            )
        )
        parsed = ScenarioSpec.from_token(spec.token)
        assert parsed == spec
        assert parsed.perturbations == spec.perturbations

    def test_perturbed_token_differs_from_nominal(self):
        nominal = _spec()
        perturbed = _spec(
            Perturbations(failure_times=FailureTimes(0.2, 50.0, 150.0))
        )
        assert nominal.token != perturbed.token
        assert nominal.content_hash() != perturbed.content_hash()

    def test_describe_mentions_the_perturbations(self):
        spec = _spec(
            Perturbations(
                failure_times=FailureTimes(0.2, 50.0, 150.0),
                clock_skew=ClockSkew(2.0),
            )
        )
        assert "midrun_failures=0.2@[50,150]s" in spec.describe()
        assert "skew=2s" in spec.describe()


class TestValidation:
    def test_failure_times_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            FailureTimes(0.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="fraction"):
            FailureTimes(1.0, 0.0, 10.0)

    def test_failure_times_window_ordering(self):
        with pytest.raises(ValueError, match="window"):
            FailureTimes(0.2, 10.0, 5.0)
        with pytest.raises(ValueError, match="window"):
            FailureTimes(0.2, -1.0, 5.0)

    @pytest.mark.parametrize(
        "start, end",
        [(10.0, math.inf), (math.nan, 10.0), (0.0, math.nan), (math.inf, math.inf)],
    )
    def test_failure_times_window_must_be_finite(self, start, end):
        # A non-finite bound used to pass the ordering check and put
        # Infinity or NaN, which is not standard JSON, into the token.
        with pytest.raises(ValueError, match="finite"):
            FailureTimes(0.2, start, end)

    def test_failure_times_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            FailureTimes(0.2, 0.0, 10.0, distribution="pareto")

    def test_clock_skew_std_positive(self):
        with pytest.raises(ValueError, match="std"):
            ClockSkew(0.0)
        with pytest.raises(ValueError, match="std"):
            ClockSkew(-1.0)

    @pytest.mark.parametrize("std", [math.inf, math.nan])
    def test_clock_skew_std_must_be_finite(self, std):
        with pytest.raises(ValueError, match="finite"):
            ClockSkew(std)

    def test_clock_skew_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            ClockSkew(1.0, distribution="uniform")

    def test_bundle_and_flat_args_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ScenarioSpec.build(
                "grid", {"side": 5},
                failure_fraction=0.3,
                perturbations=Perturbations(),
            )
        with pytest.raises(ValueError, match="not both"):
            ScenarioSpec.build(
                "grid", {"side": 5},
                clock_skew=ClockSkew(1.0),
                perturbations=Perturbations(failure_fraction=0.1),
            )

    def test_build_rejects_bare_payloads(self):
        with pytest.raises(TypeError, match="failure_times"):
            ScenarioSpec.build(
                "grid", {"side": 5},
                failure_times={"fraction": 0.2, "start": 0, "end": 10},
            )
        with pytest.raises(TypeError, match="clock_skew"):
            ScenarioSpec.build("grid", {"side": 5}, clock_skew={"std": 2.0})


class TestRealization:
    PERTURBED = Perturbations(
        failure_fraction=0.1,
        failure_times=FailureTimes(0.2, 50.0, 150.0),
        clock_skew=ClockSkew(2.0),
    )

    def test_midrun_victims_exclude_source_and_prefailed(self):
        realized = _spec(self.PERTURBED).realize(11)
        victims = [node for node, _ in realized.failure_times]
        assert realized.source not in victims
        assert not set(victims) & set(realized.failed_nodes)

    def test_midrun_times_inside_the_window(self):
        realized = _spec(self.PERTURBED).realize(11)
        assert realized.failure_times  # 20% of 30 nodes: non-empty
        for _, when in realized.failure_times:
            assert 50.0 <= when <= 150.0

    def test_midrun_schedule_sorted_by_node(self):
        realized = _spec(self.PERTURBED).realize(11)
        victims = [node for node, _ in realized.failure_times]
        assert victims == sorted(victims)

    def test_clock_offsets_cover_every_node_nonnegative(self):
        realized = _spec(self.PERTURBED).realize(11)
        assert len(realized.clock_offsets) == realized.topology.n_nodes
        assert all(offset >= 0.0 for offset in realized.clock_offsets)

    def test_no_perturbations_realize_empty(self):
        realized = _spec().realize(11)
        assert realized.failure_times == ()
        assert realized.clock_offsets == ()

    def test_realization_deterministic_per_seed(self):
        a = _spec(self.PERTURBED).realize(11)
        b = _spec(self.PERTURBED).realize(11)
        assert a.failure_times == b.failure_times
        assert a.clock_offsets == b.clock_offsets
        assert a.failure_times != _spec(self.PERTURBED).realize(12).failure_times

    def test_perturbations_never_move_placement_or_source(self):
        """Common random numbers: the perturbed twin shares the world."""
        nominal = _spec().realize(11)
        perturbed = _spec(self.PERTURBED).realize(11)
        topo_n, topo_p = nominal.topology, perturbed.topology
        assert [topo_n.position(v) for v in topo_n.nodes()] == [
            topo_p.position(v) for v in topo_p.nodes()
        ]
        assert nominal.source == perturbed.source

    def test_high_fraction_can_kill_every_candidate(self):
        """The cap is the candidate pool, not one short of it."""
        spec = ScenarioSpec.build(
            "grid", {"side": 3},
            perturbations=Perturbations(
                failure_times=FailureTimes(0.9, 10.0, 20.0)
            ),
        )
        realized = spec.realize(4)
        # round(0.9 * 9) = 8 = every node but the source.
        assert realized.n_midrun_failures == 8

    def test_adding_skew_never_moves_the_death_schedule(self):
        """Streams are independent: skew draws don't disturb deaths."""
        deaths_only = _spec(
            Perturbations(failure_times=FailureTimes(0.2, 50.0, 150.0))
        ).realize(11)
        both = _spec(
            Perturbations(
                failure_times=FailureTimes(0.2, 50.0, 150.0),
                clock_skew=ClockSkew(2.0),
            )
        ).realize(11)
        assert deaths_only.failure_times == both.failure_times


class TestConnectedRetryRegression:
    """`RandomTopology.connected` draws fresh placements per attempt.

    The retry loop advances one shared generator — it must never re-seed
    (or re-derive the named stream) between attempts, or every retry
    would rebuild the identical disconnected deployment and spin until
    ``max_attempts``.  Pinned here through the ``spec.realize`` path the
    scenario layer actually uses.
    """

    def test_retries_draw_distinct_placements(self, monkeypatch):
        from repro.net.topology import RandomTopology

        seen = []
        original = RandomTopology.is_connected

        def flaky_is_connected(self):
            seen.append(tuple(self.position(v) for v in self.nodes()))
            if len(seen) < 3:
                return False  # force two retries
            return original(self)

        monkeypatch.setattr(RandomTopology, "is_connected", flaky_is_connected)
        _spec().realize(11)
        assert len(seen) >= 3
        assert len(set(seen)) == len(seen)  # every attempt a fresh draw

    def test_realize_stays_pure_despite_retries(self, monkeypatch):
        """Retry count is part of the (spec, seed) function, not state."""
        from repro.net.topology import RandomTopology

        calls = {"n": 0}
        original = RandomTopology.is_connected

        def flaky_is_connected(self):
            calls["n"] += 1
            if calls["n"] % 3 != 0:
                return False
            return original(self)

        monkeypatch.setattr(RandomTopology, "is_connected", flaky_is_connected)
        first = _spec().realize(11)
        second = _spec().realize(11)
        topo_a, topo_b = first.topology, second.topology
        assert [topo_a.position(v) for v in topo_a.nodes()] == [
            topo_b.position(v) for v in topo_b.nodes()
        ]
