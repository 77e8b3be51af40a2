"""The seed-free predicate never lies.

A spec that reports :attr:`ScenarioSpec.seed_free` is realized once per
process and that one world serves every seed, so it must realize to equal
worlds at every seed.  Anything that draws from the seed (a family without
the declaration, a ``random`` source, any perturbation) must report seeded.
"""

import uuid

import pytest

from repro.net.topology import GridTopology
from repro.scenarios import (
    SOURCE_POLICIES,
    ClockSkew,
    FailureTimes,
    ScenarioSpec,
    register_family,
)

#: Small parameters for every built-in family.
BUILTIN_FAMILIES = {
    "grid": {"side": 6},
    "torus": {"side": 6},
    "grid_holes": {"side": 8, "n_holes": 1, "hole_side": 2},
    "random": {"n_nodes": 20, "density": 12.0},
    "clustered": {"n_clusters": 3, "cluster_size": 5},
}

#: No perturbation, then each perturbation alone.
PERTURBATIONS = {
    "none": {},
    "failure_fraction": {"failure_fraction": 0.2},
    "failure_times": {
        "failure_times": FailureTimes(fraction=0.2, start=1.0, end=5.0)
    },
    "clock_skew": {"clock_skew": ClockSkew(std=0.5)},
}

SEEDS = (1, 2, 3)

CSR_ARRAYS = ("indptr", "indices", "degrees", "edge_u", "edge_v")


def build(family, source, perturbation):
    return ScenarioSpec.build(
        family,
        BUILTIN_FAMILIES[family],
        source=source,
        **PERTURBATIONS[perturbation],
    )


def world(realized):
    """Everything a realization fixes, as one comparable value."""
    topology = realized.topology
    return (
        tuple(topology.position(v) for v in topology.nodes()),
        *(tuple(getattr(topology.csr, name).tolist()) for name in CSR_ARRAYS),
        realized.source,
        realized.failed_nodes,
        realized.failure_times,
        realized.clock_offsets,
    )


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@pytest.mark.parametrize("source", SOURCE_POLICIES)
@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
def test_seed_free_specs_realize_equal_worlds_at_every_seed(
    family, source, perturbation
):
    spec = build(family, source, perturbation)
    expected = (
        family in ("grid", "torus")
        and source != "random"
        and perturbation == "none"
    )
    assert spec.seed_free is expected
    assert ScenarioSpec.from_token(spec.token).seed_free is expected
    if spec.seed_free:
        worlds = {world(spec.realize(seed)) for seed in SEEDS}
        assert len(worlds) == 1


@pytest.mark.parametrize(
    "source,perturbation",
    [("random", "none")]
    + [("center", name) for name in sorted(PERTURBATIONS) if name != "none"],
)
def test_what_makes_a_grid_seeded_does_draw_from_the_seed(source, perturbation):
    """Each clause of the predicate guards a real draw: the worlds differ."""
    spec = build("grid", source, perturbation)
    assert not spec.seed_free
    assert len({world(spec.realize(seed)) for seed in SEEDS}) > 1


def test_a_family_registered_without_the_declaration_is_seeded():
    name = f"test-undeclared-{uuid.uuid4().hex}"
    family = register_family(name, lambda rng, side: GridTopology(side))
    assert not family.seed_free
    assert not ScenarioSpec.build(name, {"side": 4}).seed_free
