"""The scenario layer: declarative worlds for every simulator.

The paper makes all of its claims on one scenario shape — a single
broadcast from the centre of an open grid.  This package turns "which
world does the simulation run in" into data: a
:class:`~repro.scenarios.spec.ScenarioSpec` bundles a topology *family*
(with its parameters), a *source-placement policy* and *perturbations*
(:class:`~repro.scenarios.spec.Perturbations`: pre-broadcast node
failures, mid-run death schedules, per-node clock skew) into a
content-hashable value that campaign specs sweep like any other axis.

Layering: this package sits between :mod:`repro.net` (which it builds on)
and :mod:`repro.runners` (which resolves scenarios inside its point
evaluators).  It never imports simulators or the runner, so every layer
above can depend on it without cycles.

Usage::

    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec.build(
        "grid_holes", {"side": 30, "n_holes": 3, "hole_side": 5},
        source="corner", failure_fraction=0.1,
    )
    realized = spec.realize(seed=42)      # topology, source, failed nodes
    token = spec.token                    # canonical string: a campaign axis value
    assert ScenarioSpec.from_token(token) == spec

Registering a new topology family
---------------------------------
A family is a named builder ``builder(rng, **params) -> Topology`` that
draws randomness *only* from the ``random.Random`` it is given (that is
what keeps realization a pure function of ``(spec, seed)`` across
processes and backends).  Parameters must be JSON scalars so scenario
tokens stay canonical.  Register it once at import time::

    from repro.scenarios import register_family

    def build_ring(rng, n_nodes):
        positions = [...]                 # any Topology construction
        return Topology(positions, adjacency)

    register_family(
        "ring", build_ring,
        description="cycle of n_nodes unit-spaced nodes",
        defaults={"n_nodes": 64},
        seed_free=True,                   # build_ring never draws from rng
    )

From that point ``ScenarioSpec.build("ring", {"n_nodes": 128})`` is a
sweepable, cacheable campaign axis value like any built-in family, and
``pbbf-experiments scenarios`` lists it.  Names are unique; registering a
taken name raises.

Declare ``seed_free=True`` only when the builder never draws from its
``rng``, as ``build_ring`` and the built-in ``grid`` and ``torus`` do.
Specs on such a family with a non-``random`` source and no perturbations
report :attr:`~repro.scenarios.spec.ScenarioSpec.seed_free`, and the
campaign runner realizes each of those worlds once per process instead
of once per seed.  Leave the declaration off when the builder draws
anything: an undeclared family is realized per seed, which is never
wrong, only slower.
"""

from repro.scenarios.families import (
    TopologyFamily,
    available_families,
    build_topology,
    get_family,
    register_family,
)
from repro.scenarios.spec import (
    DEFAULT_SOURCE,
    SOURCE_POLICIES,
    ClockSkew,
    FailureTimes,
    Perturbations,
    RealizedScenario,
    ScenarioSpec,
)

__all__ = [
    "DEFAULT_SOURCE",
    "SOURCE_POLICIES",
    "ClockSkew",
    "FailureTimes",
    "Perturbations",
    "RealizedScenario",
    "ScenarioSpec",
    "TopologyFamily",
    "available_families",
    "build_topology",
    "get_family",
    "register_family",
]
