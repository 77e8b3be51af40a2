"""The topology-family registry: named factories behind every scenario.

A *family* is a named recipe for building a :class:`~repro.net.topology.Topology`
from JSON-scalar parameters and a seeded ``random.Random``.  Scenario specs
(:mod:`repro.scenarios.spec`) reference families by name, so sweeping a
campaign across deployment shapes is sweeping strings — no plumbing.

Built-in families
-----------------
``grid``
    The paper's open square lattice (:class:`GridTopology`).
``torus``
    Wrap-around lattice with no boundary effects (:class:`TorusGridTopology`).
``grid_holes``
    Grid with seed-placed rectangular failed regions carved out
    (:class:`GridWithHolesTopology`).
``random``
    Uniform unit-disk deployment at a target density, optionally resampled
    until connected (:class:`RandomTopology`).
``clustered``
    Gaussian clusters with sparse inter-cluster bridges
    (:class:`ClusteredRandomTopology`).

See :mod:`repro.scenarios` for how to register a new family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.net.topology import (
    ClusteredRandomTopology,
    GridTopology,
    GridWithHolesTopology,
    RandomTopology,
    Topology,
    TorusGridTopology,
)

#: ``builder(rng, **params) -> Topology``.  Deterministic families simply
#: ignore ``rng``; randomized ones must draw *only* from it.
FamilyBuilder = Callable[..., Topology]


@dataclass(frozen=True)
class TopologyFamily:
    """One registered topology recipe."""

    name: str
    builder: FamilyBuilder = field(repr=False)
    #: One line for the CLI's ``scenarios`` listing.
    description: str
    #: Default parameters merged under the spec's own (shown in listings).
    defaults: Tuple[Tuple[str, Any], ...] = ()
    #: Whether the builder never draws from its ``rng``, so every seed
    #: builds the same topology (see :attr:`ScenarioSpec.seed_free`).
    seed_free: bool = False

    def build(self, params: Mapping[str, Any], rng: random.Random) -> Topology:
        """Build the topology from ``defaults`` overlaid with ``params``."""
        merged: Dict[str, Any] = dict(self.defaults)
        merged.update(params)
        try:
            return self.builder(rng, **merged)
        except TypeError as exc:
            raise ValueError(
                f"invalid parameters for topology family {self.name!r}: {exc}"
            ) from exc


_FAMILIES: Dict[str, TopologyFamily] = {}


def register_family(
    name: str,
    builder: FamilyBuilder,
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
    seed_free: bool = False,
) -> TopologyFamily:
    """Register ``builder`` under ``name``; returns the registry entry.

    Names are unique: re-registering an existing name raises so two
    extensions cannot silently shadow each other's deployments.  Pass
    ``seed_free=True`` only when ``builder`` never draws from its rng.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"family name must be a non-empty string, got {name!r}")
    if name in _FAMILIES:
        raise ValueError(f"topology family {name!r} is already registered")
    family = TopologyFamily(
        name=name,
        builder=builder,
        description=description,
        defaults=tuple(sorted((defaults or {}).items())),
        seed_free=seed_free,
    )
    _FAMILIES[name] = family
    return family


def get_family(name: str) -> TopologyFamily:
    """Look up a registered family by name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown topology family {name!r}; "
            f"registered: {', '.join(sorted(_FAMILIES))}"
        ) from None


def available_families() -> List[TopologyFamily]:
    """Every registered family, sorted by name (CLI listing order)."""
    return [_FAMILIES[name] for name in sorted(_FAMILIES)]


def build_topology(
    name: str, params: Mapping[str, Any], rng: random.Random
) -> Topology:
    """Build family ``name`` with ``params`` drawing only from ``rng``."""
    return get_family(name).build(params, rng)


# -- built-in families -----------------------------------------------------


def _build_grid(
    rng: random.Random, side: int, cols: Optional[int] = None
) -> Topology:
    return GridTopology(side, cols)


def _build_torus(
    rng: random.Random, side: int, cols: Optional[int] = None
) -> Topology:
    return TorusGridTopology(side, cols)


def _build_grid_holes(
    rng: random.Random,
    side: int,
    n_holes: int = 2,
    hole_side: Optional[int] = None,
) -> Topology:
    """Grid with ``n_holes`` square failed regions at rng-drawn positions."""
    if hole_side is None:
        hole_side = max(1, side // 5)
    if hole_side >= side:
        raise ValueError(
            f"hole_side ({hole_side}) must be smaller than side ({side})"
        )
    holes = tuple(
        (
            rng.randrange(side - hole_side + 1),
            rng.randrange(side - hole_side + 1),
            hole_side,
            hole_side,
        )
        for _ in range(n_holes)
    )
    return GridWithHolesTopology(side, holes=holes)


def _build_random(
    rng: random.Random,
    n_nodes: int = 50,
    radio_range: float = 10.0,
    density: float = 10.0,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> Topology:
    if require_connected:
        return RandomTopology.connected(
            n_nodes, radio_range, density, rng, max_attempts=max_attempts
        )
    return RandomTopology(n_nodes, radio_range, density, rng)


def _build_clustered(
    rng: random.Random,
    n_clusters: int = 4,
    cluster_size: int = 12,
    radio_range: float = 10.0,
    spread: float = 5.0,
    extent: float = 40.0,
) -> Topology:
    return ClusteredRandomTopology(
        n_clusters, cluster_size, radio_range, spread, extent, rng
    )


register_family(
    "grid",
    _build_grid,
    "open square lattice, 4-neighbour connectivity (the paper's Section 4)",
    seed_free=True,
)
register_family(
    "torus",
    _build_torus,
    "wrap-around lattice: every node degree 4, no boundary effects",
    seed_free=True,
)
register_family(
    "grid_holes",
    _build_grid_holes,
    "grid with rng-placed square failed regions carved out",
    defaults={"n_holes": 2},
)
register_family(
    "random",
    _build_random,
    "uniform unit-disk deployment at a target density (Eq. 13)",
    defaults={"n_nodes": 50, "radio_range": 10.0, "density": 10.0},
)
register_family(
    "clustered",
    _build_clustered,
    "Gaussian clusters on a ring with sparse inter-cluster bridges",
    defaults={
        "n_clusters": 4,
        "cluster_size": 12,
        "radio_range": 10.0,
        "spread": 5.0,
        "extent": 40.0,
    },
)
