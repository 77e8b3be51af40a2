"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a parameter sweep without saying how to
execute it: which simulator *kind* to run (``ideal``, ``detailed`` or
``percolation``), the swept axes (cartesian product), fixed parameters
shared by every point, explicit extra points (the PSM / NO PSM baseline
corners that no product expresses), and how many independent seeds each
point gets.

Two properties make specs the unit of reproducibility and caching:

* **deterministic seeds** — every run's seed derives from the spec's base
  seed and the point's *content* (never its enumeration position), so
  results are bit-identical regardless of execution order or backend;
* **content hashing** — each run has a stable key hashing its kind, full
  parameters and seed, which the on-disk cache uses to recognise
  already-computed points across invocations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.runners.cache import CACHE_VERSION
from repro.runners.points import EVALUATORS
from repro.scenarios import ScenarioSpec
from repro.util.canonical import canonical_json
from repro.util.rng import fold_seed, fold_seed_onward

#: The simulator families the point evaluators know how to run.
KINDS = tuple(EVALUATORS)

#: Default root seed (shared with :class:`repro.experiments.scale.Scale`).
DEFAULT_BASE_SEED = 20050610

ParamValue = Any
Params = Dict[str, ParamValue]


def _normalize_param(value: ParamValue) -> ParamValue:
    """Normalise one parameter value into its hashable wire form.

    :class:`~repro.scenarios.ScenarioSpec` values collapse to their
    canonical token string, so scenario axes hash, seed-fold, pickle and
    cache exactly like any scalar axis.
    """
    if isinstance(value, ScenarioSpec):
        return value.token
    return value


def run_key(kind: str, params: Mapping[str, ParamValue], seed: int) -> str:
    """Content hash identifying one (kind, parameters, seed) run."""
    return _hash_run(
        canonical_json(kind), canonical_json(dict(params)), canonical_json(seed)
    )


def _hash_run(kind_json: str, params_json: str, seed_json: str) -> str:
    """The run key from the canonical JSON of its three parts.

    The canonical JSON of the whole payload is these parts spliced in
    sorted-key order, so a point serialized once hashes every seed.
    """
    payload = (
        f'{{"kind":{kind_json},"params":{params_json},'
        f'"seed":{seed_json},"version":{CACHE_VERSION}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignRun:
    """One executable unit of a campaign: a fully-merged point + seed."""

    kind: str
    params: Tuple[Tuple[str, ParamValue], ...]
    seed_index: int
    seed: int
    key: str

    def params_dict(self) -> Params:
        """The point's parameters as a plain dict."""
        return dict(self.params)

    def describe(self) -> str:
        """One human-readable line (progress and failure output)."""
        point = ", ".join(f"{name}={value}" for name, value in self.params)
        return f"{self.kind}[{point}] seed={self.seed}"


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep over one simulator kind.

    Build with :meth:`build`, which accepts plain mappings/sequences and
    normalises them into the hashable tuple form stored here.
    """

    kind: str
    #: Swept axes in declared order: ``((name, (v1, v2, ...)), ...)``.
    axes: Tuple[Tuple[str, Tuple[ParamValue, ...]], ...]
    #: Parameters shared by every point.
    fixed: Tuple[Tuple[str, ParamValue], ...] = ()
    #: Explicit points outside the product (each overrides ``fixed``).
    extra_points: Tuple[Tuple[Tuple[str, ParamValue], ...], ...] = ()
    #: Parameter names folded (in order) into each point's seed label.
    seed_params: Tuple[str, ...] = ()
    #: Independent seeds per point (the paper's "averaged over ten runs").
    n_seeds: int = 1
    base_seed: int = DEFAULT_BASE_SEED
    #: Append the seed index to the seed label; :meth:`build` forces this
    #: on whenever ``n_seeds > 1`` (identical seeds would be silent).
    seed_with_run_index: bool = field(default=False)

    @classmethod
    def build(
        cls,
        kind: str,
        axes: Mapping[str, Sequence[ParamValue]],
        fixed: Optional[Mapping[str, ParamValue]] = None,
        extra_points: Iterable[Mapping[str, ParamValue]] = (),
        seed_params: Sequence[str] = (),
        n_seeds: int = 1,
        base_seed: int = DEFAULT_BASE_SEED,
        seed_with_run_index: bool = False,
    ) -> "CampaignSpec":
        """Validate and normalise a spec from plain mappings."""
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if n_seeds <= 0:
            raise ValueError(f"n_seeds must be > 0, got {n_seeds}")
        # Multiple seeds are only meaningful if the index reaches the seed
        # label; otherwise every "independent run" would silently be the
        # same simulation replicated n_seeds times.
        seed_with_run_index = seed_with_run_index or n_seeds > 1
        axes_t = []
        for name, values in axes.items():
            values_t = tuple(_normalize_param(value) for value in values)
            if not values_t:
                raise ValueError(f"axis {name!r} has no values")
            axes_t.append((name, values_t))
        fixed_t = tuple(
            sorted((name, _normalize_param(value)) for name, value in (fixed or {}).items())
        )
        known = {name for name, _ in axes_t} | {name for name, _ in fixed_t}
        extras_t = []
        for extra in extra_points:
            unknown = set(extra) - known
            if unknown:
                raise ValueError(
                    f"extra point overrides unknown parameters {sorted(unknown)}"
                )
            extras_t.append(
                tuple(sorted((name, _normalize_param(value)) for name, value in extra.items()))
            )
        missing = set(seed_params) - known
        if missing:
            raise ValueError(f"seed_params reference unknown parameters {sorted(missing)}")
        return cls(
            kind=kind,
            axes=tuple(axes_t),
            fixed=fixed_t,
            extra_points=tuple(extras_t),
            seed_params=tuple(seed_params),
            n_seeds=n_seeds,
            base_seed=base_seed,
            seed_with_run_index=seed_with_run_index,
        )

    # -- point enumeration -------------------------------------------------

    def merge(self, overrides: Mapping[str, ParamValue]) -> Params:
        """Fixed parameters overlaid with ``overrides`` (a full point).

        Overrides are normalised like :meth:`build` inputs, so result
        lookups may pass :class:`~repro.scenarios.ScenarioSpec` objects
        where the stored point carries the token string.
        """
        merged: Params = dict(self.fixed)
        merged.update(
            (name, _normalize_param(value)) for name, value in overrides.items()
        )
        return merged

    def points(self) -> List[Params]:
        """Every point of the campaign: axis product, then extras.

        Points appearing more than once (an extra that coincides with a
        grid point) are deduplicated, keeping first occurrence order.
        """
        return list(self._points_by_json().values())

    def _points_by_json(self) -> Dict[str, Params]:
        """:meth:`points`, keyed by each point's canonical JSON."""
        result: Dict[str, Params] = {}
        names = [name for name, _ in self.axes]
        grid = product(*(values for _, values in self.axes))
        for override in chain((zip(names, combo) for combo in grid), self.extra_points):
            point = self.merge(dict(override))
            result.setdefault(canonical_json(point), point)
        return result

    def point_seed(self, params: Mapping[str, ParamValue], seed_index: int = 0) -> int:
        """The deterministic seed for one (point, seed-index) run.

        The label folds the kind and the values of ``seed_params`` — point
        content only, so the seed is independent of enumeration order and
        identical to what :meth:`repro.experiments.scale.Scale.seed_for`
        produces for the same labels.
        """
        seed = self._label_seed(params)
        if self.seed_with_run_index:
            seed = fold_seed_onward(seed, seed_index)
        return seed

    def _label_seed(self, params: Mapping[str, ParamValue]) -> int:
        """The fold of the point's labels, before any seed index."""
        return fold_seed(
            self.base_seed, self.kind, *(params[name] for name in self.seed_params)
        )

    def runs(self) -> List[CampaignRun]:
        """Every executable run: each point at each seed index.

        Each point is serialized and its labels folded once; each seed
        index then continues the fold and splices the serialized point
        into its run key.
        """
        result: List[CampaignRun] = []
        kind_json = canonical_json(self.kind)
        for point_json, point in self._points_by_json().items():
            params = tuple(sorted(point.items()))
            label_seed = self._label_seed(point)
            for seed_index in range(self.n_seeds):
                seed = label_seed
                if self.seed_with_run_index:
                    seed = fold_seed_onward(label_seed, seed_index)
                result.append(
                    CampaignRun(
                        kind=self.kind,
                        params=params,
                        seed_index=seed_index,
                        seed=seed,
                        key=_hash_run(kind_json, point_json, str(seed)),
                    )
                )
        return result

    # -- identity ----------------------------------------------------------

    def content_hash(self) -> str:
        """Stable hash of the spec's full content (campaign identity)."""
        payload = canonical_json(
            {
                "kind": self.kind,
                "axes": [[name, list(values)] for name, values in sorted(self.axes)],
                "fixed": dict(self.fixed),
                "extra_points": sorted(
                    canonical_json(dict(extra)) for extra in self.extra_points
                ),
                "seed_params": list(self.seed_params),
                "n_seeds": self.n_seeds,
                "base_seed": self.base_seed,
                "seed_with_run_index": self.seed_with_run_index,
                "version": CACHE_VERSION,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def n_points(self) -> int:
        """Number of distinct parameter points."""
        return len(self.points())

    @property
    def n_runs(self) -> int:
        """Total runs (points x seeds), before dedup across extras."""
        return self.n_points * self.n_seeds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = ", ".join(f"{name}[{len(values)}]" for name, values in self.axes)
        return (
            f"CampaignSpec(kind={self.kind!r}, axes=({axes}), "
            f"extras={len(self.extra_points)}, n_seeds={self.n_seeds})"
        )
