"""Objectives, constraints and operating points over campaign results.

The trade-off layer interprets a finished campaign as a set of *operating
points* in objective space: each campaign point contributes one vector of
objective values (energy per update, per-hop latency, battery-days, ...)
averaged over its seeds, with a deterministic bootstrap confidence
interval per objective.  Everything downstream — Pareto pruning
(:mod:`repro.analysis.pareto`), knee selection
(:mod:`repro.analysis.selectors`), cross-family comparison
(:mod:`repro.analysis.compare`) — consumes these points, so the
extraction here is the single place where metrics bundles are turned
into numbers.

Determinism: objective means are plain means over the campaign's
bit-identical per-seed metrics, and bootstrap resampling draws from a
:func:`repro.util.rng.fold_seed` stream labelled by the point's canonical
parameter token — a pure function of (spec, point, objective), identical
in any process and for any backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.bootstrap import bootstrap_ci95
from repro.util.canonical import canonical_json
from repro.util.rng import fold_seed, fold_seed_onward

#: Extracts one scalar (or ``None`` where undefined) from a metrics bundle.
MetricFn = Callable[[Any], Optional[float]]

#: Objective orientations.
SENSES = ("min", "max")


@dataclass(frozen=True)
class Objective:
    """One axis of the trade-off: a named, oriented metric.

    ``sense`` declares the *better* direction: ``"min"`` for costs
    (energy, latency), ``"max"`` for benefits (coverage, battery-days).
    Dominance checks normalise through :meth:`oriented`, so mixed-sense
    objective pairs compare correctly.
    """

    name: str
    label: str
    metric: MetricFn
    sense: str = "min"

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}, got {self.sense!r}")

    def oriented(self, value: float) -> float:
        """``value`` mapped so that smaller is always better."""
        return value if self.sense == "min" else -value


@dataclass(frozen=True)
class Constraint:
    """An epsilon-constraint on a point's mean metric (e.g. reliability).

    Points failing the constraint are excluded from the frontier
    entirely — the paper's "at 99% reliability" qualifier expressed as a
    filter rather than an objective.
    """

    name: str
    metric: MetricFn
    bound: float
    #: ``"ge"``: mean must be >= bound; ``"le"``: mean must be <= bound.
    sense: str = "ge"

    def __post_init__(self) -> None:
        if self.sense not in ("ge", "le"):
            raise ValueError(f"sense must be 'ge' or 'le', got {self.sense!r}")

    def satisfied(self, value: Optional[float]) -> bool:
        """Whether a point's mean metric value passes the constraint."""
        if value is None:
            return False
        return value >= self.bound if self.sense == "ge" else value <= self.bound


@dataclass(frozen=True)
class OperatingPoint:
    """One campaign point in objective space.

    ``values`` are seed-averaged objective values in objective order;
    ``ci95`` the matching bootstrap half-widths; ``samples`` the raw
    per-seed values each mean came from (what the bootstrap resampled).
    """

    params: Tuple[Tuple[str, Any], ...]
    label: str
    values: Tuple[float, ...]
    ci95: Tuple[float, ...]
    samples: Tuple[Tuple[float, ...], ...]

    @property
    def token(self) -> str:
        """Canonical JSON of the parameters: the deterministic tie-breaker."""
        return canonical_json(dict(self.params))

    def params_dict(self) -> Dict[str, Any]:
        """The point's campaign parameters as a plain dict."""
        return dict(self.params)

    def value(self, index: int) -> float:
        """The mean value of objective ``index``."""
        return self.values[index]


def _default_label(params: Mapping[str, Any]) -> str:
    """``p=0.5 q=0.25``-style label from the point's swept parameters."""
    interesting = {
        name: value
        for name, value in params.items()
        if name in ("p", "q") or isinstance(value, (int, float))
    }
    if "p" in params and "q" in params:
        return f"p={params['p']:g} q={params['q']:g}"
    return " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))


def operating_points(
    campaign: Any,
    objectives: Sequence[Objective],
    constraints: Sequence[Constraint] = (),
    where: Optional[Callable[[Mapping[str, Any]], bool]] = None,
    label: Optional[Callable[[Mapping[str, Any]], str]] = None,
    n_resamples: int = 200,
) -> List[OperatingPoint]:
    """Extract the campaign's points into objective space.

    Parameters
    ----------
    campaign:
        A :class:`~repro.runners.campaign.CampaignResult`.
    objectives:
        The objective axes, in output order.
    constraints:
        Epsilon-constraints evaluated on each point's seed-mean metric;
        failing points are dropped (with their whole objective vector).
    where:
        Optional parameter filter (e.g. one scenario family of a
        multi-family campaign).
    label:
        Optional display-label builder from the point's parameters.
    n_resamples:
        Bootstrap resamples per (point, objective) for the ``ci95``
        half-widths; resampling is deterministic per point content.

    Points where any objective is undefined for every seed are skipped,
    mirroring :meth:`CampaignResult.mean_metric`'s None-propagation.
    """
    if not objectives:
        raise ValueError("operating_points() needs at least one objective")
    spec = campaign.spec
    result: List[OperatingPoint] = []
    for params in spec.points():
        if where is not None and not where(params):
            continue
        bundles = campaign.metrics_over_seeds(**params)
        satisfied = True
        for constraint in constraints:
            values = [
                v for v in (constraint.metric(b) for b in bundles) if v is not None
            ]
            mean = sum(values) / len(values) if values else None
            if not constraint.satisfied(mean):
                satisfied = False
                break
        if not satisfied:
            continue
        # The point's label prefix, folded once: each objective's stream
        # continues it with the objective's name.
        prefix = fold_seed(spec.base_seed, "bootstrap", canonical_json(params))
        values_t: List[float] = []
        ci_t: List[float] = []
        samples_t: List[Tuple[float, ...]] = []
        defined = True
        for objective in objectives:
            samples = tuple(
                v for v in (objective.metric(b) for b in bundles) if v is not None
            )
            if not samples:
                defined = False
                break
            values_t.append(sum(samples) / len(samples))
            ci_t.append(
                bootstrap_ci95(
                    samples,
                    fold_seed_onward(prefix, objective.name),
                    n_resamples=n_resamples,
                )
            )
            samples_t.append(samples)
        if not defined:
            continue
        result.append(
            OperatingPoint(
                params=tuple(sorted(params.items())),
                label=label(params) if label is not None else _default_label(params),
                values=tuple(values_t),
                ci95=tuple(ci_t),
                samples=tuple(samples_t),
            )
        )
    return result
