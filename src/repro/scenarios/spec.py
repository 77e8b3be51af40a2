"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything about the *world* a simulation
runs in — topology family and its parameters, where the broadcast source
sits, and which perturbations apply (pre-broadcast node failures,
mid-run death schedules, per-node clock skew; see :class:`Perturbations`)
— without building any of it.  Two properties make specs campaign axes:

* **content-hashable** — a spec serializes to a canonical JSON *token*
  (:attr:`ScenarioSpec.token`), a plain string that survives campaign
  parameter dicts, ``lru_cache`` keys, process-pool pickling, and the
  on-disk cache's content hashes unchanged, and round-trips through
  :meth:`ScenarioSpec.from_token`;
* **seed-realizable** — :meth:`ScenarioSpec.realize` builds the concrete
  topology/source/failure-set from named RNG streams derived from the
  run's seed (:class:`repro.util.rng.RandomStreams`), so realization is a
  pure function of ``(spec, seed)`` in any process, and two specs
  realized at the same seed share placement randomness (common random
  numbers for paired comparisons).  A :attr:`~ScenarioSpec.seed_free`
  spec draws nothing at all, so it realizes to the same world at every
  seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.net.topology import Topology
from repro.scenarios.families import build_topology, get_family
from repro.util.canonical import canonical_json
from repro.util.rng import RandomStreams, fold_seed

#: How the broadcast source is placed on the realized topology.
SOURCE_POLICIES = ("center", "corner", "random", "max_degree")

#: Default grid-scenario source (the paper's centre broadcast).
DEFAULT_SOURCE = "center"


def _check_param_value(name: str, value: Any) -> None:
    """Scenario parameters must be JSON scalars so tokens are canonical."""
    if isinstance(value, bool) or value is None:
        return
    if isinstance(value, (int, float, str)):
        return
    raise ValueError(
        f"scenario parameter {name!r} must be a JSON scalar "
        f"(int/float/str/bool/None), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class FailureTimes:
    """A mid-run death schedule: who dies *during* the broadcast run.

    Unlike the pre-broadcast ``failure_fraction`` (nodes dead before the
    first packet), this schedules deaths while traffic is flowing — the
    regime fault-tolerant broadcast work treats as the interesting one.
    ``fraction`` of the nodes (source excluded) each draw one death time
    from ``distribution`` over the ``[start, end]`` window (simulated
    seconds); realization draws from a dedicated named RNG stream so the
    schedule never perturbs placement or source draws.
    """

    #: Fraction of nodes (excluding the source) that die mid-run.
    fraction: float
    #: Window start, in simulated seconds.
    start: float
    #: Window end, in simulated seconds.
    end: float
    #: Death-time distribution over the window (``uniform`` only, so far).
    distribution: str = "uniform"

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(
                f"failure_times.fraction must be in (0, 1), got {self.fraction}"
            )
        # A NaN or infinite bound would put non-standard JSON in the token.
        finite = math.isfinite(self.start) and math.isfinite(self.end)
        if not finite or self.start < 0.0 or self.end < self.start:
            raise ValueError(
                f"failure_times window must be finite with 0 <= start <= end, "
                f"got [{self.start}, {self.end}]"
            )
        if self.distribution != "uniform":
            raise ValueError(
                f"failure_times.distribution must be 'uniform', "
                f"got {self.distribution!r}"
            )

    def to_payload(self) -> Dict[str, Any]:
        """The canonical-token form (defaults omitted for stability)."""
        payload: Dict[str, Any] = {
            "fraction": self.fraction,
            "start": self.start,
            "end": self.end,
        }
        if self.distribution != "uniform":
            payload["distribution"] = self.distribution
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FailureTimes":
        """Parse (and re-validate) from the token form."""
        return cls(
            fraction=float(payload["fraction"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            distribution=str(payload.get("distribution", "uniform")),
        )


@dataclass(frozen=True)
class ClockSkew:
    """Per-node sleep-schedule offsets: imperfect synchronisation.

    The paper assumes every node agrees on the beacon epoch; real
    deployments drift.  Each node draws one phase offset (seconds late
    relative to the network epoch) from a half-normal with standard
    deviation ``std``.  This is the detailed simulator's only source of
    clock skew, a scenario property so it sweeps, seeds and caches like
    any other axis.
    """

    #: Standard deviation of the half-normal offset draw (seconds).
    std: float
    #: Offset distribution (``half_normal`` only, so far).
    distribution: str = "half_normal"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.std) and self.std > 0.0):
            raise ValueError(f"clock_skew.std must be finite and > 0, got {self.std}")
        if self.distribution != "half_normal":
            raise ValueError(
                f"clock_skew.distribution must be 'half_normal', "
                f"got {self.distribution!r}"
            )

    def to_payload(self) -> Dict[str, Any]:
        """The canonical-token form (defaults omitted for stability)."""
        payload: Dict[str, Any] = {"std": self.std}
        if self.distribution != "half_normal":
            payload["distribution"] = self.distribution
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ClockSkew":
        """Parse (and re-validate) from the token form."""
        return cls(
            std=float(payload["std"]),
            distribution=str(payload.get("distribution", "half_normal")),
        )


@dataclass(frozen=True)
class Perturbations:
    """Everything that makes a realized world deviate from nominal.

    Bundles the three perturbation axes a :class:`ScenarioSpec` carries:
    pre-broadcast failures (``failure_fraction``), mid-run death
    schedules (:class:`FailureTimes`) and sleep-schedule clock skew
    (:class:`ClockSkew`).  Pass one to :meth:`ScenarioSpec.build` via the
    ``perturbations`` keyword, or set the flat fields individually — the
    spec stores (and hashes) the same content either way.
    """

    #: Fraction of non-source nodes failed before the first broadcast.
    failure_fraction: float = 0.0
    #: Optional mid-run death schedule.
    failure_times: Optional[FailureTimes] = None
    #: Optional per-node clock-skew model.
    clock_skew: Optional[ClockSkew] = None

    def __bool__(self) -> bool:
        """True when any perturbation is active."""
        return bool(
            self.failure_fraction
            or self.failure_times is not None
            or self.clock_skew is not None
        )


@dataclass(frozen=True)
class RealizedScenario:
    """A spec made concrete at one seed: the world a simulator runs in."""

    spec: "ScenarioSpec"
    topology: Topology
    #: Broadcast source node id (never a failed node).
    source: int
    #: Nodes dead before the first broadcast, ascending.
    failed_nodes: Tuple[int, ...]
    #: Mid-run deaths as ``(node, time)`` pairs, ascending by node id;
    #: disjoint from ``failed_nodes`` and never the source.
    failure_times: Tuple[Tuple[int, float], ...] = ()
    #: Per-node sleep-schedule offsets (seconds late), one per node;
    #: empty when the spec carries no clock skew.
    clock_offsets: Tuple[float, ...] = ()

    @property
    def n_failed(self) -> int:
        """Number of pre-failed nodes."""
        return len(self.failed_nodes)

    @property
    def n_midrun_failures(self) -> int:
        """Number of scheduled mid-run deaths."""
        return len(self.failure_times)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, content-hashable description of one scenario shape.

    Build with :meth:`build`, which validates against the family registry
    and normalises parameters into the sorted tuple form stored here.
    """

    #: Registered topology family name (see :mod:`repro.scenarios.families`).
    family: str
    #: Family parameters as sorted ``(name, value)`` pairs.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Source placement policy (one of :data:`SOURCE_POLICIES`).
    source: str = DEFAULT_SOURCE
    #: Fraction of non-source nodes failed before the first broadcast.
    failure_fraction: float = 0.0
    #: Optional mid-run death schedule (time-varying perturbation).
    failure_times: Optional[FailureTimes] = None
    #: Optional per-node sleep-schedule skew (time-varying perturbation).
    clock_skew: Optional[ClockSkew] = None

    @classmethod
    def build(
        cls,
        family: str,
        params: Optional[Mapping[str, Any]] = None,
        source: str = DEFAULT_SOURCE,
        failure_fraction: float = 0.0,
        failure_times: Optional[FailureTimes] = None,
        clock_skew: Optional[ClockSkew] = None,
        perturbations: Optional[Perturbations] = None,
    ) -> "ScenarioSpec":
        """Validate and normalise a spec from plain mappings.

        Perturbations may be given flat (``failure_fraction`` /
        ``failure_times`` / ``clock_skew``) *or* bundled as a
        :class:`Perturbations` — the two forms are mutually exclusive, so
        a bundle can never silently overwrite an explicit flat argument.
        """
        get_family(family)  # raises KeyError for unknown families
        if source not in SOURCE_POLICIES:
            raise ValueError(
                f"source must be one of {SOURCE_POLICIES}, got {source!r}"
            )
        if perturbations is not None:
            if failure_fraction or failure_times is not None or clock_skew is not None:
                raise ValueError(
                    "pass perturbations either flat (failure_fraction / "
                    "failure_times / clock_skew) or as a Perturbations "
                    "bundle, not both"
                )
            failure_fraction = perturbations.failure_fraction
            failure_times = perturbations.failure_times
            clock_skew = perturbations.clock_skew
        if not 0.0 <= failure_fraction < 1.0:
            raise ValueError(
                f"failure_fraction must be in [0, 1), got {failure_fraction}"
            )
        if failure_times is not None and not isinstance(failure_times, FailureTimes):
            raise TypeError(
                f"failure_times must be a FailureTimes, "
                f"got {type(failure_times).__name__}"
            )
        if clock_skew is not None and not isinstance(clock_skew, ClockSkew):
            raise TypeError(
                f"clock_skew must be a ClockSkew, got {type(clock_skew).__name__}"
            )
        items = sorted((params or {}).items())
        for name, value in items:
            _check_param_value(name, value)
        return cls(
            family=family,
            params=tuple(items),
            source=source,
            failure_fraction=float(failure_fraction),
            failure_times=failure_times,
            clock_skew=clock_skew,
        )

    @classmethod
    def grid_default(cls, grid_side: int) -> "ScenarioSpec":
        """The paper's baseline scenario: open grid, centre source."""
        return cls.build("grid", {"side": grid_side})

    def params_dict(self) -> Dict[str, Any]:
        """The family parameters as a plain dict."""
        return dict(self.params)

    @property
    def perturbations(self) -> Perturbations:
        """The spec's perturbations bundled as one value."""
        return Perturbations(
            failure_fraction=self.failure_fraction,
            failure_times=self.failure_times,
            clock_skew=self.clock_skew,
        )

    # -- identity ----------------------------------------------------------

    @property
    def token(self) -> str:
        """Canonical string form: the value campaign axes carry.

        Defaults (``center`` source, zero failures, no death schedule, no
        skew) are omitted, so adding knobs later never re-keys existing
        scenarios — the same stability contract the run cache relies on.
        """
        payload: Dict[str, Any] = {
            "family": self.family,
            "params": self.params_dict(),
        }
        if self.source != DEFAULT_SOURCE:
            payload["source"] = self.source
        if self.failure_fraction:
            payload["failure_fraction"] = self.failure_fraction
        if self.failure_times is not None:
            payload["failure_times"] = self.failure_times.to_payload()
        if self.clock_skew is not None:
            payload["clock_skew"] = self.clock_skew.to_payload()
        return canonical_json(payload)

    @classmethod
    def from_token(cls, token: str) -> "ScenarioSpec":
        """Parse (and re-validate) a spec from its :attr:`token` form."""
        try:
            payload = json.loads(token)
        except ValueError as exc:
            raise ValueError(f"malformed scenario token {token!r}: {exc}") from None
        if not isinstance(payload, dict) or "family" not in payload:
            raise ValueError(f"malformed scenario token {token!r}")
        failure_times = payload.get("failure_times")
        clock_skew = payload.get("clock_skew")
        return cls.build(
            family=payload["family"],
            params=payload.get("params") or {},
            source=payload.get("source", DEFAULT_SOURCE),
            failure_fraction=payload.get("failure_fraction", 0.0),
            failure_times=(
                FailureTimes.from_payload(failure_times)
                if failure_times is not None
                else None
            ),
            clock_skew=(
                ClockSkew.from_payload(clock_skew)
                if clock_skew is not None
                else None
            ),
        )

    def content_hash(self) -> str:
        """Stable sha256 of the canonical token (scenario identity)."""
        return hashlib.sha256(self.token.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One human line for listings and figure notes."""
        params = ", ".join(f"{k}={v!r}" for k, v in self.params)
        bits = [f"{self.family}({params})", f"source={self.source}"]
        if self.failure_fraction:
            bits.append(f"failures={self.failure_fraction:g}")
        if self.failure_times is not None:
            ft = self.failure_times
            bits.append(
                f"midrun_failures={ft.fraction:g}@[{ft.start:g},{ft.end:g}]s"
            )
        if self.clock_skew is not None:
            bits.append(f"skew={self.clock_skew.std:g}s")
        return " ".join(bits)

    # -- realization -------------------------------------------------------

    @property
    def seed_free(self) -> bool:
        """Whether :meth:`realize` builds the same world at every seed.

        True when the family declares ``seed_free`` (its builder never
        draws from its rng), the source policy draws nothing (anything but
        ``random``) and no perturbation applies.  The runner then realizes
        the world once per process and shares it across seeds.
        """
        return (
            get_family(self.family).seed_free
            and self.source != "random"
            and not self.perturbations
        )

    def realize(self, seed: int) -> RealizedScenario:
        """Build the concrete world for one run.

        Randomness comes from named streams rooted at
        ``fold_seed(seed, "scenario")`` — placement, source choice,
        failure sampling, death scheduling and skew draws are independent
        streams, so e.g. adding a death schedule never perturbs node
        placement at the same seed (common random numbers for paired
        nominal-vs-perturbed comparisons).
        """
        streams = RandomStreams(fold_seed(seed, "scenario"))
        topology = build_topology(
            self.family, self.params_dict(), streams.stream("topology")
        )
        source = self._place_source(topology, streams)
        failed = self._sample_failures(topology, source, streams)
        failure_times = self._sample_failure_times(
            topology, source, failed, streams
        )
        clock_offsets = self._sample_clock_offsets(topology, streams)
        return RealizedScenario(
            spec=self,
            topology=topology,
            source=source,
            failed_nodes=failed,
            failure_times=failure_times,
            clock_offsets=clock_offsets,
        )

    def _place_source(self, topology: Topology, streams: RandomStreams) -> int:
        if topology.n_nodes == 0:
            raise ValueError("cannot place a source on an empty topology")
        if self.source == "center":
            center = getattr(topology, "center_node", None)
            if callable(center):
                return center()
            xs = [topology.position(v)[0] for v in topology.nodes()]
            ys = [topology.position(v)[1] for v in topology.nodes()]
            cx = sum(xs) / len(xs)
            cy = sum(ys) / len(ys)
            return min(
                topology.nodes(),
                key=lambda v: (
                    (xs[v] - cx) ** 2 + (ys[v] - cy) ** 2,
                    v,
                ),
            )
        if self.source == "corner":
            return min(
                topology.nodes(),
                key=lambda v: (sum(topology.position(v)), v),
            )
        if self.source == "max_degree":
            return int(topology.csr.degrees.argmax())
        # "random": one draw from the dedicated stream.
        return streams.stream("source").randrange(topology.n_nodes)

    def _sample_failures(
        self, topology: Topology, source: int, streams: RandomStreams
    ) -> Tuple[int, ...]:
        if not self.failure_fraction:
            return ()
        n = topology.n_nodes
        k = min(int(round(self.failure_fraction * n)), n - 1)
        if k <= 0:
            return ()
        candidates = [v for v in topology.nodes() if v != source]
        return tuple(sorted(streams.stream("failures").sample(candidates, k)))

    def _sample_failure_times(
        self,
        topology: Topology,
        source: int,
        pre_failed: Tuple[int, ...],
        streams: RandomStreams,
    ) -> Tuple[Tuple[int, float], ...]:
        """Draw the mid-run death schedule from its dedicated stream.

        Victims are sampled from the nodes still alive after the
        pre-broadcast failures (source excluded), then sorted by id
        *before* the per-victim time draws — so the (node, time) mapping
        depends only on the sampled set, never on sampling order.
        """
        ft = self.failure_times
        if ft is None:
            return ()
        excluded = {source} | set(pre_failed)
        candidates = [v for v in topology.nodes() if v not in excluded]
        k = min(int(round(ft.fraction * topology.n_nodes)), len(candidates))
        if k <= 0:
            return ()
        rng = streams.stream("failure_times")
        victims = sorted(rng.sample(candidates, k))
        return tuple(
            (victim, rng.uniform(ft.start, ft.end)) for victim in victims
        )

    def _sample_clock_offsets(
        self, topology: Topology, streams: RandomStreams
    ) -> Tuple[float, ...]:
        """Draw one half-normal schedule offset per node (all nodes)."""
        cs = self.clock_skew
        if cs is None:
            return ()
        rng = streams.stream("clock_skew")
        return tuple(
            abs(rng.gauss(0.0, cs.std)) for _ in range(topology.n_nodes)
        )
