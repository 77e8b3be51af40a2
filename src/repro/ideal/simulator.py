"""Earliest-arrival broadcast propagation on an ideal MAC/PHY.

Model (Section 4's "ideal MAC and physical layer with no collisions or
interference"):

* Time is divided into frames of ``Tframe`` seconds.  The first
  ``Tactive`` seconds of each frame are the ATIM window, during which
  **every** node is awake.  Outside the window a node is asleep unless its
  per-frame q-coin came up heads.
* An update is generated at the source inside an ATIM window, announced
  there, and transmitted right after the window (a *normal* broadcast):
  every neighbour receives it, ``L1`` channel-access seconds after the
  window closes.
* A node receiving a broadcast for the first time flips its p-coin
  (Figure 3): with probability p it forwards *immediately* — ``L1`` later,
  heard only by neighbours awake at that instant — otherwise it queues the
  packet, announces it in the next ATIM window, and transmits it ``L1``
  after that window closes, heard by every neighbour.
* Data packets are never sent inside an ATIM window (the 802.11 PSM rule
  the paper notes in Section 3); an immediate forward that would land in a
  window is deferred to the window's end.
* Duplicates are dropped and never re-forwarded, so each broadcast builds
  a spanning tree of first-arrival links.

Coin flips are *indexed* (hash-based on ``(node, frame)`` and
``(node, broadcast)``): the answer never depends on event processing
order, and overlapping broadcasts see consistent awake schedules.

The simulator is deliberately not built on :mod:`repro.sim` — propagation
on an ideal PHY is a deterministic earliest-arrival relaxation, so a
priority queue over arrival times is both simpler and an order of magnitude
faster than a full event-driven MAC, which matters at the paper's 5625-node
scale.  The detailed simulator (:mod:`repro.detailed`) is the event-driven
counterpart.

``run_campaign``/``run_broadcast`` always run the lockstep array kernel,
and :func:`run_campaigns` runs the campaigns of several simulators on one
topology through a single call of it;
``run_campaign_reference``/``run_broadcast_reference`` run the scalar heap
loop, its bit-identical oracle, called by name and never by an option.
"""

from __future__ import annotations

import enum
import heapq
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.net.topology import Topology, bucket_by_distance
from repro.util.rng import (
    hash_finish_array,
    hash_prefix_array,
    hash_to_unit_interval,
)
from repro.util.validation import check_non_negative_int, check_probability


class SchedulingMode(enum.Enum):
    """Which radio schedule the network runs."""

    #: PSM frames with PBBF's p/q coins (plain PSM is the p=q=0 corner).
    PSM_PBBF = "psm_pbbf"
    #: Radios always listening, no frames at all (the paper's "NO PSM").
    ALWAYS_ON = "always_on"


@dataclass(frozen=True)
class BroadcastOutcome:
    """Per-broadcast propagation record.

    ``receive_times[v]`` / ``hops[v]`` are ``None`` for nodes the broadcast
    never reached.  The source has ``receive_times[source] == t_generated``
    and ``hops[source] == 0``.
    """

    index: int
    source: int
    t_generated: float
    receive_times: Tuple[Optional[float], ...]
    hops: Tuple[Optional[int], ...]
    n_transmissions: int
    n_immediate_forwards: int
    n_normal_forwards: int
    #: ``parents[v]`` is the node whose transmission delivered v's first
    #: copy (None for the source and for unreached nodes).  First-arrival
    #: links form the spanning tree the paper's Eq. 11 analysis is about.
    parents: Tuple[Optional[int], ...] = ()

    @property
    def n_nodes(self) -> int:
        """Network size."""
        return len(self.receive_times)

    @property
    def n_received(self) -> int:
        """Number of nodes (source included) that got the broadcast."""
        return sum(1 for t in self.receive_times if t is not None)

    @property
    def coverage(self) -> float:
        """Fraction of nodes that received the broadcast."""
        return self.n_received / self.n_nodes

    def reached_fraction(self, fraction: float) -> bool:
        """Did the broadcast reach at least ``fraction`` of the nodes?"""
        check_probability("fraction", fraction)
        return self.n_received >= fraction * self.n_nodes

    def latency(self, node: int) -> Optional[float]:
        """Generation-to-reception delay at ``node`` (None if missed)."""
        t = self.receive_times[node]
        return None if t is None else t - self.t_generated

    def tree_edges(self) -> List[Tuple[int, int]]:
        """The (parent, child) first-arrival links of this broadcast."""
        return [
            (parent, child)
            for child, parent in enumerate(self.parents)
            if parent is not None
        ]

    def per_hop_latencies(self) -> List[float]:
        """Latency-per-hop for every reached non-source node."""
        result: List[float] = []
        for node, (t, h) in enumerate(zip(self.receive_times, self.hops)):
            if node == self.source or t is None or not h:
                continue
            result.append((t - self.t_generated) / h)
        return result


def _outcome(
    source: int, index: int, t_generated: float, receive_times: np.ndarray,
    hops: np.ndarray, parents: np.ndarray, counters: Sequence[int],
) -> BroadcastOutcome:
    """One broadcast's record from its row of the kernel arrays."""

    def column(values: np.ndarray, present: np.ndarray) -> tuple:
        cells = values.astype(object)  # Python floats / ints, exactly
        cells[~present] = None
        return tuple(cells.tolist())

    reached = hops >= 0
    n_transmissions, n_immediate, n_normal = counters
    return BroadcastOutcome(
        index=index,
        source=source,
        t_generated=t_generated,
        receive_times=column(receive_times, reached),
        hops=column(hops, reached),
        n_transmissions=n_transmissions,
        n_immediate_forwards=n_immediate,
        n_normal_forwards=n_normal,
        parents=column(parents, parents >= 0),
    )


def _stack_outcomes(outcomes: Sequence[BroadcastOutcome]) -> Tuple[np.ndarray, ...]:
    """The scalar loop's records as kernel arrays (unreached -> -1)."""

    def matrix(column: str, missing: float) -> np.ndarray:
        return np.array([
            [missing if v is None else v for v in getattr(o, column)] for o in outcomes
        ])

    counters = [
        (o.n_transmissions, o.n_immediate_forwards, o.n_normal_forwards) for o in outcomes
    ]
    return (
        np.array([o.t_generated for o in outcomes]), matrix("receive_times", 0.0),
        matrix("hops", -1), matrix("parents", -1), np.array(counters),
    )


def _sum_left_to_right(values: np.ndarray) -> float:
    """The builtin ``sum`` of ``values.tolist()`` before CPython 3.12.

    That ``sum`` is a plain running sum from ``0 + values[0]``, and
    ``np.add.accumulate`` adds strictly left to right as well.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf and nan, as in C
        return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _sum_boxed(values: np.ndarray) -> float:
    """The builtin ``sum`` of ``values.tolist()`` itself.

    From CPython 3.12 on that ``sum`` compensates its rounding, which no
    plain prefix sum reproduces.
    """
    return sum(values.tolist())


#: ``sum(values.tolist())`` for a float64 array, bit for bit on the running
#: interpreter; before CPython 3.12 without boxing every value.
_builtin_sum = _sum_left_to_right if sys.version_info < (3, 12) else _sum_boxed


def _mean(values: np.ndarray) -> Optional[float]:
    """``sum(values.tolist()) / len(values)``, or ``None`` when empty."""
    return _builtin_sum(values) / len(values) if values.size else None


@dataclass(eq=False)
class CampaignResult:
    """Aggregated outcomes of a multi-broadcast run (one parameter point).

    Keeps the kernel's arrays, one row per broadcast, and computes every
    metric from them; the per-broadcast :class:`BroadcastOutcome` records
    are built only when :attr:`outcomes` is read.  Float means equal the
    builtin ``sum`` over their values in row-major order (broadcast outer,
    node inner), the order of a loop over the outcomes, so they are
    bit-identical to that loop on every Python version.
    """

    params: PBBFParams
    mode: SchedulingMode
    config: AnalysisParameters
    source: int
    shortest_hops: List[Optional[int]]
    total_joules: float
    duration: float
    #: Generation time of each broadcast, shape ``(broadcasts,)``.
    t_generated: np.ndarray
    #: First-copy arrival time, hop count and first-arrival parent per
    #: ``(broadcast, node)``.  Hop -1 marks a node the broadcast never
    #: reached (its time and parent mean nothing); the source's parent is -1.
    receive_times: np.ndarray
    hops: np.ndarray
    parents: np.ndarray
    #: Per broadcast: (transmissions, immediate forwards, normal forwards).
    counters: np.ndarray
    _outcomes: Optional[List[BroadcastOutcome]] = field(default=None, repr=False)
    #: Lazy dist -> node-id buckets backing :meth:`nodes_at_distance`.
    _distance_buckets: Optional[Dict[int, List[int]]] = field(
        default=None, repr=False
    )

    @property
    def n_broadcasts(self) -> int:
        """Number of updates generated at the source."""
        return len(self.t_generated)

    @property
    def outcomes(self) -> List[BroadcastOutcome]:
        """Per-broadcast records (built from the arrays on first read)."""
        if self._outcomes is None:
            rows = zip(
                self.t_generated.tolist(), self.receive_times, self.hops,
                self.parents, self.counters.tolist(),
            )
            self._outcomes = [
                _outcome(self.source, b, *row) for b, row in enumerate(rows)
            ]
        return self._outcomes

    def _n_received(self) -> np.ndarray:
        """Nodes (source included) each broadcast reached."""
        return np.count_nonzero(self.hops >= 0, axis=1)

    def reliability(self, fraction: float) -> float:
        """Fraction of updates received by >= ``fraction`` of nodes (Figs 4-5)."""
        check_probability("fraction", fraction)
        threshold = fraction * self.hops.shape[1]
        hits = int(np.count_nonzero(self._n_received() >= threshold))
        return hits / self.n_broadcasts

    def mean_coverage(self) -> float:
        """Average per-broadcast coverage (the Fig 16/18 'updates received')."""
        coverage = self._n_received() / self.hops.shape[1]
        return _builtin_sum(coverage) / self.n_broadcasts

    def joules_per_update(self) -> float:
        """Network-wide energy divided by updates generated."""
        return self.total_joules / self.n_broadcasts

    def joules_per_update_per_node(self) -> float:
        """Average per-node energy per update — the Figure 8/13 y-axis.

        The paper plots "the average energy consumed at a node, normalized
        for the number of updates generated" (Section 5.2).
        """
        return self.joules_per_update() / len(self.shortest_hops)

    def mean_per_hop_latency(self) -> Optional[float]:
        """Average latency-per-hop over all receptions (Fig 11 y-axis).

        ``None`` when nothing beyond the source ever received (deeply
        sub-threshold operating points).
        """
        relayed = self.hops > 0  # reached, source (hop 0) excluded
        latency = self.receive_times - self.t_generated[:, None]
        return _mean(latency[relayed] / self.hops[relayed])

    def nodes_at_distance(self, d: int) -> List[int]:
        """Node ids whose shortest-path distance from the source is ``d``."""
        if self._distance_buckets is None:
            # Built lazily once: figure code queries several hop buckets
            # per campaign and the scan is O(n) each time otherwise.
            self._distance_buckets = bucket_by_distance(self.shortest_hops)
        return list(self._distance_buckets.get(d, ()))

    def mean_hops_at_distance(self, d: int) -> Optional[float]:
        """Average hops actually travelled to reach distance-``d`` nodes.

        The Figures 9/10 metric: when reliability is marginal the broadcast
        worms along tortuous spanning-tree paths and this exceeds ``d``;
        at high reliability it collapses to ~``d``.
        """
        hops = self.hops[:, self.nodes_at_distance(d)]
        reached = hops[hops >= 0]
        if not reached.size:
            return None
        # Integer-valued, so the sum is exact in any order.
        return float(reached.sum()) / reached.size

    def mean_latency_at_distance(self, d: int) -> Optional[float]:
        """Average generation-to-reception delay at distance-``d`` nodes."""
        nodes = self.nodes_at_distance(d)
        reached = self.hops[:, nodes] >= 0
        latency = self.receive_times[:, nodes] - self.t_generated[:, None]
        return _mean(latency[reached])


class IdealSimulator:
    """Collision-free broadcast simulator over an arbitrary topology.

    Parameters
    ----------
    topology:
        Usually a 75x75 :class:`~repro.net.topology.GridTopology`.
    params:
        PBBF's (p, q).  Ignored in ``ALWAYS_ON`` mode.
    config:
        Timing and power values (Table 1 defaults).
    seed:
        Root seed; every coin flip derives from it deterministically.
    source:
        Broadcast source; defaults to the grid centre (the paper's choice).
    mode:
        ``PSM_PBBF`` (default) or ``ALWAYS_ON``.
    q_coin_scope:
        Granularity of the stay-awake coin (an ablation, measured by
        ``benchmarks/bench_ablation_qcoin.py``):
        ``"frame"`` (default, the paper's Figure 3 semantics — one coin per
        node per sleep period) or ``"broadcast"`` (one coin per node per
        broadcast — a sticky awake decision that collapses the per-frame
        renewal process onto exact bond percolation).
    failed_nodes:
        Failure injection: these nodes are dead before the first broadcast
        — they never receive, never forward, and count as unreached in
        every coverage metric.  The source must not be failed.  Energy
        accounting is untouched (a crashed radio's duty cycle is a
        modelling question this scenario knob deliberately leaves alone).
    """

    def __init__(
        self,
        topology: Topology,
        params: PBBFParams,
        config: Optional[AnalysisParameters] = None,
        seed: int = 0,
        source: Optional[int] = None,
        mode: SchedulingMode = SchedulingMode.PSM_PBBF,
        q_coin_scope: str = "frame",
        failed_nodes: Optional[Sequence[int]] = None,
    ) -> None:
        if q_coin_scope not in ("frame", "broadcast"):
            raise ValueError(
                f"q_coin_scope must be 'frame' or 'broadcast', got {q_coin_scope!r}"
            )
        self.topology = topology
        self.params = params
        self.config = config if config is not None else AnalysisParameters()
        self.mode = mode
        self.q_coin_scope = q_coin_scope
        self._current_broadcast = 0
        if source is None:
            center = getattr(topology, "center_node", None)
            source = center() if callable(center) else 0
        if not 0 <= source < topology.n_nodes:
            raise IndexError(f"source {source} outside topology")
        self.source = source
        self.failed_nodes: Tuple[int, ...] = tuple(sorted(set(failed_nodes or ())))
        for node in self.failed_nodes:
            if not 0 <= node < topology.n_nodes:
                raise IndexError(f"failed node {node} outside topology")
        if source in self.failed_nodes:
            raise ValueError(f"source {source} cannot be a failed node")
        # Scalar-path membership list and fast-path mask; None when the
        # scenario has no failures so both kernels skip the extra work.
        self._failed_mask: Optional[np.ndarray] = None
        if self.failed_nodes:
            mask = np.zeros(topology.n_nodes, dtype=bool)
            mask[list(self.failed_nodes)] = True
            self._failed_mask = mask
        self._seed = seed
        self._q_salt = 0x51C0FFEE  # distinguishes q-coins from p-coins
        self._p_salt = 0x9B0ADCA5

    # -- schedule geometry ----------------------------------------------------

    def frame_of(self, t: float) -> int:
        """Index of the frame containing time ``t``."""
        return int(math.floor(t / self.config.t_frame))

    def frame_start(self, frame: int) -> float:
        """Start time of ``frame``."""
        return frame * self.config.t_frame

    def in_active_window(self, t: float) -> bool:
        """Is ``t`` inside an ATIM window (when everyone is awake)?"""
        phase = t - self.frame_start(self.frame_of(t))
        return phase < self.config.t_active

    def is_awake(self, node: int, t: float) -> bool:
        """Is ``node`` listening at time ``t``?

        Awake during every ATIM window; outside it, awake iff the node's
        per-frame q-coin came up heads (Figure 3's Sleep-Decision-Handler).
        """
        if self.mode is SchedulingMode.ALWAYS_ON:
            return True
        if self.in_active_window(t):
            return True
        if self.q_coin_scope == "frame":
            key = self.frame_of(t)
        else:  # per-broadcast scope (ablation)
            key = -1 - self._current_broadcast
        coin = hash_to_unit_interval(self._seed ^ self._q_salt, node, key)
        return coin < self.params.q

    def _forwards_immediately(self, node: int, broadcast_index: int) -> bool:
        """The node's p-coin for this broadcast (Figure 3's Receive-Broadcast)."""
        if self.mode is SchedulingMode.ALWAYS_ON:
            return True
        coin = hash_to_unit_interval(
            self._seed ^ self._p_salt, node, broadcast_index
        )
        return coin < self.params.p

    def _defer_out_of_window(self, t: float) -> float:
        """Data cannot be sent inside an ATIM window; push ``t`` past it."""
        if self.mode is SchedulingMode.ALWAYS_ON:
            return t
        if self.in_active_window(t):
            return self.frame_start(self.frame_of(t)) + self.config.t_active
        return t

    def _next_window_send_time(self, t: float) -> float:
        """Transmission time of a normal broadcast queued at time ``t``.

        Announced in the next frame's ATIM window, transmitted L1 after the
        window closes.
        """
        next_frame = self.frame_of(t) + 1
        return self.frame_start(next_frame) + self.config.t_active + self.config.l1

    # -- propagation -----------------------------------------------------------

    def run_broadcast(self, index: int) -> BroadcastOutcome:
        """Propagate broadcast number ``index`` and record its outcome.

        The update is generated at ``index * update_interval`` (shifted into
        the containing frame's ATIM window, where the paper's updates always
        arrive) and propagates until no transmission remains pending.

        Runs the lockstep kernel as a batch of one;
        :meth:`run_broadcast_reference` is its bit-identical oracle.
        """
        check_non_negative_int("index", index)
        t_gen, receive, hops, parents, counters = self._run_batch([self], [index])
        return _outcome(
            self.source, index, t_gen.item(), receive[0], hops[0], parents[0],
            counters[0].tolist(),
        )

    def _generation_times(self, index: int) -> Tuple[float, float]:
        """(generation time, first transmission time) of broadcast ``index``."""
        cfg = self.config
        t_nominal = index * cfg.update_interval
        if self.mode is SchedulingMode.ALWAYS_ON:
            return t_nominal, t_nominal + cfg.l1
        frame = self.frame_of(t_nominal)
        if t_nominal - self.frame_start(frame) >= cfg.t_active:
            frame += 1  # arrival fell past the window; use the next one
        t_gen = self.frame_start(frame)
        return t_gen, t_gen + cfg.t_active + cfg.l1

    def run_broadcast_reference(self, index: int) -> BroadcastOutcome:
        """:meth:`run_broadcast` on the scalar heap loop, the reference
        implementation: one heap entry per transmission."""
        check_non_negative_int("index", index)
        self._current_broadcast = index  # keys the broadcast-scope q-coins
        cfg = self.config
        n = self.topology.n_nodes
        airtime = cfg.packet_airtime
        t_gen, first_tx = self._generation_times(index)

        receive_times: List[Optional[float]] = [None] * n
        hops: List[Optional[int]] = [None] * n
        parents: List[Optional[int]] = [None] * n
        receive_times[self.source] = t_gen
        hops[self.source] = 0
        n_transmissions = 0
        n_immediate = 0
        n_normal = 0

        # Heap of pending *transmissions*: (send_time, seq, sender, hop,
        # immediate?).  Receptions are resolved when the transmission fires,
        # which keeps arrival processing in global time order.
        heap: List[Tuple[float, int, int, int, bool]] = []
        seq = 0
        heapq.heappush(heap, (first_tx, seq, self.source, 0, False))
        n_normal += 1

        failed = self._failed_mask
        while heap:
            t_send, _, sender, hop, immediate = heapq.heappop(heap)
            n_transmissions += 1
            t_arrive = t_send + airtime
            for nbr in self.topology.neighbors(sender):
                if receive_times[nbr] is not None:
                    continue  # duplicate: dropped, never re-forwarded
                if failed is not None and failed[nbr]:
                    continue  # dead radio: the broadcast routes around it
                if immediate and not self.is_awake(nbr, t_send):
                    continue  # immediate forward missed a sleeping neighbour
                receive_times[nbr] = t_arrive
                hops[nbr] = hop + 1
                parents[nbr] = sender
                if self._forwards_immediately(nbr, index):
                    raw = t_arrive + cfg.l1
                    seq += 1
                    heapq.heappush(
                        heap,
                        (self._defer_out_of_window(raw), seq, nbr, hop + 1, True),
                    )
                    n_immediate += 1
                else:
                    seq += 1
                    heapq.heappush(
                        heap,
                        (self._next_window_send_time(t_arrive), seq, nbr, hop + 1, False),
                    )
                    n_normal += 1

        return BroadcastOutcome(
            index=index,
            source=self.source,
            t_generated=t_gen,
            receive_times=tuple(receive_times),
            hops=tuple(hops),
            n_transmissions=n_transmissions,
            n_immediate_forwards=n_immediate,
            n_normal_forwards=n_normal,
            parents=tuple(parents),
        )

    @staticmethod
    def _run_batch(
        simulators: Sequence["IdealSimulator"], indices: Sequence[int]
    ) -> Tuple[np.ndarray, ...]:
        """Vectorized kernel: every simulator's ``indices`` broadcasts, in lockstep.

        State lives in flat arrays keyed ``row * n_nodes + node``, with one
        row per (simulator, broadcast), simulator-major.  The simulators
        share a topology and timing constants; each row keeps its own
        simulator's seed, p, q, mode, source and failed set.  Each step takes,
        for every row still propagating, all its pending transmissions at
        *its own* earliest send time and resolves them together: one gather
        of the senders' rows of the self-padded neighbour matrix, q-coins
        hashed only for neighbours of immediate senders outside an ATIM
        window, and first claims via a reversed scatter on the flat keys.
        Rows never interact (disjoint keys; coins keyed by each row's own
        seed and broadcast index), and each row matches the scalar heap
        because:

        * the pending pool keeps append order, and a row's appends follow
          its heap sequence numbers, so an order-preserving selection of
          one send time yields the heap's (time, seq) pop order;
        * a step's gather enumerates (sender, neighbour) pairs in the
          scalar visit order, so the first claim of a key is the scalar's
          (duplicate-index assignment is last-write-wins, hence reversed);
        * every timestamp is the float expression of
          ``_defer_out_of_window`` / ``_next_window_send_time`` on the same
          inputs (``ALWAYS_ON`` rows are never gated and send at ``raw``),
          so grouping by exact equality matches heap ordering.

        Returns ``(t_generated, receive_times, hops, parents, counters)``
        shaped as the :class:`CampaignResult` fields, one row per
        (simulator, broadcast).
        """
        first = simulators[0]
        cfg = first.config
        t_frame, t_active, l1 = cfg.t_frame, cfg.t_active, cfg.l1
        airtime = cfg.packet_airtime
        n = first.topology.n_nodes
        padded = first.topology.csr.padded
        width = padded.shape[1]
        nodes = np.arange(n)
        index_arr = np.asarray(indices, dtype=np.int64)
        n_sims, n_indices = len(simulators), len(index_arr)
        n_rows = n_sims * n_indices
        always = np.array([s.mode is SchedulingMode.ALWAYS_ON for s in simulators])
        all_always, any_always = bool(always.all()), bool(always.any())
        row_always = np.repeat(always, n_indices)
        row_source = np.repeat([sim.source for sim in simulators], n_indices)
        times = {}  # (generation, first send) times per mode
        for sim in simulators:
            if sim.mode not in times:
                times[sim.mode] = [sim._generation_times(i) for i in indices]
        t_gen, first_tx = np.array(
            [times[sim.mode] for sim in simulators]
        ).reshape(n_rows, 2).T

        # p-coins once per (broadcast, node).  The source's own send is a
        # normal broadcast whatever its coin says, and it is never counted.
        # Both coins hash each node's stage of its simulator's chain once per
        # call, so a coin costs one splitmix64 round.
        forwards = np.ones((n_sims, n_indices, n), dtype=bool)
        psm = np.flatnonzero(~always)
        if psm.size:
            p_stage = np.stack([
                hash_prefix_array(simulators[k]._seed ^ simulators[k]._p_salt, nodes)
                for k in psm
            ])
            p = np.array([simulators[k].params.p for k in psm])
            forwards[psm] = (
                hash_finish_array(p_stage[:, None, :], index_arr[:, None])
                < p[:, None, None]
            )
        if not all_always:
            q_stage = np.concatenate([
                hash_prefix_array(sim._seed ^ sim._q_salt, nodes) for sim in simulators
            ])
            q = np.array([sim.params.q for sim in simulators])
            row_q = np.repeat(q, n_indices)
            row_stage = np.repeat(np.arange(n_sims) * n, n_indices)
            row_index = np.tile(index_arr, n_sims)
            frame_scope = first.q_coin_scope == "frame"
        forwards = forwards.reshape(n_rows, n)
        forwards[np.arange(n_rows), row_source] = False
        forwards = forwards.ravel()
        # Failed radios are pre-marked discovered, so no gather sees them;
        # their hop stays -1 (unreached).
        discovered = np.zeros((n_sims, n_indices, n), dtype=bool)
        for k, sim in enumerate(simulators):
            if sim._failed_mask is not None:
                discovered[k] = sim._failed_mask
        discovered = discovered.ravel()
        receive = np.zeros(n_rows * n)
        hops = np.full(n_rows * n, -1, dtype=np.int64)
        parents = np.full(n_rows * n, -1, dtype=np.int64)
        claim = np.empty(n_rows * n, dtype=np.int64)  # first claiming pair
        source_keys = np.arange(n_rows) * n + row_source
        discovered[source_keys] = True
        receive[source_keys] = t_gen
        hops[source_keys] = 0

        # Pending transmissions (row, send time, sender) in append order.
        pend_row = np.arange(n_rows)
        pend_t = first_tx
        pend_node = row_source
        earliest = np.empty(n_rows)
        while pend_row.size:
            earliest.fill(np.inf)
            np.minimum.at(earliest, pend_row, pend_t)
            now = pend_t == earliest[pend_row]
            later = ~now
            # np.compress and np.take select as boolean and fancy indexing
            # do, with less overhead per call.
            rows, pend_row = np.compress(now, pend_row), np.compress(later, pend_row)
            t_send, pend_t = np.compress(now, pend_t), np.compress(later, pend_t)
            senders, pend_node = np.compress(now, pend_node), np.compress(later, pend_node)

            # (sender, neighbour slot) pairs, one row per sender; flat
            # indices enumerate them in the scalar visit order.  A padding
            # slot names the sender itself, already discovered.
            row_base = rows * n
            sender_keys = row_base + senders
            nbrs = np.take(padded, senders, axis=0)
            keys = row_base[:, None] + nbrs
            keep = ~discovered[keys]
            immediate = forwards[sender_keys]
            if not all_always and immediate.any():
                # Immediate forwards outside the window reach only the
                # neighbours whose q-coin kept them awake.
                frame = np.floor(t_send / t_frame)
                gated = immediate & (t_send - frame * t_frame >= t_active)
                if any_always:
                    gated &= ~row_always[rows]
                pairs = np.flatnonzero(keep & gated[:, None])
                if pairs.size:
                    owners = pairs // width
                    if frame_scope:
                        q_key = frame.astype(np.int64)[owners]
                    else:
                        q_key = -1 - row_index[rows[owners]]
                    stage_keys = np.take(nbrs, pairs)
                    if n_sims == 1:  # no per-pair gather of stage or threshold
                        threshold = q[0]
                    else:
                        pair_rows = rows[owners]
                        stage_keys = stage_keys + row_stage[pair_rows]
                        threshold = row_q[pair_rows]
                    asleep = hash_finish_array(q_stage[stage_keys], q_key) >= threshold
                    np.put(keep, pairs[asleep], False)
            claims = np.flatnonzero(keep)
            if not claims.size:
                continue
            cand = np.take(keys, claims)
            claim[cand[::-1]] = claims[::-1]
            won_pairs = claims[claim[cand] == claims]
            won = np.take(keys, won_pairs)
            owner = won_pairs // width  # the claiming transmission

            t_arrive = t_send[owner] + airtime
            discovered[won] = True
            receive[won] = t_arrive
            hops[won] = hops[sender_keys[owner]] + 1
            parents[won] = senders[owner]
            raw = t_arrive + l1
            if all_always:
                t_next = raw
            else:
                raw_start = np.floor(raw / t_frame) * t_frame
                in_window = raw - raw_start < t_active
                t_immediate = np.where(in_window, raw_start + t_active, raw)
                t_normal = (np.floor(t_arrive / t_frame) + 1.0) * t_frame + t_active + l1
                t_next = np.where(forwards[won], t_immediate, t_normal)
                if any_always:
                    t_next = np.where(row_always[rows[owner]], raw, t_next)
            pend_row = np.concatenate((pend_row, rows[owner]))
            pend_t = np.concatenate((pend_t, t_next))
            pend_node = np.concatenate((pend_node, np.take(nbrs, won_pairs)))

        # Every reached node transmits exactly once; only non-sources count
        # as forwards, immediate when their p-coin says so.
        reached = (hops >= 0).reshape(n_rows, n)
        n_tx = np.count_nonzero(reached, axis=1)
        n_immediate = np.count_nonzero(reached & forwards.reshape(n_rows, n), axis=1)
        return (
            t_gen,
            receive.reshape(n_rows, n),
            hops.reshape(n_rows, n),
            parents.reshape(n_rows, n),
            np.stack((n_tx, n_immediate, n_tx - n_immediate), axis=1),
        )

    def run_campaign(self, n_broadcasts: int) -> CampaignResult:
        """Generate ``n_broadcasts`` updates and aggregate their outcomes.

        All broadcasts run as one lockstep kernel call: this is
        :func:`run_campaigns` on a batch of one simulator.  Energy
        accounting follows the paper's analysis: the duty-cycle term is
        the Eq. 7 expectation (which Figure 8 verifies the simulation
        matches exactly), plus the transmit-power premium for every actual
        transmission.  ``tests/ideal/test_closed_forms.py`` checks it
        against Eq. 7 and Eq. 8.
        """
        return run_campaigns([self], n_broadcasts)[0]

    def run_campaign_reference(self, n_broadcasts: int) -> CampaignResult:
        """:meth:`run_campaign` on the scalar heap loop, the kernel's oracle.

        One :meth:`run_broadcast_reference` per broadcast; the result keeps
        those records as its :attr:`CampaignResult.outcomes`.  Bit-identical
        to :meth:`run_campaign` (the parity suite enforces it); the runner
        calls it only for ``on_exhausted="degrade"`` attempts.
        """
        _check_broadcasts(n_broadcasts)
        from repro.obs import get_recorder

        with get_recorder().span(
            "kernel.ideal",
            broadcasts=n_broadcasts,
            nodes=self.topology.n_nodes,
            fast_path=False,
            points=1,
        ):
            outcomes = [
                self.run_broadcast_reference(i) for i in range(n_broadcasts)
            ]
            arrays = _stack_outcomes(outcomes)
        return self._campaign_result(n_broadcasts, arrays, outcomes)

    def _campaign_result(
        self,
        n_broadcasts: int,
        arrays: Sequence[np.ndarray],
        outcomes: Optional[List[BroadcastOutcome]] = None,
    ) -> CampaignResult:
        """This simulator's campaign from its rows of the kernel arrays."""
        t_gen, receive, hops, parents, counters = arrays
        duration = n_broadcasts * self.config.update_interval
        return CampaignResult(
            params=self.params,
            mode=self.mode,
            config=self.config,
            source=self.source,
            shortest_hops=self.topology.hop_distances_from(self.source),
            total_joules=self._campaign_energy(int(counters[:, 0].sum()), duration),
            duration=duration,
            t_generated=t_gen,
            receive_times=receive,
            hops=hops,
            parents=parents,
            counters=counters,
            _outcomes=outcomes,
        )

    # -- energy ------------------------------------------------------------

    def _campaign_energy(self, n_transmissions: int, duration: float) -> float:
        cfg = self.config
        power = cfg.power
        if self.mode is SchedulingMode.ALWAYS_ON:
            duty_power = power.listen_w
        else:
            q = self.params.q
            awake_per_frame = cfg.t_active + q * cfg.t_sleep
            asleep_per_frame = (1.0 - q) * cfg.t_sleep
            duty_power = (
                awake_per_frame * power.listen_w + asleep_per_frame * power.sleep_w
            ) / cfg.t_frame
        base = self.topology.n_nodes * duty_power * duration
        tx_premium = n_transmissions * cfg.packet_airtime * (power.tx_w - power.listen_w)
        return base + tx_premium


def _check_broadcasts(n_broadcasts: int) -> None:
    if n_broadcasts <= 0:
        raise ValueError(f"n_broadcasts must be > 0, got {n_broadcasts}")


def run_campaigns(
    simulators: Sequence[IdealSimulator], n_broadcasts: int
) -> List[CampaignResult]:
    """:meth:`IdealSimulator.run_campaign` of every simulator, in one call.

    The simulators' broadcasts run as the rows of one lockstep kernel
    call (:meth:`IdealSimulator._run_batch`).  Each row keeps its own simulator's seed,
    p, q, mode, source and failed set, and rows never interact, so each
    result is bit-identical to the simulator's own :meth:`run_campaign`.
    The simulators must share one :class:`Topology` object, one
    :class:`AnalysisParameters` and one ``q_coin_scope``.  Each result
    holds only its own rows.
    """
    sims = list(simulators)
    _check_broadcasts(n_broadcasts)
    if not sims:
        return []
    first = sims[0]
    for sim in sims[1:]:
        if sim.topology is not first.topology:
            raise ValueError("run_campaigns() needs one shared Topology object")
        if sim.config != first.config:
            raise ValueError("run_campaigns() needs one shared AnalysisParameters")
        if sim.q_coin_scope != first.q_coin_scope:
            raise ValueError("run_campaigns() needs one shared q_coin_scope")
    from repro.obs import get_recorder

    with get_recorder().span(
        "kernel.ideal",
        broadcasts=n_broadcasts,
        nodes=first.topology.n_nodes,
        fast_path=True,
        points=len(sims),
    ):
        arrays = IdealSimulator._run_batch(sims, range(n_broadcasts))
    if len(sims) == 1:
        return [first._campaign_result(n_broadcasts, arrays)]
    results = []
    for k, sim in enumerate(sims):
        rows = slice(k * n_broadcasts, (k + 1) * n_broadcasts)
        own = [array[rows].copy() for array in arrays]
        results.append(sim._campaign_result(n_broadcasts, own))
    return results

