"""Seed-batched structure-of-arrays kernel for the detailed simulator.

The heap-loop :class:`~repro.detailed.simulator.DetailedSimulator` spends
the bulk of its time on beacon-interval *machinery*: two events per node
per BI (window open, Sleep-Decision-Handler) that every node executes at
schedule-determined instants regardless of traffic.  This kernel advances
**all seeds of a campaign point in one call**: per-node radio/energy/
PBBF state lives in numpy arrays of shape ``(n_nodes, n_seeds)``, one
*cell* per (node, seed).  Cells sharing a schedule offset form one
machinery group.  A group of many cells (a nominal world is one group
holding every cell) runs each machinery instant as a handful of
vectorized mask operations instead of ``n_nodes * n_seeds`` Python
callbacks; a group of one cell (clock skew gives every cell its own
offset) runs it as scalar code on that cell, so a skewed world costs
about what its cells do rather than a full-array pass per cell.  An
instant drains the traffic of only the seeds its group touches.  Sparse
*traffic* (CSMA contention, transmissions, receptions, application
updates, node deaths) runs per seed through a lean tuple-event heap that
replaces the engine's ``EventHandle``/closure plumbing with direct
dispatch.

Bit-identical parity with the heap loop is a hard contract (the figures
must not move by one ulp), which pins four design rules:

* **Float expressions are transcribed, not simplified.**  Machinery
  instants accumulate (``t + BI`` from the previous instant, exactly as
  self-rescheduling ``engine.schedule`` calls do) while gate times use
  the closed forms in :mod:`repro.mac.pbbf`; energy accumulates at
  exactly the instants the heap loop calls ``set_state`` — splitting a
  ``w*(c-a)`` rectangle at ``b`` is not an IEEE no-op.  The scalar and
  vectorized machinery paths evaluate the same expressions.
* **Per-stream draw order is preserved.**  Every named
  :class:`~repro.util.rng.RandomStreams` stream is independently seeded,
  so only the draw sequence *within* a stream must match — which it
  does, because each node's backoff/pbbf draws happen at the same
  simulated instants for the same reasons.
* **Event ordering replicates the engine's ``(time, priority, seq)``
  heap.**  Deaths (control priority) precede same-instant traffic;
  machinery precedes same-instant traffic because machinery events are
  always scheduled at least one ATIM window ahead while every traffic
  delay (gate wait, DIFS+backoff, busy-defer, airtime) is shorter;
  within a machinery instant, window opens precede window ends and nodes
  are processed in ascending id order, matching the seq order their
  self-rescheduling callbacks hold in the engine heap.  Seeds share no
  traffic, so when a seed's heap is drained does not matter, only that
  it is drained up to each of its own machinery instants.
* **Every channel query sees the frames the heap loop's would.**  A
  seed keeps its transmissions for ``max(2 * longest airtime seen,
  CsmaConfig.lookback)`` (69 ms at the defaults, the heap loop's channel
  keeps them as long), because no query reaches further back: a fire's
  countdown began at most DIFS + (cw - 1) slots earlier, a completion
  looks back one airtime, and carrier sense reads only frames still on
  the air.  Frames are shared and never mutated: a forward re-sends the
  frame it received, in both loops, since a frame carries only its kind,
  origin, seqno, size and updates.

Scope: every configuration of the PSM scheduler and of ``ALWAYS_ON``, the
NO PSM baseline.  ``PSM_PBBF`` on PSM supports loss, k > 1, pre-failed
nodes, mid-run deaths, scenario clock offsets and the adaptive
controller; ``ALWAYS_ON`` supports loss, pre-failed nodes and mid-run
deaths (it has no machinery groups, and every fresh frame goes straight
to CSMA ungated, with no p-coin).  Under an
:class:`~repro.adaptive.AdaptivePolicy` each node keeps its own (p, q)
and the counts :class:`~repro.adaptive.AdaptivePBBFAgent` keeps, and
adjusts at each of its window ends before the q-coin.  Only S-MAC and
T-MAC fall back to the heap loop; :func:`fallback_reason` is the one
statement of that scope and names the reason.  No option turns the kernel
off; ``DetailedSimulator.run_reference()`` runs the heap loop by name
(the parity oracle, and degraded campaign attempts).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.apps.code_distribution import (
    DEFAULT_FIRST_OFFSET,
    CodeDistributionApp,
    UpdateRecord,
)
from repro.apps.metrics import BroadcastMetrics
from repro.ideal.simulator import SchedulingMode
from repro.mac.base import MacStats
from repro.mac.csma import CsmaConfig
from repro.mac.pbbf import bi_index_at, data_gate_at, in_atim_window_at
from repro.net.channel import ChannelStats
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine
from repro.util.validation import check_positive

# Radio state codes (power_lut index); LISTEN is the boot state.
_LISTEN, _TX, _SLEEP = 0, 1, 2

# Traffic event kinds, dispatched per seed in (time, priority, seq) order.
_ATTEMPT, _FIRE, _CH_DONE, _TX_DONE, _GEN, _DIE = 0, 1, 2, 3, 4, 5

# CSMA frame tags mapping completions to the MAC's stats hooks.
_TAG_BEACON, _TAG_ATIM, _TAG_NORMAL, _TAG_IMMEDIATE = 0, 1, 2, 3

# Frame kinds, read once: an enum class attribute or ``.value`` costs a
# Python-level lookup per use.
_DATA, _ATIM = PacketKind.DATA, PacketKind.ATIM
# ``ChannelStats.by_kind`` key of each tag's frames.
_TAG_KIND_VALUE = (
    PacketKind.BEACON.value,
    PacketKind.ATIM.value,
    PacketKind.DATA.value,
    PacketKind.DATA.value,
)


def fallback_reason(mode: SchedulingMode, scheduler: str) -> Optional[str]:
    """Why a configuration runs on the heap loop, or ``None`` if it batches.

    The one statement of this kernel's scope, shared by
    :func:`supports_batch`, ``DetailedSimulator.run`` and the runner's
    seed batching; the reason, ``"scheduler"`` for S-MAC and T-MAC, also
    labels the reference loop's telemetry span (``"forced"`` there marks
    an in-scope run on the heap loop).  ``ALWAYS_ON`` ignores the
    scheduler, as the heap loop does.
    """
    if mode is SchedulingMode.PSM_PBBF and scheduler != "psm":
        return "scheduler"
    return None


def supports_batch(sim) -> bool:
    """Can ``sim`` run on the batched kernel with bit-identical results?"""
    return sim.fallback_reason() is None


class _Transmission:
    """On-air frame (identity-compared, like the channel's dataclass)."""

    __slots__ = ("sender", "packet", "start", "end")

    def __init__(self, sender: int, packet: Packet, start: float, end: float) -> None:
        self.sender = sender
        self.packet = packet
        self.start = start
        self.end = end


class _SeedState:
    """Per-seed scalar state: traffic heap, CSMA queues, RNGs, stats."""

    __slots__ = (
        "sim", "s", "n", "source", "heap", "seq", "offsets",
        "neighbors", "audible", "recent", "max_duration",
        "channel_stats", "mac_stats", "loss_p", "loss_rng",
        "backoff_rngs", "pbbf_rngs", "p", "q", "adaptive", "heard",
        "misses", "highest", "seen",
        "normal_queue", "queued_nodes", "csma_queue", "pending_id",
        "transmitting", "failed", "updates", "receptions",
        "next_update_id", "state_l", "since_l", "mirror_fresh",
    )

    def __init__(self, sim, s: int) -> None:
        topology = sim.topology
        n = topology.n_nodes
        streams = sim._streams
        self.sim = sim
        self.s = s
        self.n = n
        self.source = sim.source
        self.heap: List[tuple] = []
        self.seq = 0
        self.neighbors = [topology.neighbors(node) for node in topology.nodes()]
        self.audible = [frozenset(nbrs) for nbrs in self.neighbors]
        self.recent: List[_Transmission] = []
        self.max_duration = 0.0
        self.channel_stats = ChannelStats()
        self.mac_stats = [MacStats() for _ in range(n)]
        self.loss_p = sim._loss_probability
        self.loss_rng = streams.stream("loss")
        self.backoff_rngs = [
            streams.stream(f"node.{node_id}.backoff") for node_id in range(n)
        ]
        # AlwaysOnMac has no sleep schedule: it draws no p/q coins and
        # has no schedule offset, so an always-on seed joins no machinery
        # group.
        always_on = sim.mode is SchedulingMode.ALWAYS_ON
        self.pbbf_rngs = [] if always_on else [
            streams.stream(f"node.{node_id}.pbbf") for node_id in range(n)
        ]
        # Per-node (p, q): fixed for the static agent, adjusted at every
        # window end under an adaptive policy from its window counts.
        self.p = [sim.params.p] * n
        self.q = [sim.params.q] * n
        self.adaptive = sim.adaptive
        if self.adaptive is not None:
            self.heard = [0] * n
            self.misses = [0] * n
            self.highest: List[Dict[int, int]] = [{} for _ in range(n)]
        self.seen: List[Set[Tuple[int, int]]] = [set() for _ in range(n)]
        self.normal_queue: List[List[Packet]] = [[] for _ in range(n)]
        self.queued_nodes: Set[int] = set()
        self.csma_queue: List[List[Tuple[Packet, bool, int]]] = [
            [] for _ in range(n)
        ]
        self.pending_id: List[Optional[int]] = [None] * n
        self.transmitting = [False] * n
        self.failed = [False] * n
        self.updates: List[UpdateRecord] = []
        self.receptions: Dict[int, Dict[int, float]] = {
            node: {} for node in range(n)
        }
        self.next_update_id = 0
        # Read-cache of this seed's state / state_since columns for the
        # per-receiver listening checks (the arrays stay authoritative).
        # Machinery instants invalidate it; completions refresh lazily.
        self.state_l: List[int] = []
        self.since_l: List[float] = []
        self.mirror_fresh = False
        # Per-node clock offsets from the scenario, wrapped into one beacon
        # interval as the MAC wraps them.
        self.offsets: List[float] = []
        if always_on:
            return
        bi = sim.config.beacon_interval
        for node_id in range(n):
            offset = sim._clock_offsets[node_id] if sim._clock_offsets else 0.0
            self.offsets.append(float(offset) % bi)

    def push(self, time: float, priority: int, *payload) -> int:
        """Queue a traffic event; returns its seq (the cancellation token)."""
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.heap, (time, priority, seq) + payload)
        return seq

    def has_pending(self, node: int) -> bool:
        return bool(self.csma_queue[node]) or self.transmitting[node]


class _Group:
    """The (node, seed) cells sharing one schedule offset.

    One machinery stream.  A group of one cell (every cell of a skewed
    world) runs its BI starts and window ends as scalar code on that
    cell; larger groups (every nominal world is one) run them as mask
    operations over ``mask``, which is ``None`` for a single cell.
    ``seeds`` are the seed indices the cells touch, ascending.
    """

    __slots__ = ("offset", "cells", "seeds", "mask")

    def __init__(self, offset: float) -> None:
        self.offset = offset
        self.cells: List[Tuple[int, int]] = []
        self.seeds: List[int] = []
        self.mask: Optional[np.ndarray] = None


class _Batch:
    """All seeds of one campaign point, stepped in lockstep."""

    def __init__(self, sims, duration: float) -> None:
        first = sims[0]
        cfg = first.config
        n = first.topology.n_nodes
        S = len(sims)
        for sim in sims:
            if sim.topology.n_nodes != n:
                raise ValueError("batched sims must share a network size")
            if sim.config != cfg:
                raise ValueError("batched sims must share a configuration")
            if sim.mode is not first.mode:
                raise ValueError("batched sims must share a scheduling mode")
        self.sims = sims
        self.cfg = cfg
        self.always_on = first.mode is SchedulingMode.ALWAYS_ON
        self.n = n
        self.S = S
        self.duration = duration
        self.bi = cfg.beacon_interval
        self.aw = cfg.atim_window
        self.bit_rate = cfg.bit_rate_bps
        self.data_size = cfg.total_packet_bytes
        csma = CsmaConfig()
        self.slot_time = csma.slot_time
        self.difs = csma.difs
        self.cw = csma.contention_window
        self.lookback = csma.lookback
        # MacConfig defaults carried by the simulator's wiring.
        self.atim_size = 28
        self.beacon_size = 28
        self.send_beacons = True
        power = cfg.power
        self.power_lut = np.array(
            [power.listen_w, power.tx_w, power.sleep_w], dtype=np.float64
        )
        # The same levels as Python floats, for the scalar paths.
        self.power_w = self.power_lut.tolist()
        # SoA radio/energy/PBBF state, trailing seed axis.
        self.state = np.full((n, S), _LISTEN, dtype=np.int8)
        self.state_since = np.zeros((n, S), dtype=np.float64)
        self.last_time = np.zeros((n, S), dtype=np.float64)
        self.joules = np.zeros((n, S), dtype=np.float64)
        self.awake = np.ones((n, S), dtype=bool)
        self.announced_tx = np.zeros((n, S), dtype=bool)
        self.announced_rx = np.zeros((n, S), dtype=bool)
        self.started = np.ones((n, S), dtype=bool)
        self.stopped = np.zeros((n, S), dtype=bool)
        self.pending = np.zeros((n, S), dtype=bool)
        self.bi_index = np.full((n, S), -1, dtype=np.int64)
        self.all_nodes = list(range(n))
        self.states = [_SeedState(sim, s) for s, sim in enumerate(sims)]
        groups: Dict[float, _Group] = {}
        for st in self.states:
            for node_id, offset in enumerate(st.offsets):
                group = groups.get(offset)
                if group is None:
                    group = groups[offset] = _Group(offset)
                group.cells.append((node_id, st.s))
        self.groups = list(groups.values())
        for group in self.groups:
            group.seeds = sorted({s for _, s in group.cells})
            if len(group.cells) > 1:
                group.mask = np.zeros((n, S), dtype=bool)
                nodes, seeds = zip(*group.cells)
                group.mask[list(nodes), list(seeds)] = True
        # Pre-broadcast failures: the MAC never starts, the radio sleeps
        # from t=0 (set_state at the boot instant changes no energy).
        for st in self.states:
            for node_id in st.sim._pre_failed:
                st.failed[node_id] = True
                self.started[node_id, st.s] = False
                self.stopped[node_id, st.s] = True
                self.state[node_id, st.s] = _SLEEP
        # Incrementally-maintained ``started & ~stopped`` (deaths are rare).
        self.live = self.started & ~self.stopped

    # -- energy bookkeeping ---------------------------------------------------

    def _accumulate_bulk(self, now: float, sel: np.ndarray) -> None:
        """Vectorized accumulate at one shared instant.

        Adding ``w * 0.0`` where a node's meter already sits at ``now`` is
        an exact IEEE no-op for the non-negative totals involved, so the
        ``elapsed > 0`` guard can be dropped under the mask.
        """
        idx = np.nonzero(sel)
        elapsed = now - self.last_time[idx]
        self.joules[idx] += self.power_lut[self.state[idx]] * elapsed
        self.last_time[idx] = now

    def _set_state(self, st: _SeedState, node: int, code: int, now: float) -> None:
        """Scalar ``RadioEnergyModel.set_state`` (traffic path).

        Reads the arrays with ``ndarray.item`` and the power levels as
        Python floats: the same IEEE arithmetic without boxing a numpy
        scalar per operand.
        """
        s = st.s
        state = self.state.item(node, s)
        elapsed = now - self.last_time.item(node, s)
        if elapsed > 0.0:
            self.joules[node, s] = (
                self.joules.item(node, s) + self.power_w[state] * elapsed
            )
            self.last_time[node, s] = now
        if state != code:
            self.state[node, s] = code
            self.state_since[node, s] = now
            if st.mirror_fresh:
                st.state_l[node] = code
                st.since_l[node] = now

    def _scheduled_code(self, st: _SeedState, node: int, now: float) -> int:
        """``PBBFMac._scheduled_state`` (or ``AlwaysOnMac._end_tx``)."""
        if st.failed[node]:
            return _SLEEP
        if self.always_on or in_atim_window_at(
            now, st.offsets[node], self.bi, self.aw
        ):
            return _LISTEN
        if self.awake.item(node, st.s) or st.has_pending(node):
            return _LISTEN
        return _SLEEP

    # -- beacon interval machinery --------------------------------------------

    def _on_bi_start(self, now: float, group: _Group) -> bool:
        """Open a window on the group's live cells; ``False`` if none is.

        Cells never come back to life, so a group with no live cell has
        no further machinery.
        """
        if group.mask is None:
            return self._cell_bi_start(now, group)
        active = group.mask & self.live
        if not active.any():
            return False
        non_tx = active & (self.state != _TX)
        self._accumulate_bulk(now, non_tx)
        to_listen = non_tx & (self.state != _LISTEN)
        self.state[to_listen] = _LISTEN
        self.state_since[to_listen] = now
        states = [self.states[s] for s in group.seeds]
        for st in states:
            st.mirror_fresh = False
        bi = bi_index_at(now, group.offset, self.bi)
        self.bi_index[active] = bi
        self.announced_tx[active] = False
        self.announced_rx[active] = False
        self.awake[active] = True
        beacon_node = bi % self.n if self.send_beacons else -1
        for st in states:
            column = active[:, st.s]
            candidates = set(st.queued_nodes)
            if beacon_node >= 0:
                candidates.add(beacon_node)
            for node in sorted(candidates):
                if not column[node]:
                    continue
                if node == beacon_node:
                    self._send_beacon(st, node, bi, now)
                if st.normal_queue[node]:
                    self._announce_pending(st, node, now)
        return True

    def _cell_bi_start(self, now: float, group: _Group) -> bool:
        """``_on_bi_start`` on a group of one cell, as scalar code."""
        node, s = group.cells[0]
        if not self.live.item(node, s):
            return False
        st = self.states[s]
        if self.state.item(node, s) != _TX:
            self._set_state(st, node, _LISTEN, now)
        bi = bi_index_at(now, group.offset, self.bi)
        self.bi_index[node, s] = bi
        self.announced_tx[node, s] = False
        self.announced_rx[node, s] = False
        self.awake[node, s] = True
        if self.send_beacons and bi % self.n == node:
            self._send_beacon(st, node, bi, now)
        if st.normal_queue[node]:
            self._announce_pending(st, node, now)
        return True

    def _send_beacon(self, st: _SeedState, node: int, bi: int, now: float) -> None:
        """Queue BI ``bi``'s synchronisation beacon (round robin sender)."""
        beacon = Packet(
            kind=PacketKind.BEACON,
            origin=node,
            seqno=bi,
            size_bytes=self.beacon_size,
        )
        self._enqueue(st, node, beacon, False, _TAG_BEACON, now)

    def _adjust(self, st: _SeedState, node: int) -> None:
        """``AdaptivePBBFAgent._adjust``: the closing window's (p, q) step.

        Every data frame carries an ``(origin, seqno)`` id, so each frame
        heard is also a sequenced reception for the controller.
        """
        heard = st.heard[node]
        st.p[node], st.q[node] = st.adaptive.adjust(
            st.p[node], st.q[node], heard, st.misses[node], heard
        )
        st.heard[node] = 0
        st.misses[node] = 0

    def _on_window_end(self, now: float, group: _Group) -> None:
        if group.mask is None:
            self._cell_window_end(now, group)
            return
        active = group.mask & self.live
        if not active.any():
            return
        # Sleep-Decision-Handler, in ascending node order (the heap's
        # event seq order): an adaptive node first adjusts (p, q), and the
        # q-coin is drawn only when the node neither holds pending frames
        # nor was announced to.
        for s in group.seeds:
            st = self.states[s]
            column = active[:, s]
            if column.all():
                nodes = self.all_nodes
            elif column.any():
                nodes = np.nonzero(column)[0].tolist()
            else:
                continue
            announced = self.announced_rx[:, s].tolist()
            queue = st.csma_queue
            transmitting = st.transmitting
            rngs = st.pbbf_rngs
            q = st.q
            adaptive = st.adaptive is not None
            stay = []
            for node in nodes:
                if adaptive:
                    self._adjust(st, node)
                if announced[node] or queue[node] or transmitting[node]:
                    stay.append(True)
                else:
                    stay.append(rngs[node].random() < q[node])
            self.awake[nodes, s] = stay
        non_tx = active & (self.state != _TX)
        self._accumulate_bulk(now, non_tx)
        if in_atim_window_at(now, group.offset, self.bi, self.aw):
            listen = non_tx
        else:
            listen = non_tx & (self.awake | self.pending)
        to_listen = listen & (self.state != _LISTEN)
        to_sleep = (non_tx & ~listen) & (self.state != _SLEEP)
        self.state[to_listen] = _LISTEN
        self.state_since[to_listen] = now
        self.state[to_sleep] = _SLEEP
        self.state_since[to_sleep] = now
        for s in group.seeds:
            self.states[s].mirror_fresh = False

    def _cell_window_end(self, now: float, group: _Group) -> None:
        """``_on_window_end`` on a group of one cell, as scalar code."""
        node, s = group.cells[0]
        if not self.live.item(node, s):
            return
        st = self.states[s]
        if st.adaptive is not None:
            self._adjust(st, node)
        if (
            self.announced_rx.item(node, s)
            or st.csma_queue[node]
            or st.transmitting[node]
        ):
            awake = True
        else:
            awake = st.pbbf_rngs[node].random() < st.q[node]
        self.awake[node, s] = awake
        if self.state.item(node, s) != _TX:
            listen = (
                in_atim_window_at(now, group.offset, self.bi, self.aw)
                or awake
                or self.pending.item(node, s)
            )
            self._set_state(st, node, _LISTEN if listen else _SLEEP, now)

    # -- MAC ------------------------------------------------------------------

    def _announce_pending(self, st: _SeedState, node: int, now: float) -> None:
        if not st.normal_queue[node]:
            return
        if not self.announced_tx.item(node, st.s):
            atim = Packet(
                kind=_ATIM,
                origin=node,
                seqno=self.bi_index.item(node, st.s),
                size_bytes=self.atim_size,
            )
            self._enqueue(st, node, atim, False, _TAG_ATIM, now)
            self.announced_tx[node, st.s] = True
        queued, st.normal_queue[node] = st.normal_queue[node], []
        st.queued_nodes.discard(node)
        for packet in queued:
            self._enqueue(st, node, packet, True, _TAG_NORMAL, now)

    def _handle_receive(
        self,
        st: _SeedState,
        node: int,
        packet: Packet,
        now: float,
        kind: PacketKind,
        broadcast_id: tuple,
    ) -> None:
        if st.failed[node]:
            return
        if kind is not _DATA:
            if kind is _ATIM:
                st.mac_stats[node].atims_received += 1
                self.announced_rx[node, st.s] = True
            return  # beacons carry no payload; synchronisation is assumed
        if st.adaptive is not None:
            # AdaptivePBBFAgent.receive_broadcast's window counts,
            # duplicates included.
            st.heard[node] += 1
            origin, seqno = broadcast_id
            highest = st.highest[node]
            previous = highest.get(origin)
            if previous is not None and seqno > previous + 1:
                st.misses[node] += seqno - previous - 1
            if previous is None or seqno > previous:
                highest[origin] = seqno
        stats = st.mac_stats[node]
        seen = st.seen[node]
        if broadcast_id in seen:
            stats.duplicates_dropped += 1
            return
        seen.add(broadcast_id)
        # AlwaysOnMac floods every fresh packet at once, ungated, and
        # draws no p-coin.
        always_on = self.always_on
        immediate = always_on or st.pbbf_rngs[node].random() < st.p[node]
        stats.data_received += 1
        records = st.receptions[node]
        for update_id in packet.updates:
            if update_id not in records:
                records[update_id] = now
        # The forward re-sends the received frame, as the heap loop does.
        if immediate:
            self._enqueue(st, node, packet, not always_on, _TAG_IMMEDIATE, now)
        else:
            st.normal_queue[node].append(packet)
            st.queued_nodes.add(node)
            if in_atim_window_at(now, st.offsets[node], self.bi, self.aw):
                self._announce_pending(st, node, now)

    def _generate(self, st: _SeedState, now: float) -> None:
        update_id = st.next_update_id
        st.next_update_id += 1
        st.updates.append(UpdateRecord(update_id, now))
        st.receptions[st.source][update_id] = now
        recent = tuple(
            record.update_id for record in st.updates[-self.cfg.k:]
        )
        packet = Packet(
            kind=_DATA,
            origin=st.source,
            seqno=update_id,
            size_bytes=self.data_size,
            updates=recent,
        )
        # PBBFMac.broadcast (or AlwaysOnMac.broadcast) at the source.
        node = st.source
        if st.failed[node]:
            return
        st.seen[node].add(packet.broadcast_id)
        if self.always_on:
            self._enqueue(st, node, packet, False, _TAG_IMMEDIATE, now)
            return
        st.normal_queue[node].append(packet)
        st.queued_nodes.add(node)
        if in_atim_window_at(now, st.offsets[node], self.bi, self.aw):
            self._announce_pending(st, node, now)

    def _die(self, st: _SeedState, node: int, now: float) -> None:
        if st.failed[node]:
            return
        st.failed[node] = True
        self.stopped[node, st.s] = True
        self.live[node, st.s] = False
        st.csma_queue[node].clear()
        st.pending_id[node] = None
        self.pending[node, st.s] = st.transmitting[node]
        st.normal_queue[node].clear()
        st.queued_nodes.discard(node)
        if self.state.item(node, st.s) != _SLEEP:
            self._set_state(st, node, _SLEEP, now)

    # -- CSMA -----------------------------------------------------------------

    def _enqueue(
        self, st: _SeedState, node: int, packet: Packet, gated: bool, tag: int, now: float
    ) -> None:
        st.csma_queue[node].append((packet, gated, tag))
        self.pending[node, st.s] = True
        if st.transmitting[node] or st.pending_id[node] is not None:
            return
        self._attempt(st, node, now)

    def _attempt(self, st: _SeedState, node: int, now: float) -> None:
        st.pending_id[node] = None
        queue = st.csma_queue[node]
        if not queue:
            return
        _packet, gated, _tag = queue[0]
        if gated:
            gate_time = data_gate_at(now, st.offsets[node], self.bi, self.aw)
            if gate_time > now:
                st.pending_id[node] = st.push(
                    now + (gate_time - now), 0, _ATTEMPT, node
                )
                return
        # Carrier sense and busy-until in one pass: the medium is busy
        # exactly when an audible frame on the air ends after ``now``.
        audible = st.audible[node]
        busy_until = now
        for tx in st.recent:
            if (
                tx.start <= now
                and tx.end > busy_until
                and (tx.sender in audible or tx.sender == node)
            ):
                busy_until = tx.end
        if busy_until > now:
            resume = busy_until - now
            jitter = st.backoff_rngs[node].random() * self.slot_time
            st.pending_id[node] = st.push(
                now + (resume + jitter), 0, _ATTEMPT, node
            )
            return
        wait = self.difs + st.backoff_rngs[node].randrange(self.cw) * self.slot_time
        st.pending_id[node] = st.push(now + wait, 0, _FIRE, node, now)

    def _fire(self, st: _SeedState, node: int, now: float, countdown_start: float) -> None:
        st.pending_id[node] = None
        queue = st.csma_queue[node]
        if not queue:
            return
        packet, gated, tag = queue[0]
        if gated and data_gate_at(now, st.offsets[node], self.bi, self.aw) > now:
            self._attempt(st, node, now)
            return
        # ``Channel.busy_during(node, countdown_start, now)``.
        audible = st.audible[node]
        for tx in st.recent:
            if (
                tx.start < now
                and tx.end > countdown_start
                and (tx.sender in audible or tx.sender == node)
            ):
                self._attempt(st, node, now)
                return
        queue.pop(0)
        st.transmitting[node] = True
        self._set_state(st, node, _TX, now)
        duration = packet.size_bytes * 8.0 / self.bit_rate
        transmission = _Transmission(node, packet, now, now + duration)
        st.recent.append(transmission)
        st.max_duration = max(st.max_duration, duration)
        stats = st.channel_stats
        stats.transmissions += 1
        kind = _TAG_KIND_VALUE[tag]
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        # The channel's completion resolves first, then the MAC's (the
        # channel schedules before the transmitter, so its event holds the
        # lower seq); their instants can differ by an ulp, so both delay
        # expressions are transcribed from their sources.
        seq = st.seq
        heapq.heappush(st.heap, (now + duration, 0, seq, _CH_DONE, transmission))
        mac_delay = transmission.end - transmission.start
        heapq.heappush(st.heap, (now + mac_delay, 0, seq + 1, _TX_DONE, node, tag))
        st.seq = seq + 2

    def _tx_done(self, st: _SeedState, node: int, tag: int, now: float) -> None:
        st.transmitting[node] = False
        self.pending[node, st.s] = bool(st.csma_queue[node])
        self._set_state(st, node, self._scheduled_code(st, node, now), now)
        stats = st.mac_stats[node]
        if tag == _TAG_BEACON:
            stats.beacons_sent += 1
        elif tag == _TAG_ATIM:
            stats.atims_sent += 1
        elif tag == _TAG_NORMAL:
            stats.data_sent += 1
            stats.normal_sends += 1
        else:
            stats.data_sent += 1
            stats.immediate_sends += 1
        if (
            not st.transmitting[node]
            and st.pending_id[node] is None
            and st.csma_queue[node]
        ):
            self._attempt(st, node, now)

    # -- channel --------------------------------------------------------------

    def _channel_complete(
        self, st: _SeedState, transmission: _Transmission, now: float
    ) -> None:
        packet = transmission.packet
        stats = st.channel_stats
        s = st.s
        tx_start = transmission.start
        tx_end = transmission.end
        # A reception at r is corrupted iff some *other* transmission with
        # sender r or sender audible at r overlaps this one.  The set of
        # overlapping senders is receiver-independent, so hoist it out of
        # the per-receiver loop (it is empty for most completions).
        overlap_senders = set()
        for other in st.recent:
            if (
                other is not transmission
                and other.start < tx_end
                and other.end > tx_start
            ):
                overlap_senders.add(other.sender)
        if not st.mirror_fresh:
            st.state_l = self.state[:, s].tolist()
            st.since_l = self.state_since[:, s].tolist()
            st.mirror_fresh = True
        state_l = st.state_l
        since_l = st.since_l
        failed = st.failed
        audible = st.audible
        loss_p = st.loss_p
        # Packet attributes are receiver-independent: resolve the kind and
        # the (property-computed) broadcast id once per completion.
        kind = packet.kind
        broadcast_id = packet.broadcast_id if kind is _DATA else ()
        for receiver in st.neighbors[transmission.sender]:
            if (
                failed[receiver]
                or state_l[receiver] != _LISTEN
                or since_l[receiver] > tx_start
            ):
                stats.missed_asleep += 1
                continue
            if overlap_senders and (
                receiver in overlap_senders
                or not overlap_senders.isdisjoint(audible[receiver])
            ):
                stats.collisions += 1
                st.mac_stats[receiver].collisions_heard += 1
                continue
            if loss_p > 0.0 and not (st.loss_rng.random() >= loss_p):
                stats.lost_random += 1
                continue
            stats.deliveries += 1
            self._handle_receive(st, receiver, packet, now, kind, broadcast_id)
        self._prune(st, now)

    def _prune(self, st: _SeedState, now: float) -> None:
        """Drop transmissions no channel query can reach any more.

        The look-back bound of the module docstring: twice the longest
        airtime seen, or ``CsmaConfig.lookback`` if that is longer.
        """
        keep_for = max(2.0 * st.max_duration, self.lookback)
        horizon = now - keep_for
        for tx in st.recent:
            if tx.end < horizon:
                st.recent = [t for t in st.recent if t.end >= horizon]
                return

    # -- event dispatch -------------------------------------------------------

    def _drain(self, st: _SeedState, bound: Tuple[float, int]) -> None:
        """Run the seed's traffic events whose keys sort before ``bound``.

        An event's key is its ``(time, priority, seq, ...)`` tuple.
        ``(t, 0)`` runs the traffic before machinery at ``t``: deaths at
        ``t`` (control priority) run, same-time default-priority traffic
        waits, since its events always hold higher seqs than the machinery
        (see module docstring).  ``(t, 1)`` runs everything through ``t``,
        as ``engine.run(until=t)`` does.
        """
        heap = st.heap
        pending_id = st.pending_id
        pop = heapq.heappop
        while heap and heap[0] < bound:
            event = pop(heap)
            kind = event[3]
            if kind == _ATTEMPT:
                node = event[4]
                if pending_id[node] == event[2]:
                    self._attempt(st, node, event[0])
            elif kind == _FIRE:
                node = event[4]
                if pending_id[node] == event[2]:
                    self._fire(st, node, event[0], event[5])
            elif kind == _CH_DONE:
                self._channel_complete(st, event[4], event[0])
            elif kind == _TX_DONE:
                self._tx_done(st, event[4], event[5], event[0])
            elif kind == _GEN:
                self._generate(st, event[0])
            else:
                self._die(st, event[4], event[0])

    # -- top-level ------------------------------------------------------------

    def run(self) -> List:
        duration = self.duration
        machinery: List[Tuple[float, int, int]] = []
        for gid, group in enumerate(self.groups):
            if group.offset == 0.0:
                # The heap loop runs t=0 window opens synchronously during
                # node start-up, before traffic generation or deaths are
                # scheduled; replicate that seq order here.
                if self._on_bi_start(0.0, group):
                    heapq.heappush(machinery, (0.0 + self.aw, 1, gid))
                    heapq.heappush(machinery, (0.0 + self.bi, 0, gid))
            else:
                heapq.heappush(machinery, (group.offset, 0, gid))
        for st in self.states:
            t = DEFAULT_FIRST_OFFSET
            while t < duration:
                st.push(t, 0, _GEN)
                t += self.cfg.update_interval
        for st in self.states:
            # Checked when the simulator was built.
            for node_id, fail_time in sorted(st.sim._failure_times.items()):
                st.push(fail_time, -1, _DIE, node_id)
        while machinery:
            now, cls, gid = heapq.heappop(machinery)
            if now >= duration:
                # At-or-past-horizon machinery is unobservable: its energy
                # split coincides with the final settlement instant and
                # its coin draws are stream tails nothing consumes after.
                break
            # Seeds share no traffic, so an instant drains only the seeds
            # its group touches; the others catch up at their own next
            # instant, in the same order.
            group = self.groups[gid]
            for s in group.seeds:
                self._drain(self.states[s], (now, 0))
            if cls == 0:
                if self._on_bi_start(now, group):
                    heapq.heappush(machinery, (now + self.aw, 1, gid))
                    heapq.heappush(machinery, (now + self.bi, 0, gid))
            else:
                self._on_window_end(now, group)
        for st in self.states:
            self._drain(st, (duration, 1))
        self._accumulate_bulk(duration, np.ones((self.n, self.S), dtype=bool))
        return [self._result(st) for st in self.states]

    def _result(self, st: _SeedState):
        from repro.detailed.simulator import DetailedResult

        sim = st.sim
        node_joules = [float(j) for j in self.joules[:, st.s]]
        app = CodeDistributionApp(
            Engine(),
            source=st.source,
            n_nodes=self.n,
            update_interval=self.cfg.update_interval,
            k=self.cfg.k,
            packet_size_bytes=self.data_size,
        )
        app.updates = st.updates
        app.receptions = st.receptions
        app._next_update_id = st.next_update_id
        metrics = BroadcastMetrics(
            app,
            sim.topology.hop_distances_from(st.source),
            node_joules,
        )
        return DetailedResult(
            params=sim.params,
            mode=sim.mode,
            config=self.cfg,
            source=st.source,
            topology=sim.topology,
            metrics=metrics,
            channel_stats=st.channel_stats,
            mac_stats=st.mac_stats,
            node_joules=node_joules,
        )


def run_batch(sims, duration: Optional[float] = None) -> List:
    """Run every simulator in ``sims`` through the batched kernel.

    All sims must satisfy :func:`supports_batch` and share a
    configuration and a mode (they may differ in seed, and therefore in
    topology, source, offsets and coin flips).  Returns one
    :class:`~repro.detailed.simulator.DetailedResult` per sim, in order,
    bit-identical to what each ``sim.run(duration)`` heap loop produces.
    """
    if not sims:
        return []
    for sim in sims:
        if not supports_batch(sim):
            raise ValueError(
                "sim not supported by the batched kernel; route through "
                "DetailedSimulator.run() for automatic fallback"
            )
    effective = duration if duration is not None else sims[0].config.duration
    check_positive("duration", effective)
    from repro.obs import get_recorder

    with get_recorder().span(
        "kernel.detailed.batched", seeds=len(sims), duration=effective
    ):
        return _Batch(list(sims), effective).run()
