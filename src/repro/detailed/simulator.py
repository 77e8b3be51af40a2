"""Scenario assembly and execution for the Section 5 study.

A :class:`DetailedSimulator` is a pure function of ``(params, config,
seed, mode)``: the same inputs rebuild the same deployment, the same
traffic, and the same coin flips, which is what makes the paired
protocol comparisons in Figures 13-18 meaningful.

``DetailedSimulator.run`` takes the seed-batched kernel whenever the
configuration is in its scope; ``run_reference`` is the event-heap loop,
its bit-identical oracle, called by name and never by an option.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.adaptive import AdaptivePBBFAgent, AdaptivePolicy
from repro.apps.code_distribution import CodeDistributionApp
from repro.apps.metrics import BroadcastMetrics
from repro.core.params import PBBFParams
from repro.core.pbbf import PBBFAgent
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.node import AnyMac, SensorNode
from repro.energy.model import RadioEnergyModel
from repro.ideal.simulator import SchedulingMode
from repro.mac.always_on import AlwaysOnMac
from repro.mac.base import MacConfig, MacStats
from repro.mac.csma import CsmaConfig
from repro.mac.pbbf import PBBFMac
from repro.mac.smac import SMacConfig, SMacPBBF
from repro.mac.tmac import TMacConfig, TMacPBBF
from repro.net.channel import Channel, ChannelStats
from repro.net.propagation import LossModel
from repro.net.topology import RandomTopology, Topology
from repro.scenarios import RealizedScenario
from repro.sim.engine import CONTROL_PRIORITY, Engine
from repro.util.rng import RandomStreams


@dataclass
class DetailedResult:
    """Everything measured from one detailed run."""

    params: PBBFParams
    mode: SchedulingMode
    config: CodeDistributionParameters
    source: int
    topology: Topology
    metrics: BroadcastMetrics
    channel_stats: ChannelStats
    mac_stats: List[MacStats]
    node_joules: List[float]
    # Aggregates reduced once on first access; the analysis layer reads
    # them inside tight loops over whole campaigns.
    _n_updates: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _total_data_transmissions: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_updates(self) -> int:
        """Updates generated at the source during the run."""
        if self._n_updates is None:
            self._n_updates = self.metrics.n_updates
        return self._n_updates

    def total_data_transmissions(self) -> int:
        """Data frames put on the air across all nodes."""
        if self._total_data_transmissions is None:
            self._total_data_transmissions = sum(
                stats.data_sent for stats in self.mac_stats
            )
        return self._total_data_transmissions


class DetailedSimulator:
    """Builds and runs one code-distribution scenario.

    Parameters
    ----------
    params:
        PBBF's (p, q); use ``PBBFParams.psm()`` for the PSM baseline.
    config:
        Scenario parameters (Table 2 defaults).
    seed:
        Root seed; deployment, source choice, traffic and every coin flip
        derive from it.
    mode:
        ``PSM_PBBF`` (default) or ``ALWAYS_ON`` (the "NO PSM" baseline,
        where ``params`` is ignored).
    topology:
        Optional pre-built topology (tests use small deterministic ones);
        by default a connected random deployment is sampled from the seed.
    loss_probability:
        Optional independent per-reception loss (failure injection).
    scheduler:
        Which sleep scheduler carries PBBF: ``"psm"`` (the paper's
        802.11 PSM, default), ``"smac"`` or ``"tmac"`` (the extension
        schedulers demonstrating PBBF's portability).  Ignored in
        ``ALWAYS_ON`` mode.
    scenario:
        A :class:`~repro.scenarios.RealizedScenario` (from
        ``ScenarioSpec.realize``) supplying the whole world at once:
        topology, source, pre-broadcast failed nodes, the mid-run death
        schedule and per-node clock offsets.  Mutually exclusive with
        ``topology``.  It is the only source of deaths and skew: inject
        them through the spec's perturbations, or through
        ``dataclasses.replace`` on the realized world.  The death
        schedule is checked here, once: every node in range, every time
        finite and non-negative.  Scenario clock offsets model the PSM
        schedule phase; a skew-carrying scenario on any other
        scheduler/mode raises rather than silently caching nominal
        results under the perturbed token.
    adaptive:
        Optional :class:`~repro.adaptive.AdaptivePolicy`: every node runs
        the self-tuning controller, an
        :class:`~repro.adaptive.AdaptivePBBFAgent` starting at ``params``
        and drawing from the node's own stream.

    :meth:`run` takes the seed-batched kernel (:mod:`repro.detailed.batched`)
    in either mode, static or ``adaptive``; S-MAC and T-MAC run on the
    heap loop, and :meth:`fallback_reason` says so.  :meth:`run_reference`
    runs the heap loop directly.  Results are bit-identical either way.
    """

    def __init__(
        self,
        params: PBBFParams,
        config: Optional[CodeDistributionParameters] = None,
        seed: int = 0,
        mode: SchedulingMode = SchedulingMode.PSM_PBBF,
        topology: Optional[Topology] = None,
        loss_probability: float = 0.0,
        scheduler: str = "psm",
        scenario: Optional[RealizedScenario] = None,
        adaptive: Optional[AdaptivePolicy] = None,
    ) -> None:
        if scheduler not in ("psm", "smac", "tmac"):
            raise ValueError(
                f"scheduler must be 'psm', 'smac' or 'tmac', got {scheduler!r}"
            )
        if scenario is not None and topology is not None:
            raise ValueError(
                "pass either a realized scenario or an explicit topology, "
                "not both"
            )
        if scenario is not None and scenario.clock_offsets and (
            mode is not SchedulingMode.PSM_PBBF or scheduler != "psm"
        ):
            # Only the PSM MAC models a schedule phase; running a
            # skew-carrying token on any other MAC would cache results
            # bit-identical to the nominal world under the perturbed key.
            raise ValueError(
                "scenario clock_skew is only supported on the PSM "
                f"scheduler (got scheduler={scheduler!r}, "
                f"mode={mode.value!r})"
            )
        self.scenario = scenario
        self.scheduler = scheduler
        self.adaptive = adaptive
        self._failure_times: Dict[int, float] = (
            dict(scenario.failure_times) if scenario is not None else {}
        )
        self._clock_offsets = (
            scenario.clock_offsets if scenario is not None else ()
        )
        self._pre_failed = (
            frozenset(scenario.failed_nodes) if scenario is not None else frozenset()
        )
        self.params = params
        if config is None:
            if scenario is not None:
                config = CodeDistributionParameters.for_topology(scenario.topology)
            else:
                config = CodeDistributionParameters()
        elif scenario is not None and config.n_nodes != scenario.topology.n_nodes:
            raise ValueError(
                f"config.n_nodes ({config.n_nodes}) contradicts the realized "
                f"scenario ({scenario.topology.n_nodes} nodes)"
            )
        self.config = config
        self.mode = mode
        self._streams = RandomStreams(seed)
        if scenario is not None:
            topology = scenario.topology
        elif topology is None:
            topology = RandomTopology.connected(
                self.config.n_nodes,
                self.config.radio_range,
                self.config.density,
                self._streams.stream("placement"),
            )
        self.topology = topology
        _check_failure_times(self._failure_times, topology.n_nodes)
        if scenario is not None:
            # The scenario's source policy already chose (and its streams
            # already drew) the source; the legacy "source" stream stays
            # untouched, so named-stream consumption elsewhere is stable.
            self.source = scenario.source
        else:
            # "One random node is chosen to be the broadcast and code
            # distribution source for each scenario."
            self.source = self._streams.stream("source").randrange(
                topology.n_nodes
            )
        self._loss_probability = loss_probability

    def fallback_reason(self) -> Optional[str]:
        """Why :meth:`run` takes the heap loop, or ``None`` if it batches.

        See :func:`repro.detailed.batched.fallback_reason`.
        """
        from repro.detailed.batched import fallback_reason

        return fallback_reason(self.mode, self.scheduler)

    def run(self, duration: Optional[float] = None) -> DetailedResult:
        """Execute the scenario and return its measurements.

        Routes through the seed-batched kernel
        (:mod:`repro.detailed.batched`) when the configuration is in its
        scope — bit-identical to the heap loop — and falls back to
        :meth:`run_reference` otherwise.
        """
        if self.fallback_reason() is None:
            from repro.detailed.batched import run_batch

            return run_batch([self], duration=duration)[0]
        return self.run_reference(duration)

    def run_reference(self, duration: Optional[float] = None) -> DetailedResult:
        """Execute via the event-heap reference loop (the parity baseline).

        Its telemetry span records why the reference ran: a scope reason
        from :meth:`fallback_reason`, or ``"forced"`` for an in-scope run
        (a degraded campaign attempt or a direct call).
        """
        duration = duration if duration is not None else self.config.duration
        cfg = self.config
        engine = Engine()
        channel = Channel(
            engine,
            self.topology,
            cfg.bit_rate_bps,
            loss_model=LossModel(
                self._loss_probability, self._streams.stream("loss")
            ),
        )
        app = CodeDistributionApp(
            engine,
            source=self.source,
            n_nodes=self.topology.n_nodes,
            update_interval=cfg.update_interval,
            k=cfg.k,
            packet_size_bytes=cfg.total_packet_bytes,
        )
        mac_config = MacConfig(
            beacon_interval=cfg.beacon_interval,
            atim_window=cfg.atim_window,
            bit_rate_bps=cfg.bit_rate_bps,
            data_size_bytes=cfg.total_packet_bytes,
        )
        csma_config = CsmaConfig()
        nodes: List[SensorNode] = []
        n = self.topology.n_nodes
        for node_id in range(n):
            radio = RadioEnergyModel(cfg.power, start_time=engine.now)
            deliver = app.delivery_callback(node_id)
            backoff_rng = self._streams.stream(f"node.{node_id}.backoff")
            mac: AnyMac
            if self.mode is SchedulingMode.ALWAYS_ON:
                mac = AlwaysOnMac(
                    engine, channel, node_id, radio, deliver, backoff_rng,
                    csma_config=csma_config,
                )
            else:
                agent_rng = self._streams.stream(f"node.{node_id}.pbbf")
                if self.adaptive is not None:
                    agent: PBBFAgent = AdaptivePBBFAgent(
                        self.params, agent_rng, self.adaptive
                    )
                else:
                    agent = PBBFAgent(self.params, agent_rng)
                if self.scheduler == "smac":
                    mac = SMacPBBF(
                        engine, channel, node_id, agent, radio, deliver,
                        backoff_rng,
                        config=SMacConfig(
                            frame_time=cfg.beacon_interval,
                            listen_time=cfg.atim_window,
                        ),
                        csma_config=csma_config,
                    )
                elif self.scheduler == "tmac":
                    mac = TMacPBBF(
                        engine, channel, node_id, agent, radio, deliver,
                        backoff_rng,
                        config=TMacConfig(frame_time=cfg.beacon_interval),
                        csma_config=csma_config,
                    )
                else:
                    mac = PBBFMac(
                        engine,
                        channel,
                        node_id,
                        agent,
                        radio,
                        deliver,
                        backoff_rng,
                        config=mac_config,
                        csma_config=csma_config,
                        beacon_duty=_round_robin_beacon_duty(node_id, n),
                        clock_offset=(
                            self._clock_offsets[node_id]
                            if self._clock_offsets
                            else 0.0
                        ),
                    )
            node = SensorNode(node_id, radio, mac)
            channel.attach(node_id, node)
            nodes.append(node)
        for node in nodes:
            if node.node_id in self._pre_failed:
                # Dead before the first broadcast: the MAC never starts,
                # the radio sleeps from t=0, and the node counts as
                # unreached in every delivery metric.
                node.fail()
            else:
                node.mac.start()
        app.bind_source_mac(nodes[self.source].mac)
        app.start(duration)
        for node_id, fail_time in sorted(self._failure_times.items()):
            # Deaths are first-class heap events at control priority: a
            # node dying at t is silenced before any same-instant frame.
            engine.schedule_at(
                fail_time, nodes[node_id].fail, priority=CONTROL_PRIORITY
            )
        from repro.obs import get_recorder

        with get_recorder().span(
            "kernel.detailed.reference",
            nodes=self.topology.n_nodes,
            duration=duration,
            reason=self.fallback_reason() or "forced",
        ):
            engine.run(until=duration)
        node_joules = [node.radio.consumed_joules(duration) for node in nodes]
        metrics = BroadcastMetrics(
            app,
            self.topology.hop_distances_from(self.source),
            node_joules,
        )
        return DetailedResult(
            params=self.params,
            mode=self.mode,
            config=cfg,
            source=self.source,
            topology=self.topology,
            metrics=metrics,
            channel_stats=channel.stats,
            mac_stats=[node.mac.stats for node in nodes],
            node_joules=node_joules,
        )


def _check_failure_times(failure_times: Dict[int, float], n_nodes: int) -> None:
    """Reject a death schedule neither loop could run.

    Every node must be in the topology and every time finite and
    non-negative; both loops then schedule the deaths unchecked.
    """
    for node_id, fail_time in failure_times.items():
        if not 0 <= node_id < n_nodes:
            raise IndexError(
                f"failing node {node_id} outside topology of {n_nodes} nodes"
            )
        if not (math.isfinite(fail_time) and fail_time >= 0.0):
            raise ValueError(
                f"death time of node {node_id} must be finite and >= 0, "
                f"got {fail_time}"
            )


def _round_robin_beacon_duty(node_id: int, n_nodes: int):
    """Each beacon interval gets exactly one beacon sender, round robin."""

    def duty(bi_index: int) -> bool:
        return bi_index % n_nodes == node_id

    return duty
