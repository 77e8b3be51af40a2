"""Heap-loop vs seed-batched parity contract for the detailed simulator.

The seed-batched SoA kernel (:mod:`repro.detailed.batched`) must produce
*bit-identical* :class:`DetailedResult`\\ s to the event-heap reference
loop — same per-node joules (float-for-float), same MAC and channel
counters (including dict insertion order), same reception times — across
schedulers, loss probabilities, perturbation specs and a wide seed
matrix.  This equality is what lets the kernel replace the reference in
every Section 5 campaign without changing a single plotted number.
"""

import dataclasses
import inspect

import pytest

from repro.adaptive import AdaptivePolicy
from repro.core.params import PBBFParams
from repro.detailed.batched import (
    _TAG_IMMEDIATE,
    _Batch,
    fallback_reason,
    run_batch,
    supports_batch,
)
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator
from repro.experiments import Scale
from repro.experiments.pareto_figures import PARETO02_POLICY
from repro.experiments.scenario_figures import frontier_robustness_scenarios
from repro.ideal.simulator import SchedulingMode
from repro.mac.csma import CsmaConfig
from repro.net.channel import Channel
from repro.net.packet import Packet, PacketKind
from repro.scenarios import ClockSkew, ScenarioSpec

CONFIG = CodeDistributionParameters(n_nodes=16, density=9.0, duration=150.0)

OPERATING_POINTS = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25), (0.25, 1.0)]

ALWAYS_ON = SchedulingMode.ALWAYS_ON
NO_PSM = PBBFParams.always_on()


def world(seed, deaths=None, skew=None, config=CONFIG):
    """``config``'s deployment at ``seed`` as a realized scenario, the
    simulator's only source of mid-run deaths and clock skew: with
    ``{node: time}`` deaths and half-normal clock skew of standard
    deviation ``skew`` seconds."""
    spec = ScenarioSpec.build(
        "random",
        {
            "n_nodes": config.n_nodes,
            "density": config.density,
            "radio_range": config.radio_range,
        },
        source="random",
        clock_skew=ClockSkew(skew) if skew else None,
    )
    realized = spec.realize(seed)
    if deaths:
        realized = dataclasses.replace(
            realized, failure_times=tuple(sorted(deaths.items()))
        )
    return realized


def results_pair(seed, params=None, config=CONFIG, **kwargs):
    """(reference, batched) results for one configuration at one seed."""
    params = params if params is not None else PBBFParams(0.5, 0.5)
    reference = DetailedSimulator(
        params, config, seed=seed, **kwargs
    ).run_reference()
    batched = run_batch(
        [DetailedSimulator(params, config, seed=seed, **kwargs)]
    )[0]
    return reference, batched


def assert_batch_matches_reference(make_sim, seeds):
    """One ``run_batch`` call over ``seeds`` equals per-seed heap loops.

    ``make_sim(seed)`` builds a fresh simulator (runs consume streams).
    Returns the batched results.
    """
    batched = run_batch([make_sim(seed) for seed in seeds])
    assert len(batched) == len(seeds)
    for seed, got in zip(seeds, batched):
        assert_identical(make_sim(seed).run_reference(), got)
    return batched


def assert_identical(reference, batched):
    assert reference.node_joules == batched.node_joules
    assert reference.source == batched.source
    assert [vars(s) for s in reference.mac_stats] == [
        vars(s) for s in batched.mac_stats
    ]
    # by_kind is insertion-ordered by first transmission of each kind;
    # the kernel must replicate even that.
    assert list(reference.channel_stats.by_kind.items()) == list(
        batched.channel_stats.by_kind.items()
    )
    ref_chan = {
        k: v for k, v in vars(reference.channel_stats).items() if k != "by_kind"
    }
    got_chan = {
        k: v for k, v in vars(batched.channel_stats).items() if k != "by_kind"
    }
    assert ref_chan == got_chan
    assert reference.n_updates == batched.n_updates
    assert (
        reference.total_data_transmissions()
        == batched.total_data_transmissions()
    )
    rm, gm = reference.metrics, batched.metrics
    assert rm.total_joules() == gm.total_joules()
    assert rm.mean_update_latency() == gm.mean_update_latency()
    assert [
        rm.updates_received_fraction(v) for v in range(reference.config.n_nodes)
    ] == [
        gm.updates_received_fraction(v) for v in range(batched.config.n_nodes)
    ]
    for distance in range(6):
        assert rm.latencies_at_distance(distance) == gm.latencies_at_distance(
            distance
        )


class TestBatchedParity:
    @pytest.mark.parametrize("p,q", OPERATING_POINTS)
    def test_operating_point_matrix_over_20_seeds(self, p, q):
        for seed in range(20):
            assert_identical(*results_pair(seed, PBBFParams(p, q)))

    def test_quick_operating_points(self):
        """The quick tier CI runs on both kernels: 3 points x 3 seeds."""
        for p, q in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.25)]:
            for seed in (0, 1, 2):
                assert_identical(*results_pair(seed, PBBFParams(p, q)))

    @pytest.mark.parametrize("loss", [0.3, 0.6, 1.0])
    def test_loss_probability(self, loss):
        for seed in range(5):
            assert_identical(
                *results_pair(
                    seed, PBBFParams(0.5, 0.25), loss_probability=loss
                )
            )

    def test_quick_loss(self):
        assert_identical(
            *results_pair(3, PBBFParams(0.5, 0.25), loss_probability=0.3)
        )

    def test_midrun_deaths(self):
        deaths = {2: 35.5, 7: 90.0, 11: 111.3}
        for seed in range(5):
            assert_identical(
                *results_pair(
                    seed, PBBFParams(0.5, 0.5), scenario=world(seed, deaths)
                )
            )

    def test_clock_skew(self):
        for seed in range(5):
            assert_identical(
                *results_pair(
                    seed, PBBFParams(0.5, 0.5), scenario=world(seed, skew=0.8)
                )
            )

    def test_combined_perturbations(self):
        for seed in range(3):
            assert_identical(
                *results_pair(
                    seed,
                    PBBFParams(0.25, 0.75),
                    loss_probability=0.2,
                    scenario=world(seed, {3: 60.0}, skew=0.5),
                )
            )

    def test_quick_scenario(self):
        """Scenario-resolved worlds (pre-failures + realized topology)."""
        spec = ScenarioSpec.build("grid", {"side": 5}, failure_fraction=0.2)
        for seed in (21, 22):
            realized = spec.realize(seed)
            config = CodeDistributionParameters.for_topology(
                realized.topology, duration=120.0
            )
            assert_identical(
                *results_pair(
                    seed, PBBFParams(0.5, 0.5), config=config, scenario=realized
                )
            )

    def test_one_kernel_call_for_many_seeds(self):
        """run_batch over a seed list equals per-seed reference runs."""
        seeds = range(8)
        sims = [
            DetailedSimulator(PBBFParams(0.5, 0.25), CONFIG, seed=s)
            for s in seeds
        ]
        batched = run_batch(sims)
        for seed, got in zip(seeds, batched):
            ref = DetailedSimulator(
                PBBFParams(0.5, 0.25), CONFIG, seed=seed
            ).run_reference()
            assert_identical(ref, got)


class TestSkewedSeedBatches:
    """Skewed worlds with many seeds in one kernel call.

    Clock skew gives every (node, seed) cell its own schedule offset, so
    each cell is a machinery group of its own, run as scalar code beside
    the other seeds' cells.
    """

    def test_scen04_perturbed_world(self):
        scale = Scale.fast()
        spec = dict(frontier_robustness_scenarios(scale))["perturbed"]
        for p, q in [(0.1, 0.25), (0.5, 0.5), (0.1, 1.0)]:

            def make_sim(seed):
                realized = spec.realize(seed)
                config = CodeDistributionParameters.for_topology(
                    realized.topology,
                    duration=scale.detailed_scenario_duration,
                )
                return DetailedSimulator(
                    PBBFParams(p, q), config, seed=seed, scenario=realized
                )

            assert_batch_matches_reference(make_sim, range(4))

    def test_quick_skew_with_death(self):
        assert_batch_matches_reference(
            lambda seed: DetailedSimulator(
                PBBFParams(0.5, 0.5),
                CONFIG,
                seed=seed,
                scenario=world(seed, {5: 70.0}, skew=0.8),
            ),
            range(6),
        )

    def test_mixed_offset_groups(self):
        """Start-up, shared and per-seed offsets in one batch.

        Nodes 0-3 sit at offset 0.0 (their first window opens during
        start-up), nodes 4-7 share offset 2.5 in every seed (one group of
        16 cells) and every other cell has an offset of its own.
        """
        realized = ScenarioSpec.build("grid", {"side": 4}).realize(0)
        config = CodeDistributionParameters.for_topology(
            realized.topology, duration=150.0
        )

        def offsets(seed):
            return tuple(
                0.0 if node < 4 else 2.5 if node < 8 else
                1.0 + 0.7 * node + 0.1 * seed
                for node in range(16)
            )

        def make_sim(seed):
            world = dataclasses.replace(realized, clock_offsets=offsets(seed))
            return DetailedSimulator(
                PBBFParams(0.5, 0.25), config, seed=seed, scenario=world
            )

        seeds = range(4)
        sizes = sorted(
            len(group.cells)
            for group in _Batch([make_sim(s) for s in seeds], 150.0).groups
        )
        assert sizes == [1] * 32 + [16, 16]
        assert_batch_matches_reference(make_sim, seeds)


#: Controller policies for the adaptive parity matrix: the default,
#: pareto02's, and one with a high activity target and a zero miss target
#: that keeps p and q moving every window.
ADAPTIVE_POLICIES = {
    "default": AdaptivePolicy(),
    "pareto02": PARETO02_POLICY,
    "restless": AdaptivePolicy(
        p_min=0.1,
        p_step=0.1,
        q_min=0.2,
        q_step=0.02,
        activity_target=3.0,
        miss_target=0.0,
    ),
}

#: Worlds for the adaptive parity matrix: simulator keyword arguments
#: at one seed.
ADAPTIVE_WORLDS = {
    "nominal": lambda seed: {},
    "loss": lambda seed: {"loss_probability": 0.3},
    "skew and death": lambda seed: {
        "scenario": world(seed, {5: 70.0}, skew=0.8)
    },
}


class TestAdaptiveParity:
    """``DetailedSimulator(adaptive=...)`` runs the controller in the kernel.

    Per-node (p, q) adjust at every window end from the window's counts,
    exactly as each node's :class:`AdaptivePBBFAgent` does in the heap
    loop.
    """

    @pytest.mark.parametrize("world", sorted(ADAPTIVE_WORLDS))
    @pytest.mark.parametrize("policy", sorted(ADAPTIVE_POLICIES))
    @pytest.mark.parametrize(
        "p,q", [(0.0, 0.0), (0.5, 0.05), (0.25, 0.5), (1.0, 1.0)]
    )
    def test_matrix_over_4_seeds(self, p, q, policy, world):
        assert_batch_matches_reference(
            lambda seed: DetailedSimulator(
                PBBFParams(p, q),
                CONFIG,
                seed=seed,
                adaptive=ADAPTIVE_POLICIES[policy],
                **ADAPTIVE_WORLDS[world](seed),
            ),
            range(4),
        )

    def test_quick_adaptive(self):
        batched = assert_batch_matches_reference(
            lambda seed: DetailedSimulator(
                PBBFParams(0.5, 0.05),
                CONFIG,
                seed=seed,
                adaptive=PARETO02_POLICY,
            ),
            range(3),
        )
        # The controller moved the run off its static start point.
        static = run_batch(
            [
                DetailedSimulator(PBBFParams(0.5, 0.05), CONFIG, seed=seed)
                for seed in range(3)
            ]
        )
        assert [r.node_joules for r in batched] != [
            r.node_joules for r in static
        ]


class TestAlwaysOnParity:
    """The NO PSM baseline: no machinery, every fresh frame floods at once."""

    def test_20_seeds(self):
        for seed in range(20):
            assert_identical(*results_pair(seed, NO_PSM, mode=ALWAYS_ON))

    def test_quick_always_on(self):
        for seed in (0, 1, 2):
            assert_identical(*results_pair(seed, NO_PSM, mode=ALWAYS_ON))

    def test_loss_probability(self):
        for seed in range(5):
            assert_identical(
                *results_pair(
                    seed, NO_PSM, mode=ALWAYS_ON, loss_probability=0.3
                )
            )

    def test_midrun_deaths(self):
        deaths = {2: 35.5, 7: 90.0, 11: 111.3}
        for seed in range(5):
            assert_identical(
                *results_pair(
                    seed, NO_PSM, mode=ALWAYS_ON, scenario=world(seed, deaths)
                )
            )

    def test_death_mid_transmission(self, monkeypatch):
        # Kill a relay as its first frame starts, while it is on the air,
        # and as it ends.  A frame already on the air still completes and
        # counts as sent; the radio sleeps from the death on.
        on_air = []
        transmit = Channel.transmit

        def recording_transmit(channel, sender, packet):
            transmission = transmit(channel, sender, packet)
            on_air.append(transmission)
            return transmission

        monkeypatch.setattr(Channel, "transmit", recording_transmit)
        traced = DetailedSimulator(
            NO_PSM, CONFIG, seed=4, mode=ALWAYS_ON, scenario=world(4)
        )
        traced.run_reference()
        monkeypatch.undo()
        tx = next(t for t in on_air if t.sender != traced.source)
        airtime = CONFIG.total_packet_bytes * 8.0 / CONFIG.bit_rate_bps
        sent = []
        for fail_time in (tx.start, tx.start + airtime / 2, tx.start + airtime):
            ref, got = results_pair(
                4, NO_PSM, mode=ALWAYS_ON,
                scenario=world(4, {tx.sender: fail_time}),
            )
            assert_identical(ref, got)
            sent.append(got.mac_stats[tx.sender].data_sent)
        # A death at the start instant precedes the frame (control
        # priority); mid-air it does not stop it.
        assert sent[0] == 0 and sent[1] == 1

    def test_pre_failed_scenario(self):
        spec = ScenarioSpec.build("grid", {"side": 5}, failure_fraction=0.2)
        for seed in (21, 22):
            realized = spec.realize(seed)
            config = CodeDistributionParameters.for_topology(
                realized.topology, duration=120.0
            )
            ref, got = results_pair(
                seed, NO_PSM, config=config, mode=ALWAYS_ON, scenario=realized
            )
            assert_identical(ref, got)
            asleep = config.power.sleep_w * config.duration
            for node in realized.failed_nodes:
                assert got.node_joules[node] == asleep

    def test_one_kernel_call_for_many_seeds(self):
        seeds = range(8)
        sims = [
            DetailedSimulator(NO_PSM, CONFIG, seed=s, mode=ALWAYS_ON)
            for s in seeds
        ]
        for seed, got in zip(seeds, run_batch(sims)):
            ref = DetailedSimulator(
                NO_PSM, CONFIG, seed=seed, mode=ALWAYS_ON
            ).run_reference()
            assert_identical(ref, got)

    def test_mixed_mode_batch_is_rejected(self):
        sims = [
            DetailedSimulator(PBBFParams(0.5, 0.5), CONFIG, seed=0),
            DetailedSimulator(NO_PSM, CONFIG, seed=1, mode=ALWAYS_ON),
        ]
        with pytest.raises(ValueError, match="mode"):
            run_batch(sims)


class TestBatchedScope:
    """Out-of-scope configurations fall back to the reference loop."""

    @pytest.mark.parametrize("scheduler", ["smac", "tmac"])
    def test_extension_schedulers_fall_back(self, scheduler):
        sim = DetailedSimulator(
            PBBFParams(0.5, 0.5), CONFIG, seed=1, scheduler=scheduler
        )
        assert not supports_batch(sim)
        # run() silently takes the reference path and agrees with it.
        fresh = DetailedSimulator(
            PBBFParams(0.5, 0.5), CONFIG, seed=1, scheduler=scheduler
        )
        assert sim.run().node_joules == fresh.run_reference().node_joules

    def test_fallback_reasons(self):
        def reason(**kwargs):
            return DetailedSimulator(
                PBBFParams(0.5, 0.5), CONFIG, seed=1, **kwargs
            ).fallback_reason()

        assert reason() is None
        assert reason(mode=ALWAYS_ON) is None
        # The heap loop ignores the scheduler in ALWAYS_ON mode.
        assert reason(mode=ALWAYS_ON, scheduler="smac") is None
        assert reason(scheduler="tmac") == "scheduler"

    @pytest.mark.parametrize("scheduler", ["psm", "smac", "tmac"])
    @pytest.mark.parametrize("mode", list(SchedulingMode))
    def test_fallback_reason_by_mode_and_scheduler(self, mode, scheduler):
        """S-MAC and T-MAC are the whole fallback; NO PSM has none."""
        expected = (
            "scheduler"
            if mode is SchedulingMode.PSM_PBBF and scheduler != "psm"
            else None
        )
        assert fallback_reason(mode, scheduler) == expected
        sim = DetailedSimulator(
            PBBFParams(0.5, 0.5), CONFIG, seed=1, mode=mode, scheduler=scheduler
        )
        assert sim.fallback_reason() == expected

    def test_fallback_reason_takes_mode_and_scheduler_only(self):
        assert list(inspect.signature(fallback_reason).parameters) == [
            "mode",
            "scheduler",
        ]

    @pytest.mark.parametrize(
        "removed",
        ["agent_factory", "mac_factory", "tracer", "clock_skew_std",
         "node_failures"],
    )
    def test_removed_arguments_are_rejected(self, removed):
        """Deaths and skew come from the scenario; the MACs, agents and
        frames are the simulator's own."""
        with pytest.raises(TypeError):
            DetailedSimulator(
                PBBFParams(0.5, 0.5), CONFIG, seed=0, **{removed: None}
            )

    def test_fast_path_is_not_a_constructor_argument(self):
        """No option selects the kernel: ``run`` decides by scope alone."""
        with pytest.raises(TypeError):
            DetailedSimulator(PBBFParams(0.5, 0.5), CONFIG, seed=0, fast_path=False)

    def test_run_batch_rejects_unsupported(self):
        sim = DetailedSimulator(
            PBBFParams(0.5, 0.5), CONFIG, seed=1, scheduler="smac"
        )
        with pytest.raises(ValueError):
            run_batch([sim])

    def test_run_batch_empty(self):
        assert run_batch([]) == []


class TestBatchedEnergyBookkeeping:
    """Per-slot charge accounting must sum to the heap loop exactly."""

    def test_node_dying_mid_window_charges_identically(self):
        # Deaths inside the ATIM window (t % 10 < 1) and inside the data
        # phase both truncate the charge integral at the same instants
        # the heap loop's set_state calls would.
        deaths = {1: 40.3, 4: 70.5, 9: 100.2}
        for seed in range(5):
            ref, got = results_pair(
                seed, PBBFParams(0.5, 0.5), scenario=world(seed, deaths)
            )
            assert ref.node_joules == got.node_joules
            assert sum(ref.node_joules) == sum(got.node_joules)

    def test_death_at_atim_window_boundary(self):
        for fail_time in (30.0, 30.999, 31.0):
            ref, got = results_pair(
                2, PBBFParams(0.5, 0.5), scenario=world(2, {5: fail_time})
            )
            assert ref.node_joules == got.node_joules

    def test_skewed_schedules_charge_identically(self):
        # Skewed nodes accumulate at machinery instants of their own
        # offset group; totals must still match float-for-float.
        for seed in range(5):
            ref, got = results_pair(
                seed, PBBFParams(0.25, 0.25), scenario=world(seed, skew=1.5)
            )
            assert ref.node_joules == got.node_joules
            assert sum(ref.node_joules) == sum(got.node_joules)

    def test_pre_failed_nodes_sleep_from_boot(self):
        spec = ScenarioSpec.build("grid", {"side": 4}, failure_fraction=0.3)
        realized = spec.realize(7)
        config = CodeDistributionParameters.for_topology(
            realized.topology, duration=100.0
        )
        ref, got = results_pair(
            7, PBBFParams(0.5, 0.5), config=config, scenario=realized
        )
        assert ref.node_joules == got.node_joules
        sleep_w = config.power.sleep_w
        for node in realized.failed_nodes:
            assert got.node_joules[node] == sleep_w * config.duration


class TestLookBack:
    """The kernel keeps every frame a channel query can still reach.

    Parity runs cannot show a retention bound that is too short: the
    frames it drops too early are seldom still asked about.  So this
    drives the kernel's CSMA by hand through the longest query there is.
    """

    def test_quick_frame_heard_early_in_the_longest_countdown(self):
        batch = _Batch(
            [DetailedSimulator(PBBFParams(0.5, 0.5), CONFIG, seed=0)],
            CONFIG.duration,
        )
        st = batch.states[0]
        node = 0
        neighbor = st.neighbors[node][0]

        def queue(sender, size):
            packet = Packet(
                kind=PacketKind.DATA,
                origin=sender,
                seqno=0,
                size_bytes=size,
            )
            entry = (packet, False, _TAG_IMMEDIATE)
            st.csma_queue[sender].append(entry)
            return entry

        countdown_start = 12.0
        # A 64-byte frame (26.7 ms) sets the longest airtime seen ...
        queue(neighbor, 64)
        batch._fire(st, neighbor, countdown_start - 1.0, countdown_start - 1.0)
        # ... and an audible 28-byte frame (11.7 ms) starts 1 ms after the
        # node's countdown began.
        queue(neighbor, 28)
        batch._fire(st, neighbor, countdown_start + 0.001, countdown_start + 0.001)
        short = st.recent[-1]
        # The countdown is maximal, DIFS + (cw - 1) slots (67 ms), so twice
        # the longest airtime does not reach back to the short frame.
        csma = CsmaConfig()
        fire = countdown_start + (
            csma.difs + (csma.contention_window - 1) * csma.slot_time
        )
        assert short.end < fire - 2.0 * st.max_duration
        batch._prune(st, fire)
        assert short in st.recent
        # The fire finds the medium was busy: nothing is sent, and the
        # frame contends again.
        entry = queue(node, 64)
        batch._fire(st, node, fire, countdown_start)
        assert st.channel_stats.transmissions == 2
        assert st.csma_queue[node] == [entry]
        assert st.pending_id[node] is not None
