"""Invariants both detailed loops keep in worlds where nodes die.

The parity tests show that the seed-batched kernel equals the heap loop;
these show what each loop must satisfy on its own.  Every world carries
pre-failed nodes and a mid-run death schedule.  The heap loop runs under
each MAC the simulator builds (PSM, S-MAC, T-MAC and NO PSM), and the
kernel under the two it runs (PSM and NO PSM).
"""

import functools

import pytest

from repro.core.params import PBBFParams
from repro.detailed.batched import run_batch
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator
from repro.ideal.simulator import SchedulingMode
from repro.scenarios import FailureTimes, Perturbations, ScenarioSpec

PSM_PBBF = SchedulingMode.PSM_PBBF
ALWAYS_ON = SchedulingMode.ALWAYS_ON

#: Nodes dead before the first broadcast, and more dying while updates
#: are still flooding (updates are generated every 100 s from t = 0.01).
FAILURES = Perturbations(
    failure_fraction=0.1, failure_times=FailureTimes(0.2, 60.0, 250.0)
)

WORLDS = {
    "random": ScenarioSpec.build(
        "random", {"n_nodes": 30}, source="random", perturbations=FAILURES
    ),
    "grid_holes": ScenarioSpec.build(
        "grid_holes", {"side": 6}, perturbations=FAILURES
    ),
    "clustered": ScenarioSpec.build(
        "clustered",
        {"n_clusters": 3, "cluster_size": 8},
        source="random",
        perturbations=FAILURES,
    ),
}

#: Which loop runs, in which mode, on which scheduler.
CONFIGURATIONS = {
    "heap PSM": ("heap", PSM_PBBF, "psm"),
    "heap S-MAC": ("heap", PSM_PBBF, "smac"),
    "heap T-MAC": ("heap", PSM_PBBF, "tmac"),
    "heap NO PSM": ("heap", ALWAYS_ON, "psm"),
    "kernel PSM": ("kernel", PSM_PBBF, "psm"),
    "kernel NO PSM": ("kernel", ALWAYS_ON, "psm"),
}

SEEDS = (1, 2)
DURATION = 400.0


@functools.lru_cache(maxsize=None)
def runs(configuration, world):
    """``(realized world, result)`` for each seed, run once per module."""
    loop, mode, scheduler = CONFIGURATIONS[configuration]
    params = PBBFParams(0.25, 0.5) if mode is PSM_PBBF else PBBFParams.always_on()
    worlds = [WORLDS[world].realize(seed) for seed in SEEDS]
    sims = [
        DetailedSimulator(
            params,
            CodeDistributionParameters.for_topology(
                realized.topology, duration=DURATION
            ),
            seed=seed,
            mode=mode,
            scheduler=scheduler,
            scenario=realized,
        )
        for seed, realized in zip(SEEDS, worlds)
    ]
    if loop == "kernel":
        results = run_batch(sims)
    else:
        results = [sim.run_reference() for sim in sims]
    return list(zip(worlds, results))


parametrize_runs = pytest.mark.parametrize(
    "configuration,world",
    [(c, w) for c in CONFIGURATIONS for w in WORLDS],
)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_worlds_carry_both_kinds_of_failure(world):
    """Each world exercises the invariants: nodes dead from the start,
    nodes dying mid-run, and updates that still reach someone."""
    for realized, result in runs("heap PSM", world):
        assert realized.failed_nodes and realized.failure_times
        receptions = result.metrics._app.receptions
        assert sum(len(r) for r in receptions.values()) > result.n_updates


@parametrize_runs
def test_pre_failed_node_records_nothing(configuration, world):
    for realized, result in runs(configuration, world):
        receptions = result.metrics._app.receptions
        for node in realized.failed_nodes:
            assert receptions[node] == {}
            assert not any(vars(result.mac_stats[node]).values())


@parametrize_runs
def test_no_reception_at_or_after_death(configuration, world):
    for realized, result in runs(configuration, world):
        receptions = result.metrics._app.receptions
        for node, died_at in realized.failure_times:
            assert all(t < died_at for t in receptions[node].values())


@parametrize_runs
def test_no_reception_before_its_update_is_generated(configuration, world):
    for realized, result in runs(configuration, world):
        app = result.metrics._app
        generated = {u.update_id: u.generated_at for u in app.updates}
        for node, records in app.receptions.items():
            for update_id, t in records.items():
                if node == realized.source:
                    assert t == generated[update_id]
                else:
                    # A frame spends its airtime on the channel.
                    assert t > generated[update_id]


@parametrize_runs
def test_no_relay_handles_more_frames_than_updates(configuration, world):
    """At k = 1 each update is one broadcast, accepted and forwarded at
    most once per node."""
    for realized, result in runs(configuration, world):
        assert result.config.k == 1
        for node, stats in enumerate(result.mac_stats):
            if node == realized.source:
                continue
            assert stats.data_received <= result.n_updates
            assert stats.data_sent <= result.n_updates
