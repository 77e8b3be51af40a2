"""Extension bench: robustness under clock skew and node failures.

The paper assumes perfect synchronisation and immortal nodes.  This bench
quantifies what each assumption is worth: delivery as a function of clock
skew, and the blast radius of killing relay nodes mid-run.  Both come
from the realized scenario, the simulator's only source of either: skew
as a :class:`~repro.scenarios.ClockSkew` perturbation, the deaths as a
hand-written schedule put on the realized world.
"""

import dataclasses

import pytest

from repro.core.params import PBBFParams
from repro.detailed.config import CodeDistributionParameters
from repro.detailed.simulator import DetailedSimulator
from repro.scenarios import ClockSkew, ScenarioSpec

CONFIG = CodeDistributionParameters(n_nodes=25, density=10.0, duration=300.0)
WORLD = {
    "n_nodes": CONFIG.n_nodes,
    "density": CONFIG.density,
    "radio_range": CONFIG.radio_range,
}
SKEWS = (0.0, 1.0, 4.0)
SEEDS = (3, 4)


def _world(seed: int, skew: float = 0.0):
    """CONFIG's deployment at ``seed``; skew 0 is the nominal world."""
    return ScenarioSpec.build(
        "random",
        WORLD,
        source="random",
        clock_skew=ClockSkew(skew) if skew > 0.0 else None,
    ).realize(seed)


def _delivery_at_skew(skew: float, q: float) -> float:
    values = []
    for seed in SEEDS:
        result = DetailedSimulator(
            PBBFParams(p=0.0, q=q), CONFIG, seed=seed,
            scenario=_world(seed, skew),
        ).run()
        values.append(result.metrics.mean_updates_received_fraction())
    return sum(values) / len(values)


def _delivery_with_failures(n_failures: int) -> float:
    values = []
    for seed in SEEDS:
        realized = _world(seed)
        victims = [
            node for node in range(CONFIG.n_nodes) if node != realized.source
        ][:n_failures]
        failing = dataclasses.replace(
            realized, failure_times=tuple((v, 100.0) for v in victims)
        )
        result = DetailedSimulator(
            PBBFParams.psm(), CONFIG, seed=seed, scenario=failing
        ).run()
        values.append(result.metrics.mean_updates_received_fraction())
    return sum(values) / len(values)


def test_ext_sync_and_failures(benchmark):
    results = benchmark.pedantic(
        lambda: {
            "skew_psm": {s: _delivery_at_skew(s, q=0.0) for s in SKEWS},
            "skew_q1": {s: _delivery_at_skew(s, q=1.0) for s in SKEWS},
            "failures": {n: _delivery_with_failures(n) for n in (0, 3, 6)},
        },
        rounds=1,
        iterations=1,
    )
    print()
    print("== extension: delivery under clock skew (PSM vs q=1) ==")
    for skew in SKEWS:
        print(
            f"  skew sigma={skew:>3.1f}s: PSM {results['skew_psm'][skew]:.3f}"
            f"   q=1 {results['skew_q1'][skew]:.3f}"
        )
    print("== extension: delivery with relay nodes killed at t=100s ==")
    for n, value in results["failures"].items():
        print(f"  {n} failures: {value:.3f}")
    benchmark.extra_info.update(
        {
            "psm_skew4": results["skew_psm"][4.0],
            "q1_skew4": results["skew_q1"][4.0],
            "six_failures": results["failures"][6],
        }
    )

    # PSM degrades with skew; an always-awake network shrugs it off.
    assert results["skew_psm"][4.0] < results["skew_psm"][0.0]
    assert results["skew_q1"][4.0] > 0.9
    # Failures hurt monotonically (weakly — the survivors may still cover).
    assert results["failures"][6] <= results["failures"][0] + 0.02
