#!/usr/bin/env python3
"""Adaptive PBBF: the paper's future-work heuristics, running.

Section 6 of the paper sketches self-tuning PBBF: raise p when the
neighbourhood sounds busy, raise q when sequence numbers reveal missed
broadcasts.  The :mod:`repro.adaptive` extension implements both, and this
example pits it against static configurations on the detailed simulator.

The adaptive nodes start from a deliberately bad point (p=0.5, q=0.05 —
deep inside the unreliable region of Figure 7) and climb out on their own.

Run:  python examples/adaptive_pbbf.py
"""

from repro import (
    AdaptivePolicy,
    CodeDistributionParameters,
    DetailedSimulator,
    PBBFParams,
)

START = PBBFParams(p=0.5, q=0.05)  # sub-threshold: loses packets
POLICY = AdaptivePolicy(p_max=0.75, q_step=0.1)
CONFIG = CodeDistributionParameters(n_nodes=40, density=10.0, duration=500.0)
SEEDS = (21, 22, 23)


def run_static(params: PBBFParams) -> tuple:
    delivery, joules = [], []
    for seed in SEEDS:
        metrics = DetailedSimulator(params, CONFIG, seed=seed).run().metrics
        delivery.append(metrics.mean_updates_received_fraction())
        joules.append(metrics.joules_per_update_per_node())
    return sum(delivery) / len(delivery), sum(joules) / len(joules)


def run_adaptive() -> tuple:
    delivery, joules = [], []
    for seed in SEEDS:
        metrics = DetailedSimulator(
            START, CONFIG, seed=seed, adaptive=POLICY
        ).run().metrics
        delivery.append(metrics.mean_updates_received_fraction())
        joules.append(metrics.joules_per_update_per_node())
    return sum(delivery) / len(delivery), sum(joules) / len(joules)


def main() -> None:
    print("Adaptive PBBF vs static configurations (40 nodes, 500 s, 3 seeds)")
    print(f"  {'configuration':<26} {'delivery':>9} {'J/update':>9}")

    delivery, joules = run_static(START)
    print(f"  {'static, start point':<26} {delivery:>8.1%} {joules:>8.2f}J")

    delivery, joules = run_static(PBBFParams(p=0.5, q=0.5))
    print(f"  {'static, hand-tuned q=0.5':<26} {delivery:>8.1%} {joules:>8.2f}J")

    delivery, joules = run_adaptive()
    print(f"  {'adaptive (from start)':<26} {delivery:>8.1%} {joules:>8.2f}J")

    print()
    print("The controller recovers nearly all the delivery that the bad")
    print("static point loses, at a fraction of the hand-tuned energy: at")
    print("this sparse traffic rate (one update per 100 s) the network is")
    print("usually silent, so nodes learn that immediate forwards rarely")
    print("find an audience, dial p down toward the always-delivered")
    print("announced path, and let q decay between loss bursts -- exactly")
    print("the kind of convergence question the paper's Section 6 poses.")


if __name__ == "__main__":
    main()
