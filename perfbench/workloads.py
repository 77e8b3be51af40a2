"""The benchmark's workloads: which figures, at which scale, how executed.

Every workload regenerates a fixed list of paper artifacts through
``ExperimentSpec.run`` under the default execution configuration, changing
only what the CLI's ``--scale``, ``--jobs`` and ``--cache-dir`` flags
change.  The workload seed becomes the ``Scale``'s ``base_seed``, so the
program sees nothing but the generated scale.  Why each workload exists
is recorded in ``BENCHMARK.json``.

This module imports nothing from ``repro`` at import time, so the
orchestrator (``run.py``) can read workload metadata without loading the
program.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: ``Scale``'s own ``base_seed`` (ICDCS 2005's opening day).
DEFAULT_SEED = 20050610
#: Seed kept out of tuning; claims are re-checked on it (see README.md).
HELD_OUT_SEED = 1234567

IDEAL_FIGURES = ("fig04", "fig05", "fig08", "fig09", "fig10", "fig11")
DETAILED_FIGURES = ("fig13", "fig14", "fig15", "fig16", "fig17", "fig18")

#: Left out of the run-all workloads because they fail on some seeds.
#: perc02 sweeps bond and site percolation to coverage 1.0 on the
#: ``grid_holes`` and ``clustered`` families, whose rng-drawn deployments
#: are not always connected; the sweep then raises (about 1 seed in 25).
RUN_ALL_EXCLUDED = ("perc02",)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"full"`` or ``"fast"``: the ``Scale`` preset the overrides apply to.
    preset: str
    #: ``Scale`` fields replaced on the preset (besides ``base_seed``).
    overrides: Tuple[Tuple[str, Any], ...]
    #: Artifact ids regenerated by one pass; ``()`` means every registered
    #: one except :data:`RUN_ALL_EXCLUDED`.
    figures: Tuple[str, ...]
    #: ``--jobs`` of the timed passes.
    jobs: int = 1
    #: Served from a cache filled (untimed, ``--jobs 2``) before timing.
    warm: bool = False

    def scale(self, seed: int):
        from repro.experiments import Scale

        preset = Scale.full() if self.preset == "full" else Scale.fast()
        return dataclasses.replace(preset, base_seed=seed, **dict(self.overrides))

    def figure_ids(self) -> Tuple[str, ...]:
        if self.figures:
            return self.figures
        from repro.experiments import all_experiment_ids

        return tuple(
            figure for figure in all_experiment_ids()
            if figure not in RUN_ALL_EXCLUDED
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ideal-paper",
            preset="full",
            # The paper's grid and broadcast count on a 2x2 (p, q) subset
            # plus the PSM / NO PSM corners, so one pass fits a run.
            overrides=(
                ("ideal_p_values", (0.25, 0.75)),
                ("ideal_q_values", (0.4, 0.8)),
            ),
            figures=IDEAL_FIGURES,
        ),
        Workload(
            name="detailed-paper",
            preset="full",
            # Paper duration and 10 seeds per point on one p, two q values
            # and two densities, plus the PSM / NO PSM baselines.
            overrides=(
                ("detailed_p_values", (0.25,)),
                ("detailed_q_values", (0.25, 0.75)),
                ("densities", (10.0, 16.0)),
            ),
            figures=DETAILED_FIGURES,
        ),
        Workload(
            name="fast-jobs2",
            preset="fast",
            overrides=(),
            figures=(),
            jobs=2,
        ),
        Workload(
            name="warm-replay",
            preset="fast",
            # The paper-scale bootstrap resamples and frontier seeds, so the
            # analysis layer does paper-sized work on a cheap-to-fill cache.
            overrides=(("bootstrap_resamples", 1000), ("pareto_seeds", 5)),
            figures=(),
            warm=True,
        ),
    )
}
