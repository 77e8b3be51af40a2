"""The experiment harness: every table and figure, regenerated.

One :class:`~repro.experiments.spec.ExperimentSpec` per paper artifact
(Tables 1-2, Figures 4-18, plus the extension figures EXPERIMENTS.md
lists).  Each spec knows
how to run itself at two scales:

* ``full`` -- the paper's parameters (75x75 analysis grid, ten detailed
  runs per point, 500 s scenarios).  Minutes per figure.
* ``fast`` -- reduced-scale defaults used by the benchmark suite and CI.
  Seconds per figure, same qualitative shapes.

Entry points: the :mod:`repro.cli` command-line tool, or programmatically::

    from repro.experiments import get_experiment, Scale
    result = get_experiment("fig08").run(Scale.fast())
    print(result.render())
"""

from repro.experiments.registry import all_experiment_ids, get_experiment
from repro.experiments.scale import Scale
from repro.experiments.spec import ExperimentResult, ExperimentSpec, Series

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "Scale",
    "Series",
    "all_experiment_ids",
    "get_experiment",
]
