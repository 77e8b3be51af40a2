"""The paper's analytical model (Section 4, Equations 3-12).

Pure closed-form functions — no simulation — for:

* **energy** (Section 4.2): duty-cycle energy of the base sleep protocol
  (Eq. 3), PBBF's inflated active time (Eqs. 5-7), and the headline linear
  law ``E_PBBF/E_orig = 1 + q * Tsleep/Tactive`` (Eq. 8);
* **latency** (Section 4.3): the expected per-hop latency
  ``L = L1 + L2 * (1-p)/(1-p+p*q)`` (Eq. 9), path latency (Eq. 10) and the
  spanning-tree upper bound ``L * d^(5/4+o(1))`` (Eq. 11);
* **the energy-latency trade-off** (Section 4.4, Eq. 12): energy as a
  function of target latency at fixed p, and the Figure 12 curve obtained
  by walking the reliability frontier.

Note on Eq. 12: the paper's printed equation has a sign error (see
EXPERIMENTS.md, "Known paper erratum (Eq. 12)").  :func:`relative_energy_for_latency`
implements the corrected form, and the test suite pins it to Eqs. 8-9 by
round-trip substitution.

On top of the closed forms sits the **trade-off analysis subsystem** —
the layer that *interprets* campaign results instead of producing them:

* :mod:`repro.analysis.objectives` — named/oriented objectives,
  epsilon-constraints and seed-averaged operating points with
  deterministic bootstrap confidence intervals;
* :mod:`repro.analysis.pareto` — dominated-point pruning into a
  :class:`Frontier` with deterministic tie-breaking;
* :mod:`repro.analysis.selectors` — knee-point (max-curvature) and
  epsilon-constraint operating-point selection;
* :mod:`repro.analysis.denomination` — frontier energies re-denominated
  as battery-days through :mod:`repro.energy.lifetime`;
* :mod:`repro.analysis.compare` — hypervolume and two-set coverage
  across scenario families or controller variants.

The ``pareto01``-``pareto03`` figures and the ``pbbf-experiments
pareto`` CLI subcommand are the packaged entry points.
"""

from repro.analysis.equations import (
    LOOP_ERASED_WALK_EXPONENT,
    energy_ratio_vs_original,
    expected_per_hop_latency,
    joules_per_update,
    joules_per_update_always_on,
    path_latency,
    path_latency_upper_bound,
    pbbf_active_time,
    pbbf_sleep_time,
    q_for_per_hop_latency,
    relative_energy_for_latency,
    relative_energy_original,
    relative_energy_pbbf,
)
from repro.analysis.bootstrap import bootstrap_ci95, bootstrap_mean_samples
from repro.analysis.compare import (
    FrontierComparison,
    FrontierSummary,
    compare_frontiers,
    coverage_fraction,
    frontier_weakly_dominates,
    hypervolume,
    shared_reference,
)
from repro.analysis.denomination import lifetime_days_metric, lifetime_objective
from repro.analysis.objectives import (
    Constraint,
    Objective,
    OperatingPoint,
    operating_points,
)
from repro.analysis.pareto import Frontier, dominates, pareto_frontier
from repro.analysis.selectors import (
    epsilon_constraint_index,
    knee_index,
    knee_point,
)
from repro.analysis.stretch import ExponentFit, fit_power_law, stretch_exponent
from repro.analysis.tradeoff import TradeoffPoint, energy_latency_curve

__all__ = [
    "Constraint",
    "Frontier",
    "FrontierComparison",
    "FrontierSummary",
    "Objective",
    "OperatingPoint",
    "bootstrap_ci95",
    "bootstrap_mean_samples",
    "compare_frontiers",
    "coverage_fraction",
    "dominates",
    "epsilon_constraint_index",
    "frontier_weakly_dominates",
    "hypervolume",
    "knee_index",
    "knee_point",
    "lifetime_days_metric",
    "lifetime_objective",
    "operating_points",
    "pareto_frontier",
    "shared_reference",
    "ExponentFit",
    "LOOP_ERASED_WALK_EXPONENT",
    "TradeoffPoint",
    "energy_latency_curve",
    "fit_power_law",
    "stretch_exponent",
    "energy_ratio_vs_original",
    "expected_per_hop_latency",
    "joules_per_update",
    "joules_per_update_always_on",
    "path_latency",
    "path_latency_upper_bound",
    "pbbf_active_time",
    "pbbf_sleep_time",
    "q_for_per_hop_latency",
    "relative_energy_for_latency",
    "relative_energy_original",
    "relative_energy_pbbf",
]
