"""The ideal simulator's energy against the paper's closed forms.

Section 4.2 derives a node's energy per update from its duty cycle
(Eq. 7, ``analysis.equations.joules_per_update``) plus the transmit
premium of the forwards it makes.  The simulator charges exactly that, so
its per-node energy per update must equal the closed form on both
kernels, across a (p, q) grid that includes the PSM corner (p = q = 0),
and its duty-cycle part must follow Eq. 8's law: linear in q,
independent of p.  The NO PSM line uses ``joules_per_update_always_on``.
The two sides add the same terms in different orders, so they agree to
rounding (at most about 2e-16 relative on this grid), not bit for bit.
"""

import pytest

from repro.analysis import equations
from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode
from repro.net.topology import GridTopology

GRID = GridTopology(9)
CONFIG = AnalysisParameters()
N_BROADCASTS = 3
REL = 1e-12

#: (p, q), the PSM corner first.
OPERATING_POINTS = [(0.0, 0.0), (0.25, 0.5), (0.5, 0.25), (0.75, 0.1), (1.0, 1.0)]

KERNELS = {
    "lockstep": IdealSimulator.run_campaign,
    "reference": IdealSimulator.run_campaign_reference,
}


def campaign(kernel, mode, p=1.0, q=1.0):
    simulator = IdealSimulator(GRID, PBBFParams(p, q), CONFIG, seed=7, mode=mode)
    return KERNELS[kernel](simulator, N_BROADCASTS)


def tx_seconds_per_update_per_node(result):
    """Airtime each node spends transmitting, per update, on average."""
    n_transmissions = int(result.counters[:, 0].sum())
    return (
        n_transmissions
        * CONFIG.packet_airtime
        / (result.n_broadcasts * GRID.n_nodes)
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("p,q", OPERATING_POINTS)
def test_psm_pbbf_energy_is_the_closed_form(kernel, p, q):
    result = campaign(kernel, SchedulingMode.PSM_PBBF, p, q)
    tx_s = tx_seconds_per_update_per_node(result)
    expected = equations.joules_per_update(
        q, CONFIG.t_active, CONFIG.t_sleep, CONFIG.update_interval,
        CONFIG.power, tx_s,
    )
    assert result.joules_per_update_per_node() == pytest.approx(expected, rel=REL)

    # Eq. 8: the awake fraction behind the duty-cycle energy, over the
    # base protocol's Ta / Tframe, is 1 + q * Ts / Ta.
    power = CONFIG.power
    duty = (
        result.joules_per_update_per_node()
        - tx_s * (power.tx_w - power.listen_w)
    ) / CONFIG.update_interval
    awake = (duty - power.sleep_w) / (power.listen_w - power.sleep_w)
    ratio = awake / equations.relative_energy_original(
        CONFIG.t_active, CONFIG.t_frame
    )
    assert ratio == pytest.approx(
        equations.energy_ratio_vs_original(q, CONFIG.t_active, CONFIG.t_sleep),
        rel=REL,
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_always_on_energy_is_the_closed_form(kernel):
    result = campaign(kernel, SchedulingMode.ALWAYS_ON)
    expected = equations.joules_per_update_always_on(
        CONFIG.update_interval,
        CONFIG.power,
        tx_seconds_per_update_per_node(result),
    )
    assert result.joules_per_update_per_node() == pytest.approx(expected, rel=REL)
