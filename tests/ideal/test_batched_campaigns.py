"""Several simulators' campaigns in one lockstep kernel call.

:func:`run_campaigns` runs the campaigns of simulators that share a
topology as the rows of one kernel call.  Each row keeps its own
simulator's seed, p, q, mode, source and failed set, so every result
must equal the simulator's own :meth:`IdealSimulator.run_campaign` and
its scalar oracle :meth:`IdealSimulator.run_campaign_reference`, array
for array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.params import PBBFParams
from repro.ideal.config import AnalysisParameters
from repro.ideal.simulator import IdealSimulator, SchedulingMode, run_campaigns
from repro.net.topology import GridTopology

ARRAYS = ("t_generated", "receive_times", "hops", "parents", "counters")

#: Timings that are not binary fractions round in every float step.
INEXACT = AnalysisParameters(
    update_rate=1 / 33.3, l1=0.45, t_frame=2.9, t_active=0.27,
    bit_rate_bps=9600.3,
)

GRIDS = {side: GridTopology(side) for side in (5, 7, 9)}


def assert_same_campaign(got, expected):
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))
    assert got.total_joules == expected.total_joules
    assert got.shortest_hops == expected.shortest_hops
    assert (got.params, got.mode, got.source) == (
        expected.params, expected.mode, expected.source,
    )


@st.composite
def simulator_rows(draw, topology):
    """One simulator's row settings on ``topology``."""
    n = topology.n_nodes
    source = draw(st.integers(0, n - 1))
    failed = draw(
        st.lists(st.integers(0, n - 1), max_size=n // 3).map(
            lambda nodes: sorted(set(nodes) - {source})
        )
    )
    return dict(
        params=PBBFParams(
            draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        ),
        seed=draw(st.integers(0, 2**63)),
        source=source,
        mode=draw(st.sampled_from(list(SchedulingMode))),
        failed_nodes=failed,
    )


@st.composite
def batches(draw):
    topology = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    config = draw(st.sampled_from([AnalysisParameters(), INEXACT]))
    scope = draw(st.sampled_from(["frame", "broadcast"]))
    rows = draw(st.lists(simulator_rows(topology), min_size=1, max_size=12))
    sims = [
        IdealSimulator(topology, row.pop("params"), config, q_coin_scope=scope, **row)
        for row in rows
    ]
    return sims, draw(st.integers(1, 6))


class TestBatchParity:
    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_each_row_equals_its_own_campaign_and_the_scalar_loop(self, batch):
        sims, n_broadcasts = batch
        batched = run_campaigns(sims, n_broadcasts)
        assert len(batched) == len(sims)
        for sim, got in zip(sims, batched):
            assert_same_campaign(got, sim.run_campaign(n_broadcasts))
            assert_same_campaign(got, sim.run_campaign_reference(n_broadcasts))

    def test_results_hold_only_their_own_rows(self):
        grid = GRIDS[7]
        sims = [
            IdealSimulator(grid, PBBFParams(0.5, q), seed=3) for q in (0.2, 0.8)
        ]
        for campaign in run_campaigns(sims, 4):
            assert campaign.receive_times.shape == (4, grid.n_nodes)
            for name in ARRAYS:
                assert getattr(campaign, name).base is None

    def test_empty_batch(self):
        assert run_campaigns([], 3) == []

    def test_broadcast_count_checked(self):
        sim = IdealSimulator(GRIDS[5], PBBFParams(0.5, 0.5))
        with pytest.raises(ValueError, match="n_broadcasts"):
            run_campaigns([sim], 0)


class TestSharedWorldOnly:
    def _sim(self, topology=None, config=None, scope="frame"):
        return IdealSimulator(
            topology or GRIDS[5], PBBFParams(0.5, 0.5), config,
            q_coin_scope=scope,
        )

    def test_mixed_topologies_refused(self):
        # An equal grid is still another object: worlds are shared, not
        # compared.
        with pytest.raises(ValueError, match="Topology"):
            run_campaigns([self._sim(), self._sim(GridTopology(5))], 2)

    def test_mixed_configs_refused(self):
        with pytest.raises(ValueError, match="AnalysisParameters"):
            run_campaigns([self._sim(), self._sim(config=INEXACT)], 2)

    def test_mixed_scopes_refused(self):
        with pytest.raises(ValueError, match="q_coin_scope"):
            run_campaigns([self._sim(), self._sim(scope="broadcast")], 2)


class TestOneKernel:
    def test_run_campaign_is_a_batch_of_one(self, monkeypatch):
        calls = []
        real = IdealSimulator._run_batch

        def spy(simulators, indices):
            calls.append(len(simulators))
            return real(simulators, indices)

        monkeypatch.setattr(IdealSimulator, "_run_batch", staticmethod(spy))
        sim = IdealSimulator(GRIDS[5], PBBFParams(0.5, 0.5), seed=1)
        sim.run_campaign(3)
        run_campaigns([sim, sim], 3)
        assert calls == [1, 2]

    def test_one_span_per_call_with_its_points(self, tmp_path):
        sims = [
            IdealSimulator(GRIDS[5], PBBFParams(0.5, q), seed=2)
            for q in (0.1, 0.5, 0.9)
        ]
        obs.reset_recorder()
        obs.set_recorder(obs.TelemetryRecorder(tmp_path, role="parent"))
        try:
            run_campaigns(sims, 2)
            sims[0].run_campaign(2)
            sims[0].run_campaign_reference(2)
        finally:
            obs.reset_recorder()
        spans = [
            (record["points"], record["fast_path"], record["broadcasts"])
            for record in obs.iter_events(tmp_path)
            if record["type"] == "span" and record["name"] == "kernel.ideal"
        ]
        assert spans == [(3, True, 2), (1, True, 2), (1, False, 2)]
