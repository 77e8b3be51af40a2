"""Tests for the Section 4 closed forms (Equations 3-12)."""

import pytest

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
from repro.energy.model import MICA2

# Table 1 values used throughout.
T_ACTIVE, T_SLEEP, T_FRAME = 1.0, 9.0, 10.0
L1, L2 = 1.5, 8.5


class TestEnergyEquations:
    def test_eq3_duty_cycle(self):
        assert relative_energy_original(T_ACTIVE, T_FRAME) == pytest.approx(0.1)

    def test_eq3_rejects_active_exceeding_frame(self):
        with pytest.raises(ValueError):
            relative_energy_original(11.0, 10.0)

    def test_eq5_active_time(self):
        assert pbbf_active_time(T_ACTIVE, T_SLEEP, 0.5) == pytest.approx(5.5)

    def test_eq6_sleep_time(self):
        assert pbbf_sleep_time(T_SLEEP, 0.5) == pytest.approx(4.5)

    def test_eq5_eq6_partition_frame(self):
        for q in (0.0, 0.3, 0.7, 1.0):
            total = pbbf_active_time(T_ACTIVE, T_SLEEP, q) + pbbf_sleep_time(
                T_SLEEP, q
            )
            assert total == pytest.approx(T_FRAME)

    def test_eq7_reduces_to_eq3_at_q0(self):
        assert relative_energy_pbbf(T_ACTIVE, T_SLEEP, 0.0) == pytest.approx(
            relative_energy_original(T_ACTIVE, T_FRAME)
        )

    def test_eq7_reaches_one_at_q1(self):
        assert relative_energy_pbbf(T_ACTIVE, T_SLEEP, 1.0) == pytest.approx(1.0)

    def test_eq8_ratio(self):
        # 1 + q * Ts/Ta; Table 1 -> 1 + 9q.
        assert energy_ratio_vs_original(0.5, T_ACTIVE, T_SLEEP) == pytest.approx(5.5)

    def test_eq8_linear_in_q(self):
        r1 = energy_ratio_vs_original(0.2, T_ACTIVE, T_SLEEP)
        r2 = energy_ratio_vs_original(0.4, T_ACTIVE, T_SLEEP)
        r3 = energy_ratio_vs_original(0.6, T_ACTIVE, T_SLEEP)
        assert r3 - r2 == pytest.approx(r2 - r1)

    def test_eq8_consistent_with_eq7(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            ratio = relative_energy_pbbf(T_ACTIVE, T_SLEEP, q) / (
                relative_energy_original(T_ACTIVE, T_FRAME)
            )
            assert ratio == pytest.approx(
                energy_ratio_vs_original(q, T_ACTIVE, T_SLEEP)
            )


class TestAbsoluteEnergy:
    def test_psm_floor_matches_paper(self):
        # 10% duty cycle, 100 s per update -> ~0.30 J (Figure 8's PSM line).
        joules = joules_per_update(0.0, T_ACTIVE, T_SLEEP, 100.0, MICA2)
        assert joules == pytest.approx(0.30, rel=0.01)

    def test_always_on_ceiling_matches_paper(self):
        # 30 mW for 100 s -> 3.0 J (Figure 8's NO PSM line).
        assert joules_per_update_always_on(100.0, MICA2) == pytest.approx(3.0)

    def test_q_one_approaches_always_on(self):
        with_psm = joules_per_update(1.0, T_ACTIVE, T_SLEEP, 100.0, MICA2)
        assert with_psm == pytest.approx(3.0, rel=1e-6)

    def test_paper_quote_psm_saves_almost_three_joules(self):
        saved = joules_per_update_always_on(100.0, MICA2) - joules_per_update(
            0.0, T_ACTIVE, T_SLEEP, 100.0, MICA2
        )
        assert 2.5 < saved < 3.0

    def test_tx_premium_added(self):
        base = joules_per_update(0.5, T_ACTIVE, T_SLEEP, 100.0, MICA2)
        with_tx = joules_per_update(
            0.5, T_ACTIVE, T_SLEEP, 100.0, MICA2, tx_seconds_per_update=1.0
        )
        assert with_tx - base == pytest.approx(MICA2.tx_w - MICA2.listen_w)


class TestLatencyEquations:
    def test_eq9_psm_corner(self):
        # p=0: every hop waits for the next window -> L1 + L2.
        assert expected_per_hop_latency(0.0, 0.0, L1, L2) == pytest.approx(L1 + L2)

    def test_eq9_always_on_corner(self):
        assert expected_per_hop_latency(1.0, 1.0, L1, L2) == pytest.approx(L1)

    def test_eq9_degenerate_corner_returns_l1(self):
        # p=1, q=0 conditions on an impossible delivery; continuity gives L1.
        assert expected_per_hop_latency(1.0, 0.0, L1, L2) == L1

    def test_eq9_decreasing_in_p(self):
        values = [expected_per_hop_latency(p, 0.5, L1, L2) for p in (0.1, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_eq9_decreasing_in_q(self):
        values = [expected_per_hop_latency(0.5, q, L1, L2) for q in (0.1, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_eq9_bounded_by_corners(self):
        for p in (0.1, 0.4, 0.9):
            for q in (0.1, 0.6, 1.0):
                latency = expected_per_hop_latency(p, q, L1, L2)
                assert L1 <= latency <= L1 + L2

    def test_eq9_known_value(self):
        # p=0.5, q=0.5: L = L1 + L2 * 0.5/0.75.
        expected = L1 + L2 * 0.5 / 0.75
        assert expected_per_hop_latency(0.5, 0.5, L1, L2) == pytest.approx(expected)

    def test_eq10_path_latency(self):
        assert path_latency(2.0, 7) == 14.0

    def test_eq11_upper_bound_exponent(self):
        assert LOOP_ERASED_WALK_EXPONENT == 1.25
        assert path_latency_upper_bound(2.0, 16) == pytest.approx(2.0 * 16**1.25)

    def test_eq11_exceeds_linear_path(self):
        for d in (2, 10, 60):
            assert path_latency_upper_bound(1.0, d) > path_latency(1.0, d)


class TestInvertedLatency:
    def test_roundtrip_through_eq9(self):
        for p in (0.2, 0.5, 0.8):
            for q in (0.1, 0.4, 0.9):
                latency = expected_per_hop_latency(p, q, L1, L2)
                assert q_for_per_hop_latency(latency, p, L1, L2) == pytest.approx(q)

    def test_target_below_l1_rejected(self):
        with pytest.raises(ValueError):
            q_for_per_hop_latency(1.0, 0.5, L1, L2)

    def test_target_above_max_rejected(self):
        with pytest.raises(ValueError):
            q_for_per_hop_latency(L1 + L2 + 1.0, 0.5, L1, L2)

    def test_unreachable_target_raises(self):
        # At p=0.1, even q=1 only reduces latency a little; an aggressive
        # target is infeasible.
        with pytest.raises(ValueError, match="unreachable"):
            q_for_per_hop_latency(L1 + 0.01, 0.1, L1, L2)

    def test_degenerate_p_values_rejected(self):
        with pytest.raises(ValueError):
            q_for_per_hop_latency(5.0, 0.0, L1, L2)
        with pytest.raises(ValueError):
            q_for_per_hop_latency(5.0, 1.0, L1, L2)


class TestEq12Tradeoff:
    def test_pins_to_eq8_eq9_roundtrip(self):
        # Eq. 12 must equal Eq. 8 evaluated at the q that Eq. 9 maps to
        # the latency target (the corrected sign; see EXPERIMENTS.md,
        # "Known paper erratum (Eq. 12)").
        p = 0.5
        for q in (0.2, 0.5, 0.9):
            latency = expected_per_hop_latency(p, q, L1, L2)
            energy = relative_energy_for_latency(
                latency, p, L1, L2, T_ACTIVE, T_SLEEP
            )
            expected = energy_ratio_vs_original(q, T_ACTIVE, T_SLEEP) * (
                relative_energy_original(T_ACTIVE, T_FRAME)
            )
            assert energy == pytest.approx(expected)

    def test_energy_increases_as_latency_target_tightens(self):
        # At p=0.5 with L1=1.5, L2=8.5 the achievable per-hop range is
        # [5.75 s (q=1), 10 s (q=0)]; tighten within it.
        p = 0.5
        latencies = [9.5, 8.5, 7.5, 6.5]
        energies = [
            relative_energy_for_latency(latency, p, L1, L2, T_ACTIVE, T_SLEEP)
            for latency in latencies
        ]
        assert energies == sorted(energies)

    def test_relaxed_target_costs_psm_energy(self):
        # Latency at the PSM corner (q=0) should cost exactly Eq. 3.
        p = 0.5
        latency = expected_per_hop_latency(p, 0.0, L1, L2)
        energy = relative_energy_for_latency(latency, p, L1, L2, T_ACTIVE, T_SLEEP)
        assert energy == pytest.approx(relative_energy_original(T_ACTIVE, T_FRAME))
