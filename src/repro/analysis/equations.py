"""Closed forms for Equations 3-12.

All times are in seconds, powers in watts, energies in joules.  Function
names reference the paper's equation numbers so the paper can be
followed line by line.
"""

from __future__ import annotations

from repro.energy.model import PowerProfile
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

#: The exponent of Eq. 11: on the uniform spanning tree a broadcast builds,
#: the expected path length to a node at lattice distance d grows as
#: ``d**(5/4 + o(1))`` (loop-erased random walk scaling, refs [4, 10]).
LOOP_ERASED_WALK_EXPONENT = 1.25


# -- energy (Section 4.2) ----------------------------------------------------

def relative_energy_original(t_active: float, t_frame: float) -> float:
    """Eq. 3: duty-cycle energy of the base sleep protocol, ``Ta / Tframe``."""
    t_active = check_non_negative("t_active", t_active)
    t_frame = check_positive("t_frame", t_frame)
    if t_active > t_frame:
        raise ValueError(f"t_active ({t_active}) exceeds t_frame ({t_frame})")
    return t_active / t_frame


def pbbf_active_time(t_active: float, t_sleep: float, q: float) -> float:
    """Eq. 5: PBBF's expected awake time per frame, ``Ta + q*Ts``."""
    t_active = check_non_negative("t_active", t_active)
    t_sleep = check_non_negative("t_sleep", t_sleep)
    q = check_probability("q", q)
    return t_active + q * t_sleep


def pbbf_sleep_time(t_sleep: float, q: float) -> float:
    """Eq. 6: PBBF's expected asleep time per frame, ``(1-q)*Ts``."""
    t_sleep = check_non_negative("t_sleep", t_sleep)
    q = check_probability("q", q)
    return (1.0 - q) * t_sleep


def relative_energy_pbbf(t_active: float, t_sleep: float, q: float) -> float:
    """Eq. 7: PBBF duty-cycle energy, ``(Ta + q*Ts) / Tframe``."""
    t_frame = t_active + t_sleep
    check_positive("t_frame", t_frame)
    return pbbf_active_time(t_active, t_sleep, q) / t_frame


def energy_ratio_vs_original(q: float, t_active: float, t_sleep: float) -> float:
    """Eq. 8: ``E_PBBF / E_original = 1 + q * Tsleep / Tactive``.

    The paper's headline energy law: linear in q, independent of p.
    """
    q = check_probability("q", q)
    t_active = check_positive("t_active", t_active)
    t_sleep = check_non_negative("t_sleep", t_sleep)
    return 1.0 + q * t_sleep / t_active


def joules_per_update(
    q: float,
    t_active: float,
    t_sleep: float,
    update_interval: float,
    profile: PowerProfile,
    tx_seconds_per_update: float = 0.0,
) -> float:
    """Absolute per-node energy per generated update (the Figure 8 y-axis).

    Over one update inter-arrival time (``1/lambda``, 100 s at Table 1's
    rate) a node is awake for the Eq. 7 fraction of time drawing listen
    power, asleep for the rest drawing sleep power, plus the transmit-power
    premium for the brief time it spends forwarding the update.
    """
    update_interval = check_positive("update_interval", update_interval)
    tx_seconds = check_non_negative("tx_seconds_per_update", tx_seconds_per_update)
    awake_fraction = relative_energy_pbbf(t_active, t_sleep, q)
    listen_energy = awake_fraction * update_interval * profile.listen_w
    sleep_energy = (1.0 - awake_fraction) * update_interval * profile.sleep_w
    tx_premium = tx_seconds * (profile.tx_w - profile.listen_w)
    return listen_energy + sleep_energy + tx_premium


def joules_per_update_always_on(
    update_interval: float,
    profile: PowerProfile,
    tx_seconds_per_update: float = 0.0,
) -> float:
    """Per-update energy with the radio always on (the "NO PSM" line)."""
    update_interval = check_positive("update_interval", update_interval)
    tx_seconds = check_non_negative("tx_seconds_per_update", tx_seconds_per_update)
    return (
        update_interval * profile.listen_w
        + tx_seconds * (profile.tx_w - profile.listen_w)
    )


# -- latency (Section 4.3) ---------------------------------------------------

def expected_per_hop_latency(p: float, q: float, l1: float, l2: float) -> float:
    """Eq. 9: expected one-hop delivery latency, conditioned on delivery.

    ``L = L1 + L2 * (1-p) / (1-p + p*q)``

    * L1 — channel-access time of an immediate transmission;
    * L2 — extra wait for the next scheduled wake-up window.

    The corner ``p=1, q=0`` (all forwards immediate, nobody awake to hear
    them) conditions on an impossible event; we return L1 by continuity,
    matching ``lim_{q->0+} L`` at p=1.
    """
    p = check_probability("p", p)
    q = check_probability("q", q)
    l1 = check_non_negative("l1", l1)
    l2 = check_non_negative("l2", l2)
    denominator = 1.0 - p + p * q
    if denominator == 0.0:
        return l1
    return l1 + l2 * (1.0 - p) / denominator


def q_for_per_hop_latency(latency: float, p: float, l1: float, l2: float) -> float:
    """Invert Eq. 9: the q achieving a target per-hop ``latency`` at fixed p.

    Valid targets lie in ``(L1, L1 + L2]`` for ``0 < p < 1``; raises
    :class:`ValueError` outside the achievable range or at the degenerate
    p values (p=0 pins latency to L1+L2; p=1 pins it to L1).
    """
    latency = check_non_negative("latency", latency)
    p = check_probability("p", p)
    l1 = check_non_negative("l1", l1)
    l2 = check_positive("l2", l2)
    if p == 0.0:
        raise ValueError("p=0 pins per-hop latency to L1+L2; q has no effect")
    if p == 1.0:
        raise ValueError("p=1 pins per-hop latency to L1; q has no effect")
    if not l1 < latency <= l1 + l2:
        raise ValueError(
            f"latency {latency} outside achievable range ({l1}, {l1 + l2}]"
        )
    q = (1.0 - p) * (l1 + l2 - latency) / (p * (latency - l1))
    if q > 1.0 + 1e-12:
        raise ValueError(
            f"latency {latency} unreachable at p={p}: would need q={q:.4f} > 1"
        )
    return min(1.0, max(0.0, q))


def path_latency(per_hop_latency: float, path_hops: float) -> float:
    """Eq. 10: source-to-node latency, ``L * len(S, B)``."""
    check_non_negative("per_hop_latency", per_hop_latency)
    check_non_negative("path_hops", path_hops)
    return per_hop_latency * path_hops


def path_latency_upper_bound(per_hop_latency: float, shortest_distance: float) -> float:
    """Eq. 11: ``L * d**(5/4)`` — spanning-tree path-stretch upper bound.

    Each broadcast builds a uniform spanning tree; the expected tree-path
    length to a node at lattice distance d is ``d**(5/4+o(1))``.  At high
    reliability the paper observes the actual exponent collapses to ~1
    (Figures 9-10), making this a (loose) upper bound.
    """
    check_non_negative("per_hop_latency", per_hop_latency)
    check_non_negative("shortest_distance", shortest_distance)
    return per_hop_latency * shortest_distance**LOOP_ERASED_WALK_EXPONENT


# -- the trade-off (Section 4.4) ----------------------------------------------

def relative_energy_for_latency(
    latency: float,
    p: float,
    l1: float,
    l2: float,
    t_active: float,
    t_sleep: float,
) -> float:
    """Eq. 12 (corrected): relative energy needed to hit a latency target.

    Substituting the inverted Eq. 9 into Eq. 8::

        E_PBBF/E_orig = 1 + ((L1 + L2 - L)/(L - L1)) * ((1-p)/p) * (Ts/Ta)

    The paper prints a minus sign in front of the second term; that form
    would make energy *fall* as the latency target tightens, contradicting
    Eq. 8 + Eq. 9 (and Figure 12 itself).  See EXPERIMENTS.md, "Known
    paper erratum (Eq. 12)".
    """
    q = q_for_per_hop_latency(latency, p, l1, l2)
    ratio = energy_ratio_vs_original(q, t_active, t_sleep)
    return ratio * relative_energy_original(t_active, t_active + t_sleep)
