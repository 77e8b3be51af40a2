"""Table 2: the code-distribution scenario parameters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.energy.model import MICA2, PowerProfile
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class CodeDistributionParameters:
    """The Section 5 configuration (paper Table 2, plus shared Table 1 values).

    Attributes
    ----------
    n_nodes:
        Deployment size (Table 2: N = 50).
    density:
        Node density ``delta`` of Eq. 13 — roughly the expected number of
        one-hop neighbours (Table 2 default: 10.0; Figures 17-18 sweep it).
    radio_range:
        Transmission range R in metres.  The paper never states R because
        no result depends on it (the area is derived from the density); we
        fix 40 m, a typical Mica2 outdoor figure.
    total_packet_bytes / payload_bytes:
        Table 2: 64-byte packets with a 30-byte data payload.
    k:
        Most-recent updates carried per packet (presented results use 1).
    update_rate:
        lambda, updates per second at the source (Table 1: 0.01/s).
    beacon_interval / atim_window:
        BI and AW, "set according to the values of Tframe and Tactive"
        (10 s / 1 s).
    bit_rate_bps:
        19.2 kbps (Section 5: "the bit rate of the nodes is 19.2 kbps").
    duration:
        Simulated seconds per run (Section 5.1: 500 s).
    power:
        Radio power profile (Table 1's Mica2 values).
    """

    n_nodes: int = 50
    density: float = 10.0
    radio_range: float = 40.0
    total_packet_bytes: int = 64
    payload_bytes: int = 30
    k: int = 1
    update_rate: float = 0.01
    beacon_interval: float = 10.0
    atim_window: float = 1.0
    bit_rate_bps: float = 19200.0
    duration: float = 500.0
    power: PowerProfile = MICA2

    def __post_init__(self) -> None:
        check_positive_int("n_nodes", self.n_nodes)
        check_positive("density", self.density)
        check_positive("radio_range", self.radio_range)
        check_positive_int("total_packet_bytes", self.total_packet_bytes)
        check_positive_int("payload_bytes", self.payload_bytes)
        check_positive_int("k", self.k)
        check_positive("update_rate", self.update_rate)
        check_positive("beacon_interval", self.beacon_interval)
        check_positive("atim_window", self.atim_window)
        check_positive("bit_rate_bps", self.bit_rate_bps)
        check_positive("duration", self.duration)
        if self.payload_bytes >= self.total_packet_bytes:
            raise ValueError(
                f"payload ({self.payload_bytes}B) must fit inside the total "
                f"packet ({self.total_packet_bytes}B) with headers"
            )
        if self.atim_window >= self.beacon_interval:
            raise ValueError(
                f"atim_window ({self.atim_window}) must be < "
                f"beacon_interval ({self.beacon_interval})"
            )

    @classmethod
    def for_topology(cls, topology, **overrides) -> "CodeDistributionParameters":
        """Parameters sized to a pre-built (scenario-realized) deployment.

        ``n_nodes`` is taken from the topology; every other field keeps
        its Table 2 default unless overridden.  This is how the
        detailed evaluator builds a scenario point's configuration:
        the topology comes from ``ScenarioSpec.realize``, so the config's
        placement knobs (``density``, ``radio_range``) describe nothing
        and only the protocol/traffic/timing fields matter.
        """
        if "n_nodes" in overrides and overrides["n_nodes"] != topology.n_nodes:
            raise ValueError(
                f"n_nodes override ({overrides['n_nodes']}) contradicts the "
                f"topology ({topology.n_nodes} nodes)"
            )
        overrides = dict(overrides, n_nodes=topology.n_nodes)
        return cls(**overrides)

    @property
    def update_interval(self) -> float:
        """Seconds between updates, ``1 / lambda``."""
        return 1.0 / self.update_rate

    @property
    def expected_updates(self) -> int:
        """Updates generated over one run."""
        return int(self.duration * self.update_rate) + (
            1 if self.duration * self.update_rate % 1 else 0
        )

    def table_rows(self) -> List[Tuple[str, str]]:
        """Render the Table 2 rows (parameter, value) for the bench harness."""
        return [
            ("N", f"{self.n_nodes}"),
            ("Delta", f"{self.density:g}"),
            ("Total Packet Size", f"{self.total_packet_bytes} bytes"),
            ("Data Packet Payload", f"{self.payload_bytes} bytes"),
            ("k", f"{self.k}"),
            ("lambda", f"{self.update_rate:g} updates/s"),
            ("Bit rate", f"{self.bit_rate_bps / 1000:g} kbps"),
            ("Run length", f"{self.duration:g} s"),
        ]
