"""The duration format behind the ``--progress`` ETA."""

from __future__ import annotations

from repro.obs import format_duration


def test_format_duration():
    assert format_duration(None) == "-"
    assert format_duration(-1) == "-"
    assert format_duration(12) == "12s"
    assert format_duration(95) == "1m35s"
    assert format_duration(3_700) == "1h01m"


def test_format_duration_rounds_to_whole_seconds_first():
    assert format_duration(0.4) == "0s"
    assert format_duration(59.6) == "1m00s"
    assert format_duration(3_599.6) == "1h00m"
