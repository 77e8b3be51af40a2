"""The ``--progress`` ETA format.

:func:`format_duration` spells the ETA the ``--progress`` printer shows.
It only formats; nothing here feeds back into execution.
"""

from __future__ import annotations

from typing import Optional


def format_duration(seconds: Optional[float]) -> str:
    """``95.0 -> "1m35s"``; None/negative -> ``"-"``."""
    if seconds is None or seconds < 0:
        return "-"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
