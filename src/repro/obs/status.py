"""Live status views: the ``--progress`` ETA and streaming frontier redraws.

Rendering helpers for the two live CLI views — :func:`format_duration`,
which spells the ``--progress`` ETA, and the pareto ``--watch-frontier``
mode (periodic frontier/knee snapshots folded from the ``on_point``
stream).  Everything here formats and prints; nothing feeds back into
execution, so the views can never perturb results.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional, TextIO


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


class FrontierWatcher:
    """Fold an ``on_point`` stream into periodic frontier snapshots.

    Wraps a :class:`~repro.analysis.streaming.StreamingFrontier`:
    ``on_point`` feeds the stream, and at most once per ``interval_s``
    (plus once at :meth:`final`) the current frontier and knee are
    redrawn to ``out`` (stderr by default — stdout stays reserved for
    the campaign's deterministic report).
    """

    def __init__(
        self,
        stream: Any,
        interval_s: float = 2.0,
        out: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream = stream
        self.interval_s = interval_s
        self.out = out if out is not None else sys.stderr
        self._clock = clock
        self._last_draw: Optional[float] = None
        self.n_draws = 0

    def on_point(self, run: Any, metrics: Any) -> None:
        """The ``run_campaign(on_point=...)`` callback."""
        self.stream.on_point(run, metrics)
        now = self._clock()
        if (
            self._last_draw is not None
            and now - self._last_draw < self.interval_s
        ):
            return
        self._last_draw = now
        self._draw()

    def final(self) -> None:
        """Draw the finished frontier (always, regardless of throttle)."""
        self._draw(final=True)

    def _draw(self, final: bool = False) -> None:
        from repro.analysis.selectors import knee_index

        frontier = self.stream.frontier()
        self.n_draws += 1
        tag = "final frontier" if final else "frontier"
        header = (
            f"  [{tag}] {self.stream.n_seen} results in, "
            f"{len(frontier)} non-dominated, {frontier.n_dominated} dominated"
        )
        print(header, file=self.out)
        if not frontier.points:
            return
        knee = None
        if len(frontier.objectives) == 2 and len(frontier.points) >= 1:
            knee = knee_index(frontier)
        for index, point in enumerate(frontier.points):
            values = ", ".join(
                f"{objective.name}={value:.4g}"
                for objective, value in zip(frontier.objectives, point.values)
            )
            marker = "  <- knee" if knee is not None and index == knee else ""
            print(f"    {point.label}: {values}{marker}", file=self.out)
