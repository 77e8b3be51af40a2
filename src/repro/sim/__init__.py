"""Discrete-event simulation kernel.

The paper's Section 5 evaluation runs on ns-2; this package is the
reproduction's equivalent substrate: :class:`~repro.sim.engine.Engine`, a
binary-heap event queue with a monotone clock, cancellable event handles,
and deterministic FIFO tie-breaking for simultaneous events.

The engine is intentionally minimal: no real-time pacing, no threads, no
global state.  Everything above it (MAC, PHY, application) is built from
``schedule`` callbacks.
"""

from repro.sim.engine import Engine, EventHandle, SimulationError

__all__ = [
    "Engine",
    "EventHandle",
    "SimulationError",
]
