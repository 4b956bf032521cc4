"""Discrete-event simulation kernel.

A small, dependency-free event engine: a stable priority queue of
``(time, sequence, callback)`` entries and a run loop.  All of the EM-X
model (network deliveries, processor wake-ups, DMA completions) is
expressed as callbacks scheduled on one :class:`~repro.sim.engine.Engine`.
Simulated time is the engine's integer cycle count, ``Engine.now``; the
reports convert it to seconds with :data:`repro.config.CYCLE_SECONDS`.

The production queue is a two-tier calendar queue (see
:mod:`repro.sim.queue`); :class:`ReferenceEventQueue` keeps the original
heapq implementation as a differential-testing oracle and benchmark
reference.
"""

from .engine import Engine
from .queue import EventQueue, ReferenceEventQueue, ScheduledEvent

__all__ = [
    "Engine",
    "EventQueue",
    "ReferenceEventQueue",
    "ScheduledEvent",
]
