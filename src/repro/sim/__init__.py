"""Discrete-event simulation kernel.

A small, dependency-free event engine: a stable priority queue of
``(time, sequence, callback)`` entries and a run loop.  All of the EM-X
model (network deliveries, processor wake-ups, DMA completions) is
expressed as callbacks scheduled on one :class:`~repro.sim.engine.Engine`.

The production queue is a two-tier calendar queue (see
:mod:`repro.sim.queue`); :class:`ReferenceEventQueue` keeps the original
heapq implementation as a differential-testing oracle and benchmark
reference.
"""

from .clock import Clock, cycles_to_seconds, seconds_to_cycles
from .engine import Engine
from .queue import EventQueue, ReferenceEventQueue, ScheduledEvent

__all__ = [
    "Clock",
    "Engine",
    "EventQueue",
    "ReferenceEventQueue",
    "ScheduledEvent",
    "cycles_to_seconds",
    "seconds_to_cycles",
]
