"""Discrete-event simulation kernel.

A small, dependency-free event engine: a calendar of callbacks fired in
stable ``(time, push)`` order, and a run loop.  All of the EM-X model
(network deliveries, processor wake-ups, DMA completions) is expressed
as callbacks scheduled on one :class:`~repro.sim.engine.Engine`.
Simulated time is the engine's integer cycle count, ``Engine.now``; the
reports convert it to seconds with :data:`repro.config.CYCLE_SECONDS`.

:class:`~repro.sim.reference.ReferenceEngine` is the same engine over a
single heap, kept as the differential-testing oracle and benchmark
reference.
"""

from .engine import WINDOW, Engine
from .reference import ReferenceEngine

__all__ = ["Engine", "ReferenceEngine", "WINDOW"]
