"""Execution tracing: burst-level timelines per processor.

A :class:`TraceEvent` is one span of EXU activity — a burst, spin
check, EM-4 read service or idle gap.  :func:`repro.obs.burst_timeline`
builds the per-PE lists from a run's ``BurstSpan`` events, and
:func:`render_timeline` draws an ASCII Gantt of the machine — the
fastest way to *see* overlap working (or failing), e.g. the paper's
Fig. 4 timeline can be reproduced for any program.
"""

from .timeline import TraceEvent, render_timeline, utilization

__all__ = ["TraceEvent", "render_timeline", "utilization"]
