"""Structured observability for the EM-X simulator.

The paper's whole argument is about *where cycles go* — switch counts
by cause, unmasked communication gaps, per-packet latencies.  This
package records the event stream behind those numbers instead of only
their end-of-run aggregates:

* :mod:`~repro.obs.events` — the typed event vocabulary (switches,
  bursts, packets, matching, barriers, thread lifecycle), grouped into
  :class:`Category` families;
* :mod:`~repro.obs.bus` — the :class:`EventBus` the model emits
  through; ``EMX(config, obs=bus)`` installs one, and every emit site
  costs a single ``is None`` test when tracing is off;
* :mod:`~repro.obs.recorder` — the bounded :class:`RingRecorder` that
  keeps full-length runs memory-safe;
* :mod:`~repro.obs.views` — derived structures: per-packet lifecycle
  spans, latency histograms, per-PE burst timelines (feeding the ASCII
  renderer), and the paper's switch-attribution table;
* :mod:`~repro.obs.perfetto` — Chrome trace-event JSON export for
  ``ui.perfetto.dev``, with one track per PE and packet flow arrows.

Typical use::

    from repro import EMX, MachineConfig
    from repro.obs import EventBus, RingRecorder, write_perfetto

    bus = EventBus()
    rec = RingRecorder(bus)
    machine = EMX(MachineConfig(n_pes=4), obs=bus)
    ...
    machine.run()
    write_perfetto("run.perfetto.json", rec.events, n_pes=4)

Or from the CLI: ``python -m repro trace sort --out run.perfetto.json``.
"""

from .bus import EventBus
from .events import (
    BarrierEvent,
    BurstSpan,
    Category,
    MatchEvent,
    PacketDeliver,
    PacketHop,
    PacketSend,
    ThreadLife,
    ThreadSwitch,
)
from .perfetto import to_perfetto, validate_perfetto, write_perfetto
from .recorder import RingRecorder
from .views import (
    PacketSpan,
    burst_timeline,
    format_switch_table,
    latency_histogram,
    packet_spans,
    percentile_from_hist,
    queue_depth_profile,
    switch_table,
)

__all__ = [
    "Category",
    "ThreadSwitch",
    "BurstSpan",
    "PacketSend",
    "PacketHop",
    "PacketDeliver",
    "MatchEvent",
    "BarrierEvent",
    "ThreadLife",
    "EventBus",
    "RingRecorder",
    "PacketSpan",
    "packet_spans",
    "latency_histogram",
    "percentile_from_hist",
    "queue_depth_profile",
    "burst_timeline",
    "switch_table",
    "format_switch_table",
    "to_perfetto",
    "write_perfetto",
    "validate_perfetto",
]
