"""Tracing subsystem: burst timelines from the event stream, rendering."""

import pytest

from repro import EMX, MachineConfig
from repro.errors import SimulationError
from repro.obs import Category, EventBus, burst_timeline
from repro.trace import TraceEvent, render_timeline, utilization


def recording_machine(**config):
    """A two-PE machine and the list its BurstSpan events land in."""
    bus = EventBus()
    spans = []
    bus.subscribe(spans.append, [Category.BURST])
    return EMX(MachineConfig(n_pes=2, memory_words=1 << 12, **config), obs=bus), spans


def traced_machine():
    m, spans = recording_machine()

    @m.thread
    def worker(ctx, mate):
        yield ctx.compute(20)
        v = yield ctx.read(ctx.ga(mate, 0))
        yield ctx.compute(v)

    m.pes[0].memory.write(0, 10)
    m.pes[1].memory.write(0, 10)
    m.spawn(0, "worker", 1)
    m.spawn(1, "worker", 0)
    m.run()
    return burst_timeline(spans)


def test_trace_records_bursts_and_idle():
    events = traced_machine()[0]
    kinds = {e.kind for e in events}
    assert "burst" in kinds
    assert "idle" in kinds  # the read wait shows up
    for e in events:
        assert e.end >= e.start
    # Bursts carry the thread name.
    assert any(e.label.startswith("worker@") for e in events if e.kind == "burst")


def test_trace_spans_are_disjoint_and_ordered():
    for pe, events in traced_machine().items():
        for a, b in zip(events, events[1:]):
            assert a.end <= b.start, (pe, a, b)


def test_em4_service_traced():
    m, spans = recording_machine(em4_mode=True)

    @m.thread
    def reader(ctx):
        yield ctx.read(ctx.ga(1, 0))

    m.spawn(0, "reader")
    m.run()
    assert any(e.kind == "service" for e in burst_timeline(spans)[1])


def test_event_validation():
    with pytest.raises(SimulationError):
        TraceEvent(5, 4, "burst")
    with pytest.raises(SimulationError):
        TraceEvent(0, 1, "nonsense")


def test_utilization():
    events = [
        TraceEvent(0, 10, "burst"),
        TraceEvent(10, 20, "idle"),
        TraceEvent(20, 30, "burst"),
    ]
    assert utilization(events) == pytest.approx(2 / 3)
    assert utilization([]) == 0.0
    assert utilization([TraceEvent(5, 5, "burst")]) == 0.0


def test_render_timeline_shape():
    out = render_timeline(traced_machine(), width=40)
    lines = out.splitlines()
    assert lines[0].startswith("cycles 0..")
    assert lines[1].startswith("PE  0 |") and lines[1].endswith("|")
    assert lines[2].startswith("PE  1 |")
    assert "legend" in lines[-1]
    body = lines[1].split("|")[1]
    assert len(body) == 40
    assert "#" in body


def test_render_timeline_window():
    out = render_timeline(traced_machine(), width=16, start=0, end=30)
    assert "cycles 0..30" in out


def test_render_timeline_errors():
    with pytest.raises(SimulationError):
        render_timeline({0: [TraceEvent(0, 5, "burst")]}, width=4)
    with pytest.raises(SimulationError):
        render_timeline({0: [TraceEvent(0, 5, "burst")]}, start=5, end=5)
    assert render_timeline({0: []}) == "(no trace events)"
