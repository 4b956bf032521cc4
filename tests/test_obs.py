"""Observability subsystem: event bus, recorder, views, Perfetto export.

``goldens/perfetto_text.json`` pins the sha256 of the exported Perfetto
text of the four runs in :data:`FOUR_CONFIGS`, which between them emit
every event class.  Regenerate deliberately, after a change meant to
move the export::

    PYTHONPATH=src python tests/test_obs.py > tests/goldens/perfetto_text.json
"""

import functools
import hashlib
import json
import pathlib
import sys
import tracemalloc

import pytest

import repro
from repro import CYCLE_SECONDS, EMX, ExecutionPlan, MachineConfig
from repro.apps import run_bitonic, run_fft
from repro.errors import ConfigError
from repro.metrics.counters import Bucket, SwitchKind
from repro.obs import (
    BarrierEvent,
    BurstSpan,
    Category,
    EventBus,
    MatchEvent,
    PacketDeliver,
    PacketSend,
    RingRecorder,
    ThreadLife,
    ThreadSwitch,
    burst_timeline,
    format_switch_table,
    latency_histogram,
    packet_spans,
    percentile_from_hist,
    queue_depth_profile,
    switch_table,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
)
from repro.obs import events as obs_events
from repro.obs.perfetto import _BATCH

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
PERFETTO_TEXT_GOLDEN = GOLDEN_DIR / "perfetto_text.json"

#: name -> (app, machine config, plan); every run is P=4, n=64, h=2.
#: Native sort, FFT (read pairs through matching memory), EM-4-mode sort
#: (read service on the EXU) and compiled EM-C sort (cohort events).
FOUR_CONFIGS = {
    "sort": ("sort", None, None),
    "fft": ("fft", None, None),
    "sort-em4": ("sort", MachineConfig(em4_mode=True), None),
    "emc-sort-compiled": ("emc-sort", None, ExecutionPlan(compiled=True)),
}

#: Every event class of the vocabulary.
EVENT_CLASSES = tuple(
    getattr(obs_events, name) for name in obs_events.__all__ if name != "Category"
)

four_configs = pytest.mark.parametrize(
    "app,config,plan", list(FOUR_CONFIGS.values()), ids=list(FOUR_CONFIGS)
)


def recorded_run(app="sort", n_pes=2, n=16, h=2, **kwargs):
    bus = EventBus()
    rec = RingRecorder(bus)
    runner = run_bitonic if app == "sort" else run_fft
    result = runner(n_pes=n_pes, n=n, h=h, seed=0, obs=bus, **kwargs)
    return result, rec


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
def test_bus_dispatches_by_category():
    bus = EventBus()
    got = []
    bus.subscribe(got.append, categories=[Category.SWITCH])
    bus.emit(ThreadSwitch(1, 0, SwitchKind.REMOTE_READ))
    bus.emit(BurstSpan(0, 0, 5, "burst"))  # different category: ignored
    assert len(got) == 1
    assert got[0].kind is SwitchKind.REMOTE_READ

    # A subscriber without categories gets every event, and each
    # category's subscribers run in subscription order.
    log = []
    bus.subscribe(lambda e: log.append(("all", e.category)))
    bus.subscribe(lambda e: log.append(("switch", e.category)), [Category.SWITCH])
    bus.emit(BurstSpan(0, 0, 5, "burst"))
    bus.emit(ThreadSwitch(2, 0, SwitchKind.EXPLICIT))
    assert log == [
        ("all", Category.BURST), ("all", Category.SWITCH), ("switch", Category.SWITCH),
    ]
    assert len(got) == 2


# ----------------------------------------------------------------------
# Ring recorder
# ----------------------------------------------------------------------
def test_recorder_evicts_oldest_and_counts_drops():
    rec = RingRecorder(capacity=8)
    for i in range(20):
        rec.record(ThreadSwitch(i, 0, SwitchKind.EXPLICIT))
    assert len(rec) == 8
    assert rec.dropped == 12
    assert [e.t for e in rec.events] == list(range(12, 20))


def test_recorder_category_filter_and_counts():
    bus = EventBus()
    rec = RingRecorder(bus, categories=[Category.SWITCH])
    bus.emit(ThreadSwitch(1, 0, SwitchKind.EXPLICIT))
    bus.emit(BurstSpan(0, 0, 5, "burst"))
    assert len(rec) == 1
    assert [e.category for e in rec.events] == [Category.SWITCH]


def test_recorder_rejects_bad_capacity():
    with pytest.raises(ConfigError):
        RingRecorder(capacity=0)


# ----------------------------------------------------------------------
# Disabled path: tracing off must not perturb the simulation
# ----------------------------------------------------------------------
def test_disabled_obs_is_none_and_emits_nothing(monkeypatch):
    """With ``obs=None`` no emit site builds an event: every event
    class's constructor raises, and the four configs, which between them
    reach every emit site, still run to completion."""
    m = EMX(MachineConfig(n_pes=2, memory_words=1 << 12))
    assert m.obs is None

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built with observability off")

    for cls in EVENT_CLASSES:
        monkeypatch.setattr(cls, "__init__", refuse)

    @m.thread
    def worker(ctx):
        yield ctx.compute(5)

    m.spawn(0, "worker")
    m.run()
    for app, config, plan in FOUR_CONFIGS.values():
        report = repro.run(app, n=64, n_pes=4, h=2, seed=0, config=config, plan=plan)
        assert report.runtime_cycles > 0


def test_observed_run_matches_unobserved_run():
    plain = run_bitonic(n_pes=2, n=16, h=2, seed=0)
    observed, rec = recorded_run()
    assert len(rec) > 0
    pr, orr = plain.report, observed.report
    assert pr.runtime_cycles == orr.runtime_cycles
    assert pr.events_fired == orr.events_fired
    assert pr.network.packets == orr.network.packets
    for a, b in zip(pr.counters, orr.counters):
        assert a.cycles == b.cycles
        assert a.switches == b.switches


# ----------------------------------------------------------------------
# Emit-site coverage
# ----------------------------------------------------------------------
def test_all_event_families_emitted_by_bitonic():
    _, rec = recorded_run()
    kinds = {type(e) for e in rec.events}
    assert {ThreadSwitch, BurstSpan, PacketSend, PacketDeliver,
            BarrierEvent, ThreadLife} <= kinds


def test_matching_events_emitted_by_fft():
    # FFT's pair-reads exercise the two-token matching store.
    _, rec = recorded_run(app="fft", n_pes=2, n=16, h=2)
    matches = [e for e in rec.events if type(e) is MatchEvent]
    assert matches
    assert any(e.matched for e in matches)
    assert any(not e.matched for e in matches)


def test_switch_table_matches_pe_counters():
    result, rec = recorded_run(n_pes=4, n=64, h=2)
    table = switch_table(rec.events)
    for pe, counters in enumerate(result.report.counters):
        for kind in SwitchKind:
            assert table.get(pe, {}).get(kind, 0) == counters.switches.get(kind, 0)
    text = format_switch_table(table)
    assert "all" in text
    assert "remote_read" in text


def test_packet_spans_match_network_stats():
    result, rec = recorded_run()
    spans = packet_spans(rec.events)
    net = result.report.network
    assert len(spans) == net.packets
    assert max(s.latency for s in spans) == net.max_latency
    hist = latency_histogram(spans)
    assert percentile_from_hist(hist, 0.50) == net.p50_latency
    assert percentile_from_hist(hist, 0.95) == net.p95_latency


def test_queue_depth_profile_peaks_match_stats():
    result, rec = recorded_run()
    steps, max_depth = queue_depth_profile(rec.events)
    assert max_depth == result.report.network.max_in_flight
    assert steps[-1][1] == 0  # fabric drains by the end


def test_burst_timeline_feeds_trace_events():
    _, rec = recorded_run()
    timeline = burst_timeline(rec.events)
    assert set(timeline) == {0, 1}
    for events in timeline.values():
        assert events
        for a, b in zip(events, events[1:]):
            assert a.end <= b.start


@four_configs
def test_burst_timeline_partitions_pe_counters(app, config, plan):
    """The EXU spans account for every non-IDLE cycle of PECounters:
    idle gaps are the COMMUNICATION bucket, bursts, spins and EM-4
    services the other three."""
    bus = EventBus()
    spans = []
    bus.subscribe(spans.append, [Category.BURST])
    report = repro.run(app, n=64, n_pes=4, h=2, config=config, obs=bus, plan=plan)
    timeline = burst_timeline(spans)
    assert set(timeline) == {0, 1, 2, 3}
    for counters in report.counters:
        events = timeline[counters.pe]
        gaps = [e.end - e.start for e in events if e.kind == "idle"]
        busy = sum(e.end - e.start for e in events if e.kind != "idle")
        assert sum(gaps) == counters.cycles[Bucket.COMMUNICATION]
        assert len(gaps) == counters.comm_gap_count
        assert max(gaps, default=0) == counters.comm_gap_max
        assert busy == sum(
            counters.cycles[b]
            for b in (Bucket.COMPUTATION, Bucket.OVERHEAD, Bucket.SWITCHING)
        )
    assert sum(c.comm_gap_count for c in report.counters) > 0


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------
def test_perfetto_export_matches_golden():
    _, rec = recorded_run()
    fresh = to_perfetto(rec.events, n_pes=2)
    golden = json.loads((GOLDEN_DIR / "sort_p2_n16_h2.perfetto.json").read_text())
    assert fresh == golden


@functools.lru_cache(maxsize=None)
def four_config_events(name: str) -> tuple:
    """Every event one run of :data:`FOUR_CONFIGS` emits, in order."""
    app, config, plan = FOUR_CONFIGS[name]
    bus = EventBus()
    rec = RingRecorder(bus)
    repro.run(app, n=64, n_pes=4, h=2, seed=0, config=config, obs=bus, plan=plan)
    assert rec.dropped == 0
    return tuple(rec.events)


def perfetto_text_sha256(name: str) -> str:
    """sha256 of the Perfetto text ``write_perfetto`` would write for one
    run of :data:`FOUR_CONFIGS`, without its trailing newline."""
    doc = to_perfetto(four_config_events(name), n_pes=4)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(FOUR_CONFIGS))
def test_perfetto_text_matches_golden(name):
    assert perfetto_text_sha256(name) == json.loads(PERFETTO_TEXT_GOLDEN.read_text())[name]


def test_four_configs_emit_every_event_class():
    emitted = {type(ev) for name in FOUR_CONFIGS for ev in four_config_events(name)}
    assert emitted == set(EVENT_CLASSES)
    assert len(EVENT_CLASSES) == 9


def test_perfetto_entries_are_built_in_key_order():
    """Every dict of the export has its keys in sorted order already, so
    the ``sort_keys`` pass of ``json.dumps`` sorts presorted lists."""
    def check(node):
        if isinstance(node, dict):
            assert list(node) == sorted(node), list(node)
            for value in node.values():
                check(value)
        elif isinstance(node, list):
            for value in node:
                check(value)

    for name in FOUR_CONFIGS:
        check(to_perfetto(four_config_events(name), n_pes=4))


def test_perfetto_repeated_values_are_built_once():
    """Event entries with equal ``args`` hold one ``args`` dict, and
    entries at one cycle hold one ``ts`` float."""
    for name in FOUR_CONFIGS:
        trace = to_perfetto(four_config_events(name), n_pes=4)["traceEvents"]
        entries = [e for e in trace if e["ph"] != "M"]
        args_by_text: dict[str, dict] = {}
        ts_by_value: dict[float, float] = {}
        for entry in entries:
            if "args" in entry:
                text = json.dumps(entry["args"], sort_keys=True)
                assert args_by_text.setdefault(text, entry["args"]) is entry["args"]
            assert ts_by_value.setdefault(entry["ts"], entry["ts"]) is entry["ts"]
        # Sharing is the point: far fewer objects than entries.
        assert len(args_by_text) < len(entries) // 2
        assert len(ts_by_value) < len(entries) // 2


@functools.lru_cache(maxsize=None)
def recording(name: str) -> tuple:
    """A recording for the writer tests: a :data:`FOUR_CONFIGS` run,
    ``truncated`` (a ring that dropped the run's start), ``many-batches``
    (more entries than several writer batches) or ``empty``."""
    if name in FOUR_CONFIGS:
        return four_config_events(name)
    if name == "empty":
        return ()
    bus = EventBus()
    if name == "truncated":
        rec = RingRecorder(bus, capacity=64)  # drops early sends
        run_bitonic(n_pes=2, n=16, h=2, seed=0, obs=bus)
        assert rec.dropped > 0
    else:
        rec = RingRecorder(bus)
        run_bitonic(n_pes=4, n=256, h=2, seed=0, obs=bus)
        assert len(to_perfetto(rec.events, n_pes=4)["traceEvents"]) > 4 * _BATCH
    return tuple(rec.events)


def document_text(events, n_pes) -> str:
    doc = to_perfetto(events, n_pes=n_pes)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name,n_pes", [
    *((name, 4) for name in FOUR_CONFIGS),
    ("truncated", 2), ("truncated", None), ("empty", None), ("many-batches", 4),
])
def test_write_perfetto_streams_the_documents_text(tmp_path, name, n_pes):
    events = recording(name)
    path = write_perfetto(tmp_path / "run.perfetto.json", events, n_pes=n_pes)
    assert path.read_bytes() == document_text(events, n_pes).encode("ascii")


def test_write_perfetto_leaves_no_file_when_encoding_fails(tmp_path):
    # The unserialisable span comes after more than one batch, so the
    # writer has already written text when the encoder raises.
    spans = [BurstSpan(t, 0, t + 1, "burst") for t in range(2 * _BATCH)]
    spans.append(BurstSpan(2 * _BATCH, 0, 2 * _BATCH + 1, "burst", thread=object()))
    path = tmp_path / "run.perfetto.json"
    with pytest.raises(TypeError):
        write_perfetto(path, spans, n_pes=1)
    assert list(tmp_path.iterdir()) == []
    # A file already at the path is left as it was.
    path.write_text("earlier")
    with pytest.raises(TypeError):
        write_perfetto(path, spans, n_pes=1)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "earlier"


def test_write_perfetto_memory_is_a_fraction_of_the_documents(tmp_path):
    """The writer holds one batch of entries, not the document and its
    text: on a recording of many batches its ``tracemalloc`` peak is a
    fraction of building the dict and dumping it (0.28 under Python
    3.11.7)."""
    events = recording("many-batches")

    def peak(export) -> int:
        tracemalloc.start()
        try:
            export()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: write_perfetto(tmp_path / "a.json", events, n_pes=4))
    whole = peak(lambda: (tmp_path / "b.json").write_text(document_text(events, 4)))
    assert streamed < 0.4 * whole


def test_perfetto_timestamps_are_rounded_microseconds():
    """Every cycle below 10**6, and the last cycles before ``max_cycles``,
    export at ``round(t * cycle_us, 4)`` microseconds; a span's duration
    is the difference of its rounded ends."""
    cycle_us = CYCLE_SECONDS * 1e6
    max_cycles = MachineConfig().max_cycles
    chunks = [range(lo, lo + 50_000) for lo in range(0, 10**6, 50_000)]
    chunks.append(range(max_cycles - 64, max_cycles + 1))
    for cycles in chunks:
        spans = [BurstSpan(t, 0, t + 1, "burst") for t in cycles]
        slices = [e for e in to_perfetto(spans, n_pes=1)["traceEvents"] if e["ph"] == "X"]
        want = [round(t * cycle_us, 4) for t in range(cycles.start, cycles.stop + 1)]
        assert [e["ts"] for e in slices] == want[:-1]
        assert [e["dur"] for e in slices] == [b - a for a, b in zip(want, want[1:])]


def test_perfetto_export_validates(tmp_path):
    _, rec = recorded_run()
    path = write_perfetto(tmp_path / "run.perfetto.json", rec.events, n_pes=2)
    obj = json.loads(path.read_text())
    assert validate_perfetto(obj) == []
    # One process track per PE plus the synthetic network process.
    names = {e["args"]["name"] for e in obj["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"PE 0", "PE 1", "network"}


def test_perfetto_truncated_ring_still_pairs():
    obj = to_perfetto(recording("truncated"), n_pes=2)
    assert validate_perfetto(obj) == []


def test_perfetto_switch_instants_match_counters():
    result, rec = recorded_run()
    obj = to_perfetto(rec.events, n_pes=2)
    for kind in SwitchKind:
        instants = sum(
            1 for e in obj["traceEvents"]
            if e.get("cat") == "switch" and e["name"] == f"switch:{kind.value}"
        )
        total = sum(c.switches.get(kind, 0) for c in result.report.counters)
        assert instants == total


def test_validate_perfetto_flags_problems():
    assert validate_perfetto([]) != []
    assert validate_perfetto({"traceEvents": 3}) != []
    bad = {"traceEvents": [
        {"ph": "Z", "pid": 0, "ts": 0},
        {"ph": "X", "pid": 0, "ts": -1, "dur": -2},
        {"ph": "e", "pid": 0, "ts": 0, "id": 9},
        {"ph": "b", "pid": 0, "ts": 0, "id": 7},
    ]}
    problems = validate_perfetto(bad)
    assert any("unknown phase" in p for p in problems)
    assert any("bad ts" in p for p in problems)
    assert any("without begin" in p for p in problems)
    assert any("never ended" in p for p in problems)


if __name__ == "__main__":
    json.dump({name: perfetto_text_sha256(name) for name in FOUR_CONFIGS}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")
