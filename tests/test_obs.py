"""Observability subsystem: event bus, recorder, views, Perfetto export."""

import json
import pathlib

import pytest

import repro
from repro import EMX, ExecutionPlan, MachineConfig
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
from repro.packet import PacketKind

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


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


def test_bus_unsubscribe_and_wants():
    bus = EventBus()
    got = []
    bus.subscribe(got.append)
    assert bus.wants(Category.PACKET)
    bus.unsubscribe(got.append)
    assert not bus.wants(Category.PACKET)
    bus.emit(PacketSend(0, 1, PacketKind.WRITE, 0, 1))
    assert got == []


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
    assert rec.counts() == {Category.SWITCH: 1}


def test_recorder_rejects_bad_capacity():
    with pytest.raises(ConfigError):
        RingRecorder(capacity=0)


# ----------------------------------------------------------------------
# Disabled path: tracing off must not perturb the simulation
# ----------------------------------------------------------------------
def test_disabled_obs_is_none_and_emits_nothing():
    m = EMX(MachineConfig(n_pes=2, memory_words=1 << 12))
    assert m.obs is None

    @m.thread
    def worker(ctx):
        yield ctx.compute(5)

    m.spawn(0, "worker")
    m.run()


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


@pytest.mark.parametrize(
    "app,config,plan",
    [
        ("sort", None, None),
        ("fft", None, None),
        ("sort", MachineConfig(em4_mode=True), None),
        ("emc-sort", None, ExecutionPlan(compiled=True)),
    ],
    ids=["sort", "fft", "sort-em4", "emc-sort-compiled"],
)
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
    bus = EventBus()
    rec = RingRecorder(bus, capacity=64)  # drops early sends
    run_bitonic(n_pes=2, n=16, h=2, seed=0, obs=bus)
    assert rec.dropped > 0
    obj = to_perfetto(rec.events, n_pes=2)
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
