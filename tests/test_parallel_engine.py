"""Sharded parallel simulation: determinism, lookahead, differentials.

The contract under test (see ``src/repro/sim/parallel.py``): a run
with ``ExecutionPlan(shards=K)`` is *metrics-identical* for every K —
all ``MachineReport`` counters, cycle counts, switch attributions,
network statistics, merged observability streams and per-PE traces are
pure functions of the simulated run, never of the partition.  Plus the window math the
protocol leans on: the lookahead L derived from ``MachineConfig`` is a
true lower bound on delivery latency in *both* legacy network models,
and empty windows (no boundary traffic) cannot deadlock the barrier
protocol.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro
from repro import EMX, ExecutionPlan, MachineConfig
from repro.config import TimingModel
from repro.errors import SimulationError
from repro.metrics.serialize import report_to_dict
from repro.network import build_network
from repro.network.sharded import lookahead
from repro.packet import Packet, PacketKind
from repro.sim import Engine
from repro.sim import parallel


def _report_dict(app, n_pes, npp, h, shards):
    report = repro.run(
        app, n=n_pes * npp, n_pes=n_pes, h=h, plan=ExecutionPlan(shards=shards)
    )
    return report_to_dict(report)


# ----------------------------------------------------------------------
# Tentpole acceptance: K in {2, 4} identical to K = 1
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", ["sort", "fft"])
@pytest.mark.parametrize("n_pes,npp,h", [(16, 8, 2), (64, 2, 1)])
def test_shard_count_never_changes_metrics(app, n_pes, npp, h):
    base = _report_dict(app, n_pes, npp, h, shards=1)
    for k in (2, 4):
        assert _report_dict(app, n_pes, npp, h, shards=k) == base


def test_sharded_run_verifies_and_reports_runtime():
    report = repro.run("sort", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=2))
    assert report.runtime_cycles > 0
    assert report.network.packets > 0
    assert len(report.counters) == 8


def test_shards_clamped_to_pe_count():
    # K > P cannot give every shard a PE; the count clamps to P.
    base = _report_dict("sort", 4, 8, 2, shards=1)
    assert _report_dict("sort", 4, 8, 2, shards=16) == base


# ----------------------------------------------------------------------
# Observability: merged streams and traces are K-independent
# ----------------------------------------------------------------------
def _recorded_events(app, shards):
    from repro.obs import EventBus, RingRecorder

    bus = EventBus()
    recorder = RingRecorder(bus, capacity=500_000)
    repro.run(app, n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=shards), obs=bus)
    return recorder.events


@pytest.mark.parametrize("app", ["sort", "fft"])
def test_merged_event_stream_identical_across_shard_counts(app):
    streams = {k: _recorded_events(app, k) for k in (1, 2, 4)}
    assert streams[1] == streams[2] == streams[4]


def test_perfetto_export_byte_identical_across_shard_counts():
    import json

    from repro.obs.perfetto import to_perfetto

    exports = []
    for k in (1, 2):
        events = _recorded_events("fft", k)
        exports.append(json.dumps(to_perfetto(events, n_pes=8), sort_keys=True))
    assert exports[0] == exports[1]


def test_machine_traces_identical_across_shard_counts():
    def traced(k):
        cfg = MachineConfig(n_pes=8, trace=True)
        return repro.run(
            "sort", n=128, n_pes=8, h=2, config=cfg, plan=ExecutionPlan(shards=k)
        ).traces

    t1, t2, t4 = traced(1), traced(2), traced(4)
    assert set(t1) == set(range(8))
    assert t1 == t2 == t4


# ----------------------------------------------------------------------
# Lookahead: L from MachineConfig is a true delivery-latency lower bound
# ----------------------------------------------------------------------
def _probe_latencies(n_pes, model):
    """Per-packet delivery latency of every ordered pair, one packet in
    flight at a time (1000-cycle spacing leaves every port idle)."""
    config = MachineConfig(n_pes=n_pes, network_model=model)
    engine = Engine()
    net = build_network(engine, config)
    latencies = {}
    sent_at = {}

    def sink_for(dst):
        def sink(pkt):
            latencies[(pkt.src, pkt.dst)] = engine.now - sent_at[(pkt.src, pkt.dst)]

        return sink

    for pe in range(n_pes):
        net.attach(pe, sink_for(pe))
    pairs = [(s, d) for s in range(n_pes) for d in range(n_pes) if s != d]
    for i, (src, dst) in enumerate(pairs):
        when = i * 1000
        sent_at[(src, dst)] = when
        pkt = Packet(kind=PacketKind.READ_REQ, src=src, dst=dst, data=None)
        engine.schedule_at(when, net.send, pkt)
    engine.run()
    assert len(latencies) == len(pairs)
    return latencies


@pytest.mark.parametrize("model", ["detailed", "analytic"])
@pytest.mark.parametrize("n_pes", [2, 16, 64])
def test_lookahead_is_a_true_lower_bound(model, n_pes):
    config = MachineConfig(n_pes=n_pes, network_model=model)
    L = lookahead(config)
    latencies = _probe_latencies(n_pes, model)
    assert min(latencies.values()) >= L
    # ... and tight: some pair achieves exactly L, so no larger window
    # would be conservative.
    assert min(latencies.values()) == L


def test_lookahead_tracks_timing_model():
    slow = MachineConfig(n_pes=16, timing=TimingModel(eject=7))
    fast = MachineConfig(n_pes=16)
    assert lookahead(slow) - lookahead(fast) == 7 - fast.timing.eject


def test_sharded_network_rejects_lookahead_violations():
    # The guard exists so a future timing change that breaks the bound
    # fails loudly instead of silently corrupting a window.
    config = MachineConfig(n_pes=4)
    spec = parallel.ShardSpec(0, 2, parallel.partition(4, 2))
    from repro.network.sharded import ShardedOmegaNetwork

    engine = Engine()
    net = ShardedOmegaNetwork(engine, config, spec.owns)
    for pe in range(4):
        net.attach(pe, lambda pkt: None)
    net.lookahead = 10_000  # simulate an over-estimated window
    with pytest.raises(SimulationError, match="lookahead violation"):
        net.send(Packet(kind=PacketKind.READ_REQ, src=0, dst=3, data=None))


# ----------------------------------------------------------------------
# Differential: analytic vs detailed agree on conflict-free traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_pes", [2, 16, 64])
def test_models_agree_on_conflict_free_traffic(n_pes):
    detailed = _probe_latencies(n_pes, "detailed")
    analytic = _probe_latencies(n_pes, "analytic")
    assert detailed == analytic


@pytest.mark.parametrize("model", ["detailed", "analytic"])
def test_sharded_network_matches_legacy_on_conflict_free_traffic(model):
    """Same probe through the sharded fabric: per-source planes change
    nothing when at most one packet is in flight."""
    n_pes = 16
    config = MachineConfig(n_pes=n_pes, network_model=model)
    spec = parallel.ShardSpec(0, 1, parallel.partition(n_pes, 1))
    from repro.network.sharded import ShardedOmegaNetwork

    engine = Engine()
    net = ShardedOmegaNetwork(engine, config, spec.owns)
    latencies = {}
    sent_at = {}

    def sink_for(dst):
        def sink(pkt):
            latencies[(pkt.src, pkt.dst)] = engine.now - sent_at[(pkt.src, pkt.dst)]

        return sink

    for pe in range(n_pes):
        net.attach(pe, sink_for(pe))
    pairs = [(s, d) for s in range(n_pes) for d in range(n_pes) if s != d]
    for i, (src, dst) in enumerate(pairs):
        when = i * 1000
        sent_at[(src, dst)] = when
        pkt = Packet(kind=PacketKind.READ_REQ, src=src, dst=dst, data=None)
        engine.schedule_at(when, net.send, pkt)
    engine.run()
    assert latencies == _probe_latencies(n_pes, model)


# ----------------------------------------------------------------------
# Window protocol: empty windows cannot deadlock
# ----------------------------------------------------------------------
def _compute_only_app(*, n_pes, n, h, config=None, obs=None, seed=0):
    """An app whose threads never touch the network: every window
    barrier exchanges zero boundary packets."""
    machine = EMX(config or MachineConfig(n_pes=n_pes), obs=obs)

    @machine.thread
    def spin(ctx):
        yield ctx.compute(25)
        yield ctx.compute(25)

    for pe in range(n_pes):
        for _ in range(h):
            machine.spawn(pe, "spin")
    report = machine.run()
    return SimpleNamespace(report=report, verified=True)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_empty_window_exchange_terminates(shards):
    result = parallel.call_app(
        _compute_only_app, shards, dict(n_pes=4, n=4, h=2)
    )
    report = result.report
    assert report.network.packets == 0
    assert report.runtime_cycles > 0
    assert sum(c.threads_started for c in report.counters) == 8


def test_empty_window_metrics_match_across_shards():
    dicts = [
        report_to_dict(
            parallel.call_app(_compute_only_app, k, dict(n_pes=4, n=4, h=2)).report
        )
        for k in (1, 2, 4)
    ]
    assert dicts[0] == dicts[1] == dicts[2]


# ----------------------------------------------------------------------
# Failure policy: deterministic errors propagate, loudly
# ----------------------------------------------------------------------
def _failing_app(*, n_pes, n, h, config=None, obs=None, seed=0):
    machine = EMX(config or MachineConfig(n_pes=n_pes), obs=obs)

    @machine.thread
    def boom(ctx):
        yield ctx.compute(5)
        raise ValueError("guest bug")

    machine.spawn(n_pes - 1, "boom")  # lands on the last shard
    report = machine.run()
    return SimpleNamespace(report=report, verified=True)


@pytest.mark.parametrize("shards", [1, 2])
def test_guest_errors_fail_the_whole_run(shards):
    with pytest.raises(Exception):
        parallel.call_app(_failing_app, shards, dict(n_pes=4, n=4, h=1))


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_partition_covers_all_pes_contiguously():
    for n_pes in (2, 5, 16, 64):
        for k in range(1, n_pes + 1):
            bounds = parallel.partition(n_pes, k)
            assert bounds[0][0] == 0 and bounds[-1][1] == n_pes
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c and a < b and c < d


def test_partition_rejects_bad_counts():
    with pytest.raises(SimulationError):
        parallel.partition(4, 5)
    with pytest.raises(SimulationError):
        parallel.partition(4, 0)


# ----------------------------------------------------------------------
# Runner integration: spec mapping, cache keys, exec side channel
# ----------------------------------------------------------------------
def test_jobspec_shards_key_semantics():
    from repro.runner import JobSpec

    legacy = JobSpec(app="sort", n_pes=8, npp=16, h=2)
    sharded2 = JobSpec(app="sort", n_pes=8, npp=16, h=2, shards=2)
    sharded4 = JobSpec(app="sort", n_pes=8, npp=16, h=2, shards=4)
    # The sharded semantics gets its own key; the worker count does not
    # (metrics are K-independent, so K=2 and K=4 share cache entries).
    assert legacy.key() != sharded2.key()
    assert sharded2.key() == sharded4.key()
    assert "shards=2" in sharded2.describe()
    assert sharded2.execution_plan == ExecutionPlan(shards=2)


def test_runner_shards_option_maps_specs(tmp_path):
    from repro.runner import JobSpec, ResultCache, run_specs, using

    spec = JobSpec(app="sort", n_pes=4, npp=8, h=2)
    with using(cache_dir=str(tmp_path), plan=ExecutionPlan(shards=2)):
        records = run_specs([spec])
        cache = ResultCache(str(tmp_path))
        # Result keyed by the caller's spec; cache keyed by the exec spec.
        assert spec in records
        from dataclasses import replace

        assert replace(spec, shards=2) in cache
        assert spec not in cache


def test_pool_budget_counts_shards_pinned_on_specs(tmp_path, monkeypatch):
    """jobs × shards is budgeted against the cores whether the shard
    count comes from the runner's plan or is pinned on the specs."""
    import os

    from repro.runner import JobSpec, RunnerOptions, run_specs

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    specs = [JobSpec(app="sort", n_pes=4, npp=4, h=1, seed=s, shards=4) for s in range(4)]
    workers = []
    run_specs(specs, options=RunnerOptions(
        jobs=4, cache_dir=str(tmp_path), progress=lambda st: workers.append(st.workers),
    ))
    assert workers and set(workers) == {1}


def test_execute_job_records_wall_time_and_rss(tmp_path):
    from repro.runner import JobSpec, ResultCache
    from repro.runner.worker import execute_job

    spec = JobSpec(app="sort", n_pes=4, npp=8, h=2, shards=2)
    record = execute_job(spec)
    exec_info = getattr(record, "_exec")
    assert exec_info["wall_seconds"] > 0
    assert exec_info["max_rss_kb"] is None or exec_info["max_rss_kb"] > 0
    cache = ResultCache(str(tmp_path))
    cache.put(spec, record)
    stats = cache.stats()
    assert stats.timed_entries == 1
    assert stats.wall_seconds > 0
    assert "timed entries" in stats.describe()
    # The side channel never leaks into record equality or serialisation.
    from repro.metrics.serialize import run_record_to_dict

    assert "_exec" not in run_record_to_dict(record)
    assert cache.get(spec) == record
