"""Adaptive-lookahead window protocol: matrix bounds, coalescing, accounting.

The contract (see ``src/repro/sim/parallel.py``): the per-pair
lookahead matrix is a *true lower bound* on cross-shard delivery latency
(so the window protocol is conservative), every off-diagonal entry
dominates the scalar lookahead floor, and idle gaps coalesce into one
barrier.  That windows never change the simulated outcome is covered by
the cross-K identity tests in ``test_parallel_engine.py``.
``MachineReport.windows`` carries the barrier accounting and must stay
out of the serialised form.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro
from repro import EMX, ExecutionPlan, MachineConfig
from repro.errors import SimulationError
from repro.metrics.report import format_windows
from repro.metrics.serialize import report_to_dict
from repro.sim import Engine, parallel
from repro.network import build_network
from repro.network.sharded import lookahead, lookahead_matrix
from repro.packet import Packet, PacketKind


# ----------------------------------------------------------------------
# The lookahead matrix: dominance over the scalar bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_pes", [4, 10, 16, 64])
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_matrix_dominates_scalar_lookahead(n_pes, shards):
    if shards > n_pes:
        pytest.skip("more shards than PEs")
    config = MachineConfig(n_pes=n_pes)
    bounds = parallel.partition(n_pes, shards)
    matrix = lookahead_matrix(config, bounds)
    scalar = lookahead(config)
    off_diag = [
        matrix[i][j] for i in range(shards) for j in range(shards) if i != j
    ]
    assert all(entry >= scalar for entry in off_diag)
    # ... and the scalar bound is exactly the matrix minimum: the legacy
    # protocol is the adaptive one collapsed to its worst pair.
    assert min(off_diag) == scalar


def test_matrix_is_symmetric_in_shape_and_positive():
    config = MachineConfig(n_pes=16)
    bounds = parallel.partition(16, 4)
    matrix = lookahead_matrix(config, bounds)
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    assert all(entry >= 1 for row in matrix for entry in row)


# ----------------------------------------------------------------------
# The lookahead matrix: a true lower bound on per-pair delivery latency
# ----------------------------------------------------------------------
def _probe_pair_latencies(n_pes, model):
    """Delivery latency of every ordered PE pair, one packet in flight
    at a time (1000-cycle spacing keeps every port idle)."""
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
@pytest.mark.parametrize("n_pes,shards", [(8, 2), (16, 4), (10, 3)])
def test_matrix_is_a_true_lower_bound_per_shard_pair(model, n_pes, shards):
    """matrix[i][j] never exceeds the best latency any (src in i,
    dst in j) pair actually achieves — the adaptive windows are safe."""
    config = MachineConfig(n_pes=n_pes, network_model=model)
    bounds = parallel.partition(n_pes, shards)
    matrix = lookahead_matrix(config, bounds)
    latencies = _probe_pair_latencies(n_pes, model)

    def shard_of(pe):
        return next(i for i, (lo, hi) in enumerate(bounds) if lo <= pe < hi)

    best = {}
    for (src, dst), lat in latencies.items():
        key = (shard_of(src), shard_of(dst))
        best[key] = min(best.get(key, lat), lat)
    for (i, j), lat in best.items():
        assert matrix[i][j] <= lat, (i, j, matrix[i][j], lat)
    # Tight somewhere: at least one cross-shard pair achieves its bound
    # exactly, so no larger matrix would still be conservative.
    cross = [(i, j) for (i, j) in best if i != j]
    assert any(matrix[i][j] == best[(i, j)] for i, j in cross)


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
def test_adaptive_coalesces_idle_gaps():
    report = repro.run("sort", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=2))
    assert report.windows["coalesced"] > 0


# ----------------------------------------------------------------------
# Barrier accounting: report.windows shape, serialisation exclusion
# ----------------------------------------------------------------------
def test_windows_section_structure_and_exclusion():
    report = repro.run("sort", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=2))
    w = report.windows
    assert w is not None
    assert w["shards"] == 2
    assert w["count"] >= 1 and w["coalesced"] >= 0
    assert w["lookahead_min"] >= 1 and w["lookahead_max"] >= w["lookahead_min"]
    assert len(w["per_shard"]) == 2
    for per in w["per_shard"]:
        assert per["windows"] >= 1
        assert per["idle_windows"] >= 0
        assert per["barrier_wall_seconds"] >= 0.0
    # Every shard attends every barrier: per-shard window counts all
    # equal the global round count.
    assert all(per["windows"] == w["count"] for per in w["per_shard"])
    # The diagnostics never leak into the serialised report (cross-K
    # byte-identity depends on it).
    assert "windows" not in report_to_dict(report)


def test_sequential_runs_have_no_windows_section():
    report = repro.run("sort", n=128, n_pes=8, h=2)
    assert report.windows is None


def test_format_windows_renders_summary_and_table():
    report = repro.run("sort", n=128, n_pes=8, h=2, plan=ExecutionPlan(shards=2))
    text = format_windows(report.windows)
    assert text.startswith("windows: shards=2  barriers=")
    assert "barrier_s" in text


# ----------------------------------------------------------------------
# Uneven partitions: 10 PEs across 4 shards, boundary ownership
# ----------------------------------------------------------------------
def test_owns_and_shard_of_agree_on_uneven_partition():
    bounds = parallel.partition(10, 4)
    specs = [parallel.ShardSpec(i, 4, bounds) for i in range(4)]
    for pe in range(10):
        owners = [spec.index for spec in specs if spec.owns(pe)]
        assert len(owners) == 1
        assert specs[0].shard_of(pe) == owners[0]
    with pytest.raises(SimulationError, match="outside the partitioned machine"):
        specs[0].shard_of(10)
    with pytest.raises(SimulationError, match="outside the partitioned machine"):
        specs[0].shard_of(-1)


def _ring_app(*, n_pes, n, h, config=None, obs=None, seed=0):
    """Every PE reads a slot on its clockwise neighbour — guaranteed
    cross-shard traffic over any contiguous partition."""
    machine = EMX(config or MachineConfig(n_pes=n_pes), obs=obs)

    @machine.thread
    def worker(ctx, peer, slot):
        yield ctx.compute(5)
        value = yield ctx.read(ctx.ga(peer, slot))
        yield ctx.write(ctx.ga(ctx.pe, 16 + slot), value)

    for pe in range(n_pes):
        for slot in range(h):
            machine.pes[pe].memory.write(slot, 100 * pe + slot)
            machine.spawn(pe, "worker", (pe + 1) % n_pes, slot)
    report = machine.run()
    return SimpleNamespace(report=report, verified=True)


def test_uneven_ten_pes_four_shards_full_windowed_run():
    """10 PEs / 4 shards: shard sizes (2,3,2,3); every metric identical
    to the sequential run and to other K."""
    base = report_to_dict(parallel.call_app(_ring_app, 1, dict(n_pes=10, n=10, h=2)).report)
    for k in (2, 4):
        result = parallel.call_app(_ring_app, k, dict(n_pes=10, n=10, h=2))
        assert report_to_dict(result.report) == base
        if k == 4:
            w = result.report.windows
            assert w["shards"] == 4
            assert len(w["per_shard"]) == 4
    # The ring actually crossed shards: packets flowed.
    assert base["network"]["packets"] > 0


def test_uneven_partition_memory_lands_on_owning_shard():
    result = parallel.call_app(_ring_app, 4, dict(n_pes=10, n=10, h=1))
    report = result.report
    assert sum(c.threads_finished for c in report.counters) == 10
