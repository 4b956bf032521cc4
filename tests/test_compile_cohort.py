"""Machine-level tests for the cohort manager.

Covers the contract of ``compiled=True``: byte-identical metrics, EM-C
threads on codegen with the interpreter as fallback, native generator
threads running on the interpreter, fused reads in generated code, the
COHORT diagnostics in the Perfetto export, and the CLI's cohort line.
"""

from __future__ import annotations

import pytest

import repro
from repro import EMX, ExecutionPlan, MachineConfig
from repro.compile.differential import comparable_compile_report
from repro.emc import load_emc


def _pingpong_machine(compiled: bool, obs=None, n_pes: int = 4, per_pe: int = 4):
    """A native workload: every PE reads a neighbour slot and writes the
    result back locally."""
    m = EMX(MachineConfig(n_pes=n_pes, compiled=compiled), obs)

    @m.thread
    def worker(ctx, peer, slot):
        yield ctx.compute(5)
        value = yield ctx.read(ctx.ga(peer, slot))
        yield ctx.write(ctx.ga(ctx.pe, 16 + slot), value)

    for pe in range(n_pes):
        for slot in range(per_pe):
            m.pes[pe].memory.write(slot, 100 * pe + slot)
            m.spawn(pe, "worker", (pe + 1) % n_pes, slot)
    return m


def test_compiled_run_metric_identical():
    """Native generator threads run on the interpreter under
    ``compiled=True``: identical report, every thread counted as
    interpreted, occupancy 0."""
    interpreted = _pingpong_machine(False).run()
    compiled = _pingpong_machine(True).run()
    assert comparable_compile_report(interpreted) == comparable_compile_report(
        compiled
    )
    assert interpreted.cohort is None
    summary = compiled.cohort
    assert summary["gen_interpreted_threads"] == 16
    assert summary["emc_codegen_threads"] == 0
    assert summary["occupancy"] == 0.0


def test_compiled_memory_state_matches():
    a, b = _pingpong_machine(False), _pingpong_machine(True)
    a.run(), b.run()
    for pe in range(4):
        for slot in range(4):
            assert a.pes[pe].memory.read(16 + slot) == b.pes[pe].memory.read(
                16 + slot
            )


def test_emc_front_end_uses_codegen_tier():
    report = repro.run("emc-sort", n=64, n_pes=4, h=2,
                       plan=ExecutionPlan(compiled=True))
    summary = report.cohort
    assert summary["emc_codegen_threads"] > 0
    assert summary["emc_interp_threads"] == 0
    assert summary["occupancy"] == 1.0


def test_emc_compiled_matches_interpreted():
    base = dict(n=64, n_pes=4, h=2)
    interpreted = repro.run("emc-sort", **base)
    compiled = repro.run("emc-sort", plan=ExecutionPlan(compiled=True), **base)
    assert comparable_compile_report(interpreted) == comparable_compile_report(
        compiled
    )


def test_config_compiled_flag_round_trip():
    """compiled=True via config object, the execution plan, and default
    off all agree on whether the cohort section exists."""
    via_config = repro.run(
        "sort", n=32, n_pes=4, h=1, config=MachineConfig(compiled=True)
    )
    via_plan = repro.run(
        "sort", n=32, n_pes=4, h=1, plan=ExecutionPlan(compiled=True)
    )
    off = repro.run("sort", n=32, n_pes=4, h=1)
    assert via_config.cohort is not None
    assert via_plan.cohort is not None
    assert off.cohort is None


def test_too_deep_loop_nest_falls_back_to_interpreter():
    """21 nested loops exceed CPython's 20-block static limit: codegen
    declines the thread and it runs interpreted, byte-identically."""
    depth = 21
    loops = "".join(
        f"for (var i{d} = 0; i{d} < 1; i{d} = i{d} + 1) {{ " for d in range(depth)
    )
    source = (
        f"thread deep(peer) {{ var total = 0; {loops}"
        f"total = total + rread(peer, 0); {'} ' * depth}mem[8] = total; }}"
    )

    def run(compiled):
        m = EMX(MachineConfig(n_pes=2, compiled=compiled))
        load_emc(m, source)
        m.pes[1].memory.write(0, 11)
        m.spawn(0, "deep", 1)
        return m.run()

    interpreted, compiled = run(False), run(True)
    assert comparable_compile_report(interpreted) == comparable_compile_report(
        compiled
    )
    assert compiled.cohort["emc_interp_threads"] == 1


# ----------------------------------------------------------------------
# Fused effects: one yield for Compute + RemoteRead, same accounting
# ----------------------------------------------------------------------
def _drive(gen, replies):
    """Collect the effect stream of a guest generator, answering each
    suspending effect from ``replies``."""
    from repro.core.effects import FusedRead, FusedReadPair

    effects, send = [], None
    it = iter(replies)
    try:
        while True:
            eff = gen.send(send)
            effects.append(eff)
            send = next(it) if type(eff) in (FusedRead, FusedReadPair) else None
    except StopIteration:
        return effects


class _FakeMem:
    size = 4096
    reads = 0
    writes = 0

    def __init__(self):
        self._words: dict = {}


class _FakeCtx:
    pe = 0
    n_pes = 4

    def __init__(self):
        self.mem = _FakeMem()
        self.state: dict = {}


@pytest.mark.parametrize("source,reply,fused", [
    ("thread f(mate) { var v = rread(mate, 8); mem[0] = v; }", 7, "FusedRead"),
    ("thread f(mate) { var p = rread2(mate, 8, 9); mem[0] = at(p, 0); }",
     (3, 4), "FusedReadPair"),
], ids=["FusedRead", "FusedReadPair"])
def test_emc_tiers_fuse_reads_identically(source, reply, fused):
    """EM-C codegen emits the fused Compute+read effect, addressed to
    the thread's ``mate`` argument."""
    from repro.compile.codegen import codegen_thread
    from repro.emc import compile_program

    compiled = compile_program(source)
    tdef = compiled.ast.threads["f"]
    fn = codegen_thread(compiled.ast, tdef, compiled.env, compiled.costs)

    coded = _drive(fn(_FakeCtx(), 1), [reply])
    assert fused in {type(e).__name__ for e in coded}
    addr = next(e for e in coded if type(e).__name__ == fused)
    assert (addr.addr_a.pe if fused == "FusedReadPair" else addr.addr.pe) == 1


# ----------------------------------------------------------------------
# Observability: COHORT events in the Perfetto export
# ----------------------------------------------------------------------
def _recorded_compiled_emc_run():
    from repro.obs import EventBus, RingRecorder

    bus = EventBus()
    rec = RingRecorder(bus)
    repro.run("emc-sort", n=16, n_pes=2, h=2, obs=bus,
              plan=ExecutionPlan(compiled=True))
    return rec.events


def test_cohort_events_reach_the_perfetto_export():
    """Every EM-C thread's tier decision is recorded and renders as one
    ``cohort:*`` instant on the track of the PE that made it."""
    from repro.obs.events import CohortEvent
    from repro.obs.perfetto import to_perfetto, validate_perfetto

    events = _recorded_compiled_emc_run()
    cohort = [ev for ev in events if type(ev) is CohortEvent]
    assert cohort and {ev.kind for ev in cohort} == {"emc_codegen"}
    trace = to_perfetto(events, n_pes=2)
    assert validate_perfetto(trace) == []
    markers = [ev for ev in trace["traceEvents"] if ev["name"] == "cohort:emc_codegen"]
    assert all(m["ph"] == "i" for m in markers)
    assert sorted(m["pid"] for m in markers) == sorted(ev.pe for ev in cohort)


# ----------------------------------------------------------------------
# Diagnostics formatting
# ----------------------------------------------------------------------
def test_format_cohort_lists_tiers():
    from repro.metrics.report import format_cohort

    real = repro.run("emc-sort", n=64, n_pes=4, h=2,
                     plan=ExecutionPlan(compiled=True)).cohort
    text = format_cohort(real)
    assert text.startswith("cohorts: occupancy 1.00")
    assert f"emc-codegen {real['emc_codegen_threads']}" in text


def test_format_cohort_native_run_is_all_interpreted():
    from repro.metrics.report import format_cohort

    real = repro.run("sort", n=64, n_pes=4, h=2,
                     plan=ExecutionPlan(compiled=True)).cohort
    assert format_cohort(real) == "cohorts: occupancy 0.00  gen-interp 8"
