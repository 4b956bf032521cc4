"""The calendar-queue hot path: differential, determinism, tombstones.

The batch-drain engine must be observably identical to the reference
heapq engine: same pop order on arbitrary push/cancel workloads, same
simulation results event for event, and the same cancel semantics under
fire/cancel races.  These tests pin all three.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bitonic import run_bitonic
from repro.errors import SimulationError
from repro.machine import machine as machine_mod
from repro.obs import EventBus, RingRecorder, write_perfetto
from repro.sim.engine import Engine
from repro.sim.queue import EventQueue, ReferenceEventQueue

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _noop(*_args):
    pass


# ----------------------------------------------------------------------
# Differential: calendar queue vs reference heapq
# ----------------------------------------------------------------------
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_calendar_matches_reference_on_random_workload(data):
    """Identical pop order on interleaved random push/cancel/pop.

    A deliberately tiny window (16 cycles against times up to 200)
    forces constant far-tier spills and below-base pushes, so the
    two-tier plumbing — not just the happy bucket path — is compared.
    """
    cal = EventQueue(window=16)
    ref = ReferenceEventQueue()
    handles: list[tuple] = []
    for i in range(data.draw(st.integers(10, 120))):
        op = data.draw(st.sampled_from(("push", "push", "push", "cancel", "pop")))
        if op == "push":
            t = data.draw(st.integers(0, 200))
            handles.append((cal.push(t, _noop, i), ref.push(t, _noop, i)))
        elif op == "cancel" and handles:
            ch, rh = handles[data.draw(st.integers(0, len(handles) - 1))]
            cal.cancel(ch)
            ref.cancel(rh)
        elif op == "pop" and ref:
            a, b = cal.pop(), ref.pop()
            assert (a.time, a.seq, a.args) == (b.time, b.seq, b.args)
        assert len(cal) == len(ref)
        assert cal.peek_time() == ref.peek_time()
    while ref:
        a, b = cal.pop(), ref.pop()
        assert (a.time, a.seq, a.args) == (b.time, b.seq, b.args)
    assert not cal


@st.composite
def _handler_forest(draw):
    """Random handler trees: each handler schedules 0-3 children.

    Returns ``(roots, late, children, cancels)``: ``roots`` are
    ``(cycle, label)`` pairs scheduled up front, ``late`` are groups of
    root labels pushed at ``now`` between paused runs, ``children`` maps
    a label to its ``(delay, child)`` list, and ``cancels`` maps a label
    to another label whose pending event it cancels when it fires.
    """
    n_roots = draw(st.integers(1, 4))
    late_sizes = draw(st.lists(st.integers(1, 2), max_size=5))
    n_top = n_roots + sum(late_sizes)
    children: dict[int, list] = {}
    frontier = list(range(n_top))
    label = n_top
    while frontier:
        parent = frontier.pop(0)
        kids = []
        for _ in range(draw(st.integers(0, 3))):
            if label >= 80:
                break
            delay = draw(st.one_of(st.just(0), st.integers(0, 60)))
            kids.append((delay, label))
            frontier.append(label)
            label += 1
        children[parent] = kids
    cancels = {
        parent: draw(st.integers(0, label - 1))
        for parent in children
        if draw(st.integers(0, 7)) == 0
    }
    roots = [(draw(st.integers(0, 200)), r) for r in range(n_roots)]
    late, start = [], n_roots
    for size in late_sizes:
        late.append(list(range(start, start + size)))
        start += size
    return roots, late, children, cancels


def _drive_forest(queue, forest, steps):
    """Run ``forest`` on an engine over ``queue``; pause ``steps`` times."""
    roots, late, children, cancels = forest
    eng = Engine(queue=queue)
    trace = []
    handles = {}

    def fire(label):
        trace.append((eng.now, label))
        target = cancels.get(label)
        if target in handles:
            eng.cancel(handles[target])
        for delay, child in children[label]:
            handles[child] = eng.schedule(delay, fire, child)

    for when, label in roots:
        handles[label] = eng.schedule_at(when, fire, label)
    for step, group in zip(steps, late):
        eng.run(until=eng.now + step)
        for label in group:
            handles[label] = eng.schedule(0, fire, label)
    end = eng.run()
    assert not eng.queue
    return trace, eng.events_fired, end


@given(_handler_forest(), st.lists(st.integers(0, 90), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_calendar_engine_matches_reference_engine(forest, steps):
    """The batch drain fires the same events at the same cycles.

    Handlers schedule children (same-cycle ones included) and cancel
    pending events while the engine drains; a 16-cycle window against
    delays up to 60 forces far-tier folds and cursor re-anchors.  The
    forest runs once straight to completion and once through
    ``run(until=...)`` pauses with new roots pushed at ``now`` between
    runs.
    """
    for pauses in ([], steps):
        fast = _drive_forest(EventQueue(window=16), forest, pauses)
        slow = _drive_forest(ReferenceEventQueue(), forest, pauses)
        assert fast == slow


def _on_reference_engine(fn):
    """Run ``fn`` with machines built on the reference heapq engine."""
    orig = machine_mod.Engine
    machine_mod.Engine = lambda max_cycles: Engine(
        max_cycles, queue=ReferenceEventQueue()
    )
    try:
        return fn()
    finally:
        machine_mod.Engine = orig


def test_full_simulation_identical_on_reference_queue():
    """An end-to-end run is bit-identical across the two engines."""
    fast = run_bitonic(n_pes=4, n=64, h=4, seed=0).report
    slow = _on_reference_engine(lambda: run_bitonic(n_pes=4, n=64, h=4, seed=0)).report
    assert fast.runtime_cycles == slow.runtime_cycles
    assert fast.events_fired == slow.events_fired
    assert fast.network.packets == slow.network.packets
    assert fast.network.total_latency == slow.network.total_latency
    assert fast.breakdown == slow.breakdown
    assert [c.total_switches for c in fast.counters] == [
        c.total_switches for c in slow.counters
    ]


def test_generic_engine_path_still_works():
    eng = Engine(queue=ReferenceEventQueue())
    out = []
    eng.schedule(3, out.append, 1)
    eng.schedule_at(5, out.append, 2)
    eng.run()
    assert out == [1, 2]
    assert eng.now == 5


# ----------------------------------------------------------------------
# Cancel semantics (tombstone slots)
# ----------------------------------------------------------------------
def test_len_never_counts_tombstones():
    q = EventQueue()
    h1 = q.push(1, _noop)
    h2 = q.push(2, _noop)
    assert len(q) == 2
    q.cancel(h1)
    assert len(q) == 1
    q.cancel(h1)  # double cancel: no drift
    assert len(q) == 1
    assert q.pop().time == 2
    assert len(q) == 0
    q.cancel(h2)  # cancel after fire: strict no-op
    assert len(q) == 0 and not q


def test_engine_cancel_after_fire_is_noop():
    eng = Engine()
    fired = []
    handle = eng.schedule(1, fired.append, "x")
    eng.run()
    assert fired == ["x"]
    eng.cancel(handle)
    eng.cancel(handle)
    assert len(eng.queue) == 0
    assert eng.events_fired == 1


def test_same_cycle_cancel_races_the_drain():
    """An event cancelling a later same-cycle event must win the race."""
    eng = Engine()
    fired = []
    h2 = None
    eng.schedule(5, lambda: eng.cancel(h2))
    h2 = eng.schedule(5, fired.append, "second")
    eng.run()
    assert fired == []
    assert eng.events_fired == 1
    assert len(eng.queue) == 0


def test_fast_schedule_keeps_validation():
    eng = Engine()
    seen = []
    eng.schedule_at(2, seen.append, "a")
    eng.run()
    assert seen == ["a"] and eng.now == 2
    with pytest.raises(SimulationError):
        eng.schedule_at(1, _noop)  # in the past
    with pytest.raises(SimulationError):
        eng.schedule(-1, _noop)


# ----------------------------------------------------------------------
# Golden trace: the batch drain may not move a single event
# ----------------------------------------------------------------------
def test_perfetto_golden_byte_identical(tmp_path):
    bus = EventBus()
    rec = RingRecorder(bus)
    run_bitonic(n_pes=2, n=16, h=2, seed=0, obs=bus)
    path = write_perfetto(tmp_path / "out.perfetto.json", rec.events, n_pes=2)
    golden = GOLDEN_DIR / "sort_p2_n16_h2.perfetto.json"
    assert path.read_bytes() == golden.read_bytes()
