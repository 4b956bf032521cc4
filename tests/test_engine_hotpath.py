"""The calendar hot path: differential against the reference engine.

The calendar engine must be observably identical to the single-heap
:class:`ReferenceEngine`: the same events at the same cycles on random
handler trees, and the same simulation results event for event.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig
from repro.apps.bitonic import run_bitonic
from repro.errors import SimulationError
from repro.machine import machine as machine_mod
from repro.obs import EventBus, RingRecorder, write_perfetto
from repro.sim import WINDOW, Engine, ReferenceEngine

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _noop(*_args):
    pass


# ----------------------------------------------------------------------
# Differential: calendar engine vs reference engine
# ----------------------------------------------------------------------
#: Delays that straddle the ring's width: spills to the far heap, folds
#: back into a bucket, and cursor re-anchors after idle gaps.
_WIDE_DELAYS = st.integers(WINDOW - 8, 2 * WINDOW + 8)


@st.composite
def _handler_forest(draw):
    """Random handler trees: each handler schedules 0-3 children.

    Returns ``(roots, late, children)``: ``roots`` are ``(cycle, label)``
    pairs scheduled up front, ``late`` are groups of root labels pushed
    at ``now`` between paused runs, and ``children`` maps a label to its
    ``(delay, child)`` list.
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
            delay = draw(st.one_of(st.just(0), st.integers(0, 60), _WIDE_DELAYS))
            kids.append((delay, label))
            frontier.append(label)
            label += 1
        children[parent] = kids
    roots = [(draw(st.integers(0, 3 * WINDOW)), r) for r in range(n_roots)]
    late, start = [], n_roots
    for size in late_sizes:
        late.append(list(range(start, start + size)))
        start += size
    return roots, late, children


def _drive_forest(engine_cls, forest, steps):
    """Run ``forest`` on a fresh engine; pause ``steps`` times first."""
    roots, late, children = forest
    eng = engine_cls()
    trace = []

    def fire(label):
        trace.append((eng.now, label))
        for delay, child in children[label]:
            eng.schedule(delay, fire, child)

    for when, label in roots:
        eng.schedule_at(when, fire, label)
    for step, group in zip(steps, late):
        eng.run(until=eng.now + step)
        for label in group:
            eng.schedule(0, fire, label)
    end = eng.run()
    assert eng.pending == 0
    return trace, eng.events_fired, end


@given(
    _handler_forest(),
    st.lists(st.one_of(st.integers(0, 90), _WIDE_DELAYS), min_size=1, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_calendar_engine_matches_reference_engine(forest, steps):
    """The batch drain fires the same events at the same cycles.

    Handlers schedule children (same-cycle ones included) while the
    engine drains; delays and roots on both sides of the ring's width
    force far-heap spills, folds and cursor re-anchors.  The forest
    runs once straight to completion and once through
    ``run(until=...)`` pauses with new roots pushed at ``now`` between
    runs.
    """
    for pauses in ([], steps):
        fast = _drive_forest(Engine, forest, pauses)
        slow = _drive_forest(ReferenceEngine, forest, pauses)
        assert fast == slow


def test_full_simulation_identical_on_reference_queue(monkeypatch):
    """An end-to-end run is bit-identical across the two engines."""
    fast = run_bitonic(n_pes=4, n=64, h=4, seed=0).report
    monkeypatch.setattr(machine_mod, "Engine", ReferenceEngine)
    slow = run_bitonic(n_pes=4, n=64, h=4, seed=0).report
    assert fast.runtime_cycles == slow.runtime_cycles
    assert fast.events_fired == slow.events_fired
    assert fast.network.packets == slow.network.packets
    assert fast.network.total_latency == slow.network.total_latency
    assert fast.breakdown == slow.breakdown
    assert [c.total_switches for c in fast.counters] == [
        c.total_switches for c in slow.counters
    ]


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
@pytest.mark.parametrize(
    "config", [MachineConfig(), MachineConfig(compiled=True)],
    ids=["detailed", "compiled"],
)
def test_perfetto_golden_byte_identical(tmp_path, config):
    """A compiled native run runs the interpreter, so it must export
    exactly the detailed golden too."""
    bus = EventBus()
    rec = RingRecorder(bus)
    run_bitonic(n_pes=2, n=16, h=2, seed=0, obs=bus, config=config)
    path = write_perfetto(tmp_path / "out.perfetto.json", rec.events, n_pes=2)
    golden = GOLDEN_DIR / "sort_p2_n16_h2.perfetto.json"
    assert path.read_bytes() == golden.read_bytes()
