"""The engine's event calendar: time order, same-cycle FIFO, heap folds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import WINDOW, Engine


def test_same_time_is_fifo():
    e = Engine()
    log = []
    for i in range(20):
        e.schedule_at(7, log.append, i)
    e.run()
    assert log == list(range(20))


def test_negative_time_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule_at(-1, lambda: None)


@given(st.lists(st.integers(min_value=0, max_value=3 * WINDOW), min_size=1, max_size=200))
def test_pop_sequence_is_sorted_and_stable(times):
    """Events fire sorted by time, ring and heap alike; equal times keep
    push order."""
    e = Engine()
    out = []
    for i, t in enumerate(times):
        e.schedule_at(t, lambda t, i: out.append((e.now, t, i)), t, i)
    e.run()
    assert [now for now, t, _ in out] == [t for _, t, _ in out] == sorted(times)
    # Stability: among equal times, push indices ascend.
    by_time: dict[int, list[int]] = {}
    for _, t, i in out:
        by_time.setdefault(t, []).append(i)
    for seqs in by_time.values():
        assert seqs == sorted(seqs)


def test_next_cycle_folds_due_far_entries_in_front_of_the_bucket():
    e = Engine()
    log = []
    due = 9 + WINDOW
    e.schedule_at(10, log.append, "a")
    e.schedule_at(due, log.append, "far")  # beyond the window: far heap
    assert e.run(until=10) == 10  # the cursor moves to 10: `due` is in the ring's reach
    e.schedule_at(due, log.append, "near")
    assert e._next_cycle(limit=due - 1) == (due, None)  # past the limit: untouched
    assert len(e._far) == 1
    t, bucket = e._next_cycle(limit=due)
    assert t == due and [args for _, args in bucket] == [("far",), ("near",)]
    assert not e._far
    assert e.run() == due
    assert log == ["a", "far", "near"]
