"""Event-queue ordering and cancellation tests (incl. hypothesis)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import EventQueue


def drain(q: EventQueue) -> list:
    out = []
    while q:
        ev = q.pop()
        out.append((ev.time, ev.args))
    return out


def test_pop_orders_by_time():
    q = EventQueue()
    q.push(5, lambda: None, "b")
    q.push(1, lambda: None, "a")
    q.push(9, lambda: None, "c")
    assert [t for t, _ in drain(q)] == [1, 5, 9]


def test_same_time_is_fifo():
    q = EventQueue()
    for i in range(20):
        q.push(7, lambda: None, i)
    assert [args[0] for _, args in drain(q)] == list(range(20))


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_negative_time_rejected():
    with pytest.raises(SimulationError):
        EventQueue().push(-1, lambda: None)


def test_cancel_removes_event():
    q = EventQueue()
    h1 = q.push(1, lambda: None, "a")
    q.push(2, lambda: None, "b")
    q.cancel(h1)
    assert len(q) == 1
    assert drain(q) == [(2, ("b",))]


def test_cancel_unknown_is_noop():
    q = EventQueue()
    q.cancel(12345)
    assert len(q) == 0


def test_peek_time_skips_cancelled():
    q = EventQueue()
    h = q.push(1, lambda: None)
    q.push(4, lambda: None)
    q.cancel(h)
    assert q.peek_time() == 4


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_len_and_bool():
    q = EventQueue()
    assert not q
    q.push(0, lambda: None)
    assert q and len(q) == 1


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
def test_pop_sequence_is_sorted_and_stable(times):
    """Events come out sorted by time; equal times keep push order."""
    q = EventQueue()
    for i, t in enumerate(times):
        q.push(t, lambda: None, t, i)
    out = [args for _, args in drain(q)]
    assert [t for t, _ in out] == sorted(times)
    # Stability: among equal times, sequence numbers ascend.
    by_time: dict[int, list[int]] = {}
    for t, i in out:
        by_time.setdefault(t, []).append(i)
    for seqs in by_time.values():
        assert seqs == sorted(seqs)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=50),
    st.data(),
)
def test_cancellation_never_loses_other_events(times, data):
    q = EventQueue()
    handles = [q.push(t, lambda: None, idx) for idx, t in enumerate(times)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) // 2)
    )
    for idx in to_cancel:
        q.cancel(handles[idx])
    survivors = {args[0] for _, args in drain(q)}
    assert survivors == set(range(len(times))) - to_cancel


def test_next_cycle_folds_due_far_entries_in_front_of_the_bucket():
    q = EventQueue(window=32)
    q.push(10, lambda: None, "a")
    q.push(40, lambda: None, "far")  # beyond the window: far tier
    assert q.pop().args == ("a",)  # cursor moves to 10; 40 is now near
    q.push(40, lambda: None, "near")
    assert q.next_cycle(limit=39) == (40, None)  # past the limit: untouched
    assert len(q._far) == 1
    t, bucket = q.next_cycle(limit=40)
    assert t == 40 and [e[3] for e in bucket] == [("far",), ("near",)]
    assert not q._far
    q.push(5, lambda: None, "behind")  # bare-queue push behind the cursor
    with pytest.raises(SimulationError, match="behind the drain cursor"):
        q.next_cycle(limit=100)
