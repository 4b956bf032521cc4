"""Engine run-loop semantics: scheduling, limits, deadlock detection."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine
from repro.sim.queue import EventQueue, ReferenceEventQueue


def test_schedule_and_run_in_order():
    e = Engine()
    log = []
    e.schedule(10, log.append, "b")
    e.schedule(5, log.append, "a")
    e.schedule(10, log.append, "c")
    end = e.run()
    assert log == ["a", "b", "c"]
    assert end == 10


def test_events_can_schedule_more_events():
    e = Engine()
    log = []

    def chain(depth):
        log.append(depth)
        if depth < 3:
            e.schedule(2, chain, depth + 1)

    e.schedule(0, chain, 0)
    end = e.run()
    assert log == [0, 1, 2, 3]
    assert end == 6


def test_schedule_at_past_rejected():
    e = Engine()
    e.schedule(5, lambda: None)
    e.run()
    with pytest.raises(SimulationError):
        e.schedule_at(3, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1, lambda: None)


def test_run_until_pauses_without_error():
    e = Engine()
    fired = []
    e.schedule(5, fired.append, 1)
    e.schedule(50, fired.append, 2)
    end = e.run(until=10)
    assert fired == [1]
    assert end == 10
    e.run()
    assert fired == [1, 2]


@pytest.mark.parametrize("queue_cls", [EventQueue, ReferenceEventQueue])
def test_run_until_pauses_before_an_event_past_max_cycles(queue_cls):
    """The horizon is ``until``, not the next event: an event beyond
    ``max_cycles`` stays queued when the run pauses earlier."""
    e = Engine(max_cycles=100, queue=queue_cls())
    e.schedule_at(200, lambda: None)
    assert e.run(until=10) == 10
    assert len(e.queue) == 1 and e.events_fired == 0
    with pytest.raises(SimulationError, match="max_cycles"):
        e.run(until=150)  # a horizon past the limit still raises
    with pytest.raises(SimulationError, match="max_cycles"):
        e.run()


def test_max_cycles_exceeded_raises():
    e = Engine(max_cycles=100)

    def rescheduler():
        e.schedule(60, rescheduler)

    e.schedule(0, rescheduler)
    with pytest.raises(SimulationError, match="max_cycles"):
        e.run()


def test_quiescence_watcher_raises_deadlock():
    e = Engine()
    e.quiescence_watcher = lambda: "2 threads stuck"
    e.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="2 threads stuck"):
        e.run()


def test_quiescence_watcher_clean_exit():
    e = Engine()
    e.quiescence_watcher = lambda: None
    e.schedule(1, lambda: None)
    assert e.run() == 1


def test_cancel_scheduled_event():
    e = Engine()
    fired = []
    h = e.schedule(5, fired.append, "x")
    e.cancel(h)
    e.schedule(6, fired.append, "y")
    e.run()
    assert fired == ["y"]


def test_events_fired_counter():
    e = Engine()
    for i in range(7):
        e.schedule(i, lambda: None)
    e.run()
    assert e.events_fired == 7


def test_invalid_max_cycles():
    with pytest.raises(SimulationError):
        Engine(max_cycles=0)


def test_raising_handler_keeps_queue_accounting_exact():
    """A handler that raises mid-cycle leaves an exact live count, and a
    later run() fires the rest of that cycle, in order, then returns."""
    e = Engine()
    log = []

    def boom():
        raise RuntimeError("boom")

    e.schedule(5, boom)
    e.schedule(5, log.append, "f")
    e.schedule(9, log.append, "g")
    with pytest.raises(RuntimeError, match="boom"):
        e.run()
    assert len(e.queue) == 2
    assert e.events_fired == 1
    assert e.run() == 9
    assert log == ["f", "g"]
    assert len(e.queue) == 0 and e.events_fired == 3


def test_idle_gap_longer_than_window_reanchors_the_cursor():
    """After a gap longer than the ring, pushes land in the ring again
    instead of spilling every later event to the far tier."""
    e = Engine(queue=EventQueue(window=16))
    fired = []
    far_sizes = []

    def link(k):
        fired.append((e.now, k))
        if k < 24:
            e.schedule(3, link, k + 1)
        far_sizes.append(len(e.queue._far))

    e.schedule_at(100, link, 0)
    assert e.run() == 100 + 3 * 24
    assert fired == [(100 + 3 * k, k) for k in range(25)]
    assert far_sizes == [0] * 25
