"""Engine run-loop semantics: scheduling, limits, deadlock detection.

Each test takes the engine class, the calendar :class:`Engine` by
default; ``test_reference_engine_keeps_the_contract`` runs every one of
them again on :class:`ReferenceEngine`.  It inherits ``run`` and
replaces only the calendar, so a wrong drain on either side breaks the
same pause, raise or quiescence test.
"""

import inspect

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import WINDOW, Engine, ReferenceEngine


def test_schedule_and_run_in_order(engine=Engine):
    e = engine()
    log = []
    e.schedule(10, log.append, "b")
    e.schedule(5, log.append, "a")
    e.schedule(10, log.append, "c")
    end = e.run()
    assert log == ["a", "b", "c"]
    assert end == 10


def test_events_can_schedule_more_events(engine=Engine):
    e = engine()
    log = []

    def chain(depth):
        log.append(depth)
        if depth < 3:
            e.schedule(2, chain, depth + 1)

    e.schedule(0, chain, 0)
    end = e.run()
    assert log == [0, 1, 2, 3]
    assert end == 6


def test_schedule_at_past_rejected(engine=Engine):
    e = engine()
    e.schedule(5, lambda: None)
    e.run()
    with pytest.raises(SimulationError):
        e.schedule_at(3, lambda: None)


def test_negative_delay_rejected(engine=Engine):
    with pytest.raises(SimulationError):
        engine().schedule(-1, lambda: None)


def test_run_until_pauses_without_error(engine=Engine):
    e = engine()
    fired = []
    e.schedule(5, fired.append, 1)
    e.schedule(50, fired.append, 2)
    end = e.run(until=10)
    assert fired == [1]
    assert end == 10
    e.run()
    assert fired == [1, 2]


def test_run_until_pauses_before_an_event_past_max_cycles(engine=Engine):
    """The horizon is ``until``, not the next event: an event beyond
    ``max_cycles`` stays pending when the run pauses earlier.  It lies
    beyond the ring, so on the calendar it waits in the far heap."""
    e = engine(max_cycles=100)
    e.schedule_at(WINDOW + 200, lambda: None)
    assert e.run(until=10) == 10
    assert e.pending == 1 and e.events_fired == 0
    with pytest.raises(SimulationError, match="max_cycles"):
        e.run(until=150)  # a horizon past the limit still raises
    with pytest.raises(SimulationError, match="max_cycles"):
        e.run()


def test_max_cycles_exceeded_raises(engine=Engine):
    e = engine(max_cycles=100)

    def rescheduler():
        e.schedule(60, rescheduler)

    e.schedule(0, rescheduler)
    with pytest.raises(SimulationError, match="max_cycles"):
        e.run()


def test_quiescence_watcher_raises_deadlock(engine=Engine):
    e = engine()
    e.quiescence_watcher = lambda: "2 threads stuck"
    e.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="2 threads stuck"):
        e.run()


def test_quiescence_watcher_clean_exit(engine=Engine):
    e = engine()
    e.quiescence_watcher = lambda: None
    e.schedule(1, lambda: None)
    assert e.run() == 1


def test_events_fired_counter(engine=Engine):
    e = engine()
    for i in range(7):
        e.schedule(i, lambda: None)
    e.run()
    assert e.events_fired == 7


def test_invalid_max_cycles(engine=Engine):
    with pytest.raises(SimulationError):
        engine(max_cycles=0)


def test_raising_handler_keeps_queue_accounting_exact(engine=Engine):
    """A handler that raises mid-cycle leaves an exact pending count, and
    a later run() fires the rest of that cycle, in order, then returns.
    The raising push equals the one before it, so the fired prefix must
    be found by identity."""
    e = engine()
    log = []

    def flaky(tag):
        log.append(tag)
        if log.count(tag) == 2:
            raise RuntimeError("boom")

    e.schedule(5, flaky, "x")
    e.schedule(5, flaky, "x")
    e.schedule(5, log.append, "f")
    e.schedule(9, log.append, "g")
    with pytest.raises(RuntimeError, match="boom"):
        e.run()
    assert e.pending == 2
    assert e.events_fired == 2
    e.schedule_at(5, log.append, "h")  # at the clock: after the rest of the cycle
    assert e.run() == 9
    assert log == ["x", "x", "f", "h", "g"]
    assert e.pending == 0 and e.events_fired == 5


def test_idle_gap_longer_than_window_reanchors_the_cursor():
    """After a gap longer than the ring, pushes land in the ring again
    instead of spilling every later event to the far heap."""
    e = Engine()
    fired = []
    far_sizes = []
    start = 2 * WINDOW + 100

    def link(k):
        fired.append((e.now, k))
        if k < 24:
            e.schedule(3, link, k + 1)
        far_sizes.append(len(e._far))

    e.schedule_at(start, link, 0)
    assert len(e._far) == 1
    assert e.run() == start + 3 * 24
    assert fired == [(start + 3 * k, k) for k in range(25)]
    assert far_sizes == [0] * 25


#: The contract tests above: every test that takes the engine class.
CONTRACT = [
    test for name, test in list(globals().items())
    if name.startswith("test_") and "engine" in inspect.signature(test).parameters
]


@pytest.mark.parametrize("test", CONTRACT, ids=lambda test: test.__name__)
def test_reference_engine_keeps_the_contract(test):
    test(ReferenceEngine)
