"""Simulated time: ``Engine.now`` is the one clock.

Each test takes the engine class, the calendar :class:`Engine` by
default; ``test_reference_engine_keeps_the_clock`` runs every one of
them again on :class:`ReferenceEngine`.
"""

import inspect

import pytest

from repro.config import CLOCK_HZ, CYCLE_SECONDS
from repro.errors import SimulationError
from repro.sim import Engine, ReferenceEngine


def test_clock_starts_at_zero(engine=Engine):
    assert engine().now == 0


def test_clock_advances_forward(engine=Engine):
    e = engine()
    seen = []
    for when in (5, 5, 9):  # same-time events are legal
        e.schedule_at(when, lambda: seen.append(e.now))
    assert e.run() == 9
    assert seen == [5, 5, 9]


def test_cycle_seconds_is_50ns(engine=Engine):
    assert CYCLE_SECONDS == pytest.approx(50e-9)
    assert CLOCK_HZ == 20_000_000
    e = engine()
    e.schedule(CLOCK_HZ, lambda: None)  # one simulated second at 20 MHz
    assert e.run() * CYCLE_SECONDS == pytest.approx(1.0)


def test_clock_rejects_backwards(engine=Engine):
    e = engine()
    e.schedule(7, lambda: None)
    e.schedule(20, lambda: None)
    e.run(until=7)
    with pytest.raises(SimulationError, match="backwards"):
        e.run(until=6)  # a horizon behind now would rewind the clock


#: The clock tests above: every test that takes the engine class.
CLOCK = [
    test for name, test in list(globals().items())
    if name.startswith("test_") and "engine" in inspect.signature(test).parameters
]


@pytest.mark.parametrize("test", CLOCK, ids=lambda test: test.__name__)
def test_reference_engine_keeps_the_clock(test):
    test(ReferenceEngine)
