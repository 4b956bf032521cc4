"""Simulated time: ``Engine.now`` is the one clock."""

import pytest

from repro.config import CLOCK_HZ, CYCLE_SECONDS
from repro.errors import SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_clock_advances_forward():
    e = Engine()
    seen = []
    for when in (5, 5, 9):  # same-time events are legal
        e.schedule_at(when, lambda: seen.append(e.now))
    assert e.run() == 9
    assert seen == [5, 5, 9]


def test_cycle_seconds_is_50ns():
    assert CYCLE_SECONDS == pytest.approx(50e-9)
    assert CLOCK_HZ == 20_000_000
    e = Engine()
    e.schedule(CLOCK_HZ, lambda: None)  # one simulated second at 20 MHz
    assert e.run() * CYCLE_SECONDS == pytest.approx(1.0)


def test_clock_rejects_backwards():
    e = Engine()
    e.schedule(7, lambda: None)
    e.schedule(20, lambda: None)
    e.run(until=7)
    with pytest.raises(SimulationError, match="backwards"):
        e.run(until=6)  # a horizon behind now would rewind the clock
