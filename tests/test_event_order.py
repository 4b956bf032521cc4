"""The firing order of whole simulations, pinned event by event.

``golden_runs.json`` pins totals and the Perfetto golden pins one traced
run.  This golden pins the order itself: for each run, the number of
fired events and a sha256 over the ``(time, seq)`` of every one, in
firing order.  A change that makes the hot path cheaper must leave every
event in its ``(time, seq)`` slot, on every path it touches: the
detailed and analytic networks, the by-passing DMA and the EM-4 service,
read pairs through matching memory, priority replies and compiled EM-C.

The runs use the reference heapq engine, whose ``pop`` is the one place
every event passes; the calendar engine fires in the same order (see
``test_engine_hotpath.py``).

Regenerate deliberately, after a change meant to move events::

    PYTHONPATH=src python tests/test_event_order.py > tests/goldens/event_order.json
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro import ExecutionPlan, MachineConfig, run
from repro.machine import machine as machine_mod
from repro.sim.engine import Engine
from repro.sim.queue import ReferenceEventQueue

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "event_order.json"

#: name -> (app, machine config, plan); every run is P=4, n=64, h=2.
RUNS = {
    "sort": ("sort", MachineConfig(), None),
    "fft": ("fft", MachineConfig(), None),
    "sort_em4": ("sort", MachineConfig(em4_mode=True), None),
    "sort_analytic": ("sort", MachineConfig(network_model="analytic"), None),
    "sort_priority_replies": ("sort", MachineConfig(priority_replies=True), None),
    "emc_sort_compiled": ("emc-sort", MachineConfig(), ExecutionPlan(compiled=True)),
}


class LoggingQueue(ReferenceEventQueue):
    """The reference queue, hashing each popped event's ``(time, seq)``."""

    __slots__ = ("digest",)

    def __init__(self) -> None:
        super().__init__()
        self.digest = hashlib.sha256()

    def pop(self):
        ev = super().pop()
        self.digest.update(f"{ev.time},{ev.seq};".encode())
        return ev


def firing_order(name: str) -> dict:
    """``{"events_fired", "sha256"}`` of one run in :data:`RUNS`."""
    app, config, plan = RUNS[name]
    queues = []

    def logged_engine(max_cycles):
        queues.append(LoggingQueue())
        return Engine(max_cycles, queue=queues[-1])

    orig = machine_mod.Engine
    machine_mod.Engine = logged_engine
    try:
        report = run(app, n_pes=4, n=64, h=2, seed=0, config=config, plan=plan)
    finally:
        machine_mod.Engine = orig
    (queue,) = queues
    return {"events_fired": report.events_fired, "sha256": queue.digest.hexdigest()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_firing_order_matches_golden(name):
    assert firing_order(name) == json.loads(GOLDEN.read_text())[name]


def test_golden_covers_every_run():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(RUNS)


if __name__ == "__main__":
    json.dump({name: firing_order(name) for name in sorted(RUNS)}, sys.stdout,
              indent=2, sort_keys=True)
    sys.stdout.write("\n")
