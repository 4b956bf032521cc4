"""Point measurements the paper quotes in passing.

* µ1 — "A typical remote read takes approximately 1 µs": a pinger
  thread issues sequential remote reads to targets at increasing hop
  distances; we report the issue-to-resume round trip in cycles and µs.
* µ2 — "We measured the overhead by using a null loop body, i.e., the
  loop body has no computation but instructions to generate packets":
  a thread issues remote writes only; the OVERHEAD bucket divided by
  the write count is the per-packet generation cost.

:func:`probes` takes both at the shapes ``python -m repro micro``
prints and ``python -m repro export`` judges.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CYCLE_SECONDS, MachineConfig
from ..machine import EMX
from ..metrics.counters import Bucket

__all__ = [
    "LatencyPoint",
    "measure_remote_read_latency",
    "OverheadResult",
    "measure_overhead_null_loop",
    "probes",
]


@dataclass(frozen=True)
class LatencyPoint:
    """Round-trip measurement against one target processor."""

    target: int
    hops: int
    cycles_per_read: float
    roundtrip_cycles: float  # EXU work per read removed

    @property
    def microseconds(self) -> float:
        """Round-trip latency in µs on the 20 MHz machine."""
        return self.roundtrip_cycles * CYCLE_SECONDS * 1e6


def _pinger(ctx, target: int, count: int):
    for k in range(count):
        _ = yield ctx.read(ctx.ga(target, k % 16))


def measure_remote_read_latency(
    n_pes: int = 64,
    reads: int = 256,
    targets: tuple[int, ...] | None = None,
    config: MachineConfig | None = None,
) -> list[LatencyPoint]:
    """Sequential remote-read round trips to targets at varied distances."""
    points = []
    base = (config or MachineConfig()).with_(n_pes=n_pes)
    if targets is None:
        targets = tuple(sorted({1, 2, n_pes // 4, n_pes // 2, n_pes - 1} - {0}))
    for target in targets:
        machine = EMX(base)
        machine.register(_pinger)
        machine.spawn(0, "_pinger", target, reads)
        report = machine.run()
        timing = machine.config.timing
        per_read = report.runtime_cycles / reads
        exu_work = timing.pkt_gen + timing.reg_save + timing.match_invoke
        points.append(
            LatencyPoint(
                target=target,
                hops=machine.network.topology.hop_count(0, target),
                cycles_per_read=per_read,
                roundtrip_cycles=per_read - exu_work,
            )
        )
    return points


@dataclass(frozen=True)
class OverheadResult:
    """Null-loop packet-generation overhead."""

    writes: int
    overhead_cycles: int
    cycles_per_packet: float


def _null_writer(ctx, target: int, count: int):
    for k in range(count):
        yield ctx.write(ctx.ga(target, k % 16), k)


def measure_overhead_null_loop(
    n_pes: int = 16,
    writes: int = 1024,
    config: MachineConfig | None = None,
) -> OverheadResult:
    """The paper's null-loop probe: packet generation cost in isolation."""
    machine = EMX((config or MachineConfig()).with_(n_pes=n_pes))
    machine.register(_null_writer)
    machine.spawn(0, "_null_writer", 1, writes)
    report = machine.run()
    overhead = report.counters[0].cycles[Bucket.OVERHEAD]
    return OverheadResult(
        writes=writes,
        overhead_cycles=overhead,
        cycles_per_packet=overhead / writes,
    )


def probes() -> dict:
    """µ1 on the 64-PE machine and µ2's null loop as tables, unrounded."""
    latency = measure_remote_read_latency(n_pes=64, reads=256)
    overhead = measure_overhead_null_loop(n_pes=16, writes=2048)
    return {
        "mu1": {
            "title": "u1: remote read latency on the 64-PE machine (paper: ~1 us)",
            "rows": [
                {
                    "target": p.target,
                    "hops": p.hops,
                    "roundtrip_cycles": p.roundtrip_cycles,
                    "latency_us": p.microseconds,
                }
                for p in latency
            ],
        },
        "mu2": {
            "title": "u2: null-loop packet generation overhead (EMC-Y: 1 clock)",
            "rows": [
                {
                    "writes": overhead.writes,
                    "overhead_cycles": overhead.overhead_cycles,
                    "cycles_per_packet": overhead.cycles_per_packet,
                }
            ],
        },
    }
