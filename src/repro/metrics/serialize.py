"""Machine-readable experiment records.

Reports and run records serialise to plain dictionaries (JSON-safe) so
downstream tooling — plotting scripts, regression trackers, the CLI's
``--json`` flag — can consume runs without importing simulator types.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import SimulationError
from .counters import Bucket, PECounters, SwitchKind

__all__ = [
    "counters_to_dict",
    "report_to_dict",
    "report_to_json",
    "run_record_to_dict",
    "run_record_from_dict",
    "run_record_from_report",
]


def counters_to_dict(c: PECounters) -> dict[str, Any]:
    """One processor's counters as a JSON-safe dict."""
    return {
        "pe": c.pe,
        "cycles": {b.value: v for b, v in c.cycles.items()},
        "switches": {k.value: v for k, v in c.switches.items()},
        "reads_issued": c.reads_issued,
        "block_reads_issued": c.block_reads_issued,
        "block_words_requested": c.block_words_requested,
        "writes_issued": c.writes_issued,
        "spawns_issued": c.spawns_issued,
        "reads_serviced": c.reads_serviced,
        "packets_handled": c.packets_handled,
        "threads_started": c.threads_started,
        "threads_finished": c.threads_finished,
        "ibu_overflows": c.ibu_overflows,
        "sync_stall_cycles": c.sync_stall_cycles,
        "busy_span": c.busy_span,
    }


def report_to_dict(report) -> dict[str, Any]:
    """A :class:`~repro.machine.MachineReport` as a JSON-safe dict.

    Compiled runs add a ``cohort`` section (the compiler's accounting);
    interpreted runs serialise exactly as they always have, so cached
    records and goldens are unaffected.
    """
    breakdown = report.breakdown
    out = {
        "config": {
            "n_pes": report.config.n_pes,
            "em4_mode": report.config.em4_mode,
            "network_model": report.config.network_model,
            "priority_replies": report.config.priority_replies,
            "seed": report.config.seed,
        },
        "runtime_cycles": report.runtime_cycles,
        "runtime_seconds": report.runtime_seconds,
        "comm_seconds": report.comm_seconds,
        "comm_fig6_seconds": report.comm_fig6_seconds,
        "events_fired": report.events_fired,
        "breakdown_pct": breakdown.percentages(),
        "switches_per_pe": {k.value: report.switches(k) for k in SwitchKind},
        "network": {
            "packets": report.network.packets,
            "words": report.network.words,
            "mean_latency": report.network.mean_latency,
            "p50_latency": report.network.p50_latency,
            "p95_latency": report.network.p95_latency,
            "max_latency": report.network.max_latency,
            "mean_hops": report.network.mean_hops,
            "max_in_flight": report.network.max_in_flight,
            "max_port_wait": report.network.max_port_wait,
        },
        "per_pe": [counters_to_dict(c) for c in report.counters],
    }
    if getattr(report, "cohort", None) is not None:
        out["cohort"] = dict(report.cohort)
    return out


def run_record_from_report(
    app: str, n_pes: int, npp: int, h: int, report, verified: bool
):
    """Build the figure-facing ``RunRecord`` from a machine report.

    The single packing point between the simulator's
    :class:`~repro.machine.MachineReport` and the experiment layer's
    :class:`~repro.experiments.common.RunRecord` — the sweep runner,
    its worker processes, and any ad-hoc caller all share this mapping
    so the two representations cannot drift apart.
    """
    from ..experiments.common import RunRecord  # lazy: avoids an import cycle

    return RunRecord(
        app=app,
        n_pes=n_pes,
        npp=npp,
        h=h,
        runtime_seconds=report.runtime_seconds,
        comm_seconds=report.comm_fig6_seconds,
        comm_idle_seconds=report.comm_seconds,
        breakdown_pct=tuple(sorted(report.breakdown.percentages().items())),
        switches_per_pe=tuple((k.value, report.switches(k)) for k in SwitchKind),
        verified=verified,
        events=report.events_fired,
    )


def run_record_to_dict(record) -> dict[str, Any]:
    """A ``RunRecord`` as a JSON-safe dict (inverse of ``from_dict``)."""
    return {
        "app": record.app,
        "n_pes": record.n_pes,
        "npp": record.npp,
        "h": record.h,
        "runtime_seconds": record.runtime_seconds,
        "comm_seconds": record.comm_seconds,
        "comm_idle_seconds": record.comm_idle_seconds,
        "breakdown_pct": [[name, pct] for name, pct in record.breakdown_pct],
        "switches_per_pe": [[kind, count] for kind, count in record.switches_per_pe],
        "verified": record.verified,
        "events": record.events,
    }


def run_record_from_dict(payload: dict[str, Any]):
    """Rebuild a ``RunRecord`` from :func:`run_record_to_dict` output.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    payloads; the disk cache treats any of those as a miss.
    """
    from ..experiments.common import RunRecord  # lazy: avoids an import cycle

    return RunRecord(
        app=str(payload["app"]),
        n_pes=int(payload["n_pes"]),
        npp=int(payload["npp"]),
        h=int(payload["h"]),
        runtime_seconds=float(payload["runtime_seconds"]),
        comm_seconds=float(payload["comm_seconds"]),
        comm_idle_seconds=float(payload["comm_idle_seconds"]),
        breakdown_pct=tuple(
            (str(name), float(pct)) for name, pct in payload["breakdown_pct"]
        ),
        switches_per_pe=tuple(
            (str(kind), float(count)) for kind, count in payload["switches_per_pe"]
        ),
        verified=bool(payload["verified"]),
        events=int(payload["events"]),
    )


def report_to_json(report, indent: int | None = None) -> str:
    """Serialise a report to a JSON string (round-trippable by json)."""
    try:
        return json.dumps(report_to_dict(report), indent=indent)
    except (TypeError, ValueError) as exc:  # pragma: no cover - safety net
        raise SimulationError(f"report not JSON-serialisable: {exc}") from exc
