"""Ablations A1–A7: the design choices and extensions of DESIGN.md §4.

Each function runs one ablation at a fixed shape (the same at every
``REPRO_SCALE``) and returns its table, ``{"title": ..., "rows": [...]}``
with one dict per row, rounded as the table prints.
:mod:`~repro.experiments.results` judges the rows and writes them to
``RESULTS_<scale>.json``.

A1–A4 and A6 are whole-workload runs through the
:class:`~repro.runner.Runner` they are given, one batch per ablation,
so they share its memo, cache and ``--jobs`` workers with the figure
sweeps; the runner raises :class:`~repro.errors.ProgramError` when a
sort comes back unsorted.
Three parts of the evaluation stay direct and run again on every
export: A5 needs ``block_reads``, an app option a
:class:`~repro.runner.JobSpec` does not carry, so it calls
:func:`repro.run`, which raises the same error; A7 drives the network
model on its own; and the µ1/µ2 probes
(:mod:`~repro.experiments.microbench`) drive a bare machine.
"""

from __future__ import annotations

import random

from ..analysis import OmegaLoadModel, SaavedraModel
from ..api import run
from ..config import TimingModel
from ..metrics.counters import SwitchKind
from ..network import CircularOmegaTopology, DetailedOmegaNetwork
from ..packet import Packet, PacketKind
from ..runner.jobs import JobSpec
from ..runner.sweep import Runner
from ..sim import Engine

__all__ = ["run_ablations"]


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 1)


def _records(runner: Runner, points, *policies: dict) -> list[list]:
    """Run records at each (app, P, n/P, h) point, one list per machine
    policy, satisfied through ``runner`` as one batch."""
    groups = [[JobSpec(*point, **policy) for point in points] for policy in policies]
    records = runner.run([spec for group in groups for spec in group])
    return [[records[spec] for spec in group] for group in groups]


def bypass_dma(runner: Runner) -> dict:
    """A1: the by-passing DMA vs. EM-4-style EXU read servicing.

    The paper singles out the IBU→MCU→OBU by-pass as EM-X's key
    feature: remote reads are serviced "without consuming the cycles of
    the Execution Unit", whereas EM-4 ran each read as a one-instruction
    thread.
    """
    points = (("sort", 16, 64, 4), ("fft", 16, 64, 4))
    runs = _records(runner, points, {}, {"em4_mode": True})
    rows = []
    for (app, _, _, h), emx, em4 in zip(points, *runs):
        rows.append({
            "app": app,
            "threads": h,
            "emx_us": _us(emx.runtime_seconds),
            "em4_us": _us(em4.runtime_seconds),
            "slowdown": round(em4.runtime_seconds / emx.runtime_seconds, 3),
        })
    return {"title": "A1: by-passing DMA vs EXU-serviced remote reads", "rows": rows}


def saavedra_model(runner: Runner) -> dict:
    """A2: the Saavedra-Barrera model's E vs. the simulated idle reduction.

    The paper cites [16]'s linear/transition/saturation analysis and
    uses its arithmetic (latency / run length) to explain the 2–4-thread
    optimum.
    """
    threads = (1, 2, 3, 4, 8)
    models = {
        "sort": SaavedraModel.for_sorting(latency=14),
        "fft": SaavedraModel.for_fft(latency=14),
    }
    points = [(app, 16, 128, h) for app in models for h in threads]
    [records] = _records(runner, points, {})
    idle = {(rec.app, rec.h): rec.comm_idle_seconds for rec in records}
    rows = []
    for app, model in models.items():
        for h in threads:
            measured = 1.0 - idle[app, h] / idle[app, 1]
            rows.append({
                "app": app,
                "threads": h,
                "region": model.region(h).value,
                "model_e": round(model.overlap_efficiency(h), 3),
                "simulated_e": round(measured, 3),
            })
    return {
        "title": "A2: Saavedra-Barrera latency masking vs simulated idle reduction",
        "rows": rows,
    }


#: A3 and A4 run both apps at these (app, P, n/P, h) points.
_NETWORK_POINTS = (("sort", 16, 64, 4), ("fft", 16, 64, 2))


def network_models(runner: Runner) -> dict:
    """A3: the detailed per-stage Omega model vs. the analytic one.

    The detailed model books every switch output port on a packet's
    route; the analytic model books only the endpoints.  At the paper's
    traffic levels they should agree closely.
    """
    runs = _records(
        runner, _NETWORK_POINTS, {"network_model": "detailed"}, {"network_model": "analytic"}
    )
    rows = []
    for (app, *_), detailed, analytic in zip(_NETWORK_POINTS, *runs):
        rows.append({
            "app": app,
            "detailed_us": _us(detailed.runtime_seconds),
            "analytic_us": _us(analytic.runtime_seconds),
            "ratio": round(analytic.runtime_seconds / detailed.runtime_seconds, 4),
        })
    return {"title": "A3: detailed vs analytic Omega network", "rows": rows}


def priority_replies(runner: Runner) -> dict:
    """A4: FIFO vs. high-priority read replies (the IBU's two levels)."""
    rows = []
    for (app, *_), fifo, prio in zip(
        _NETWORK_POINTS, *_records(runner, _NETWORK_POINTS, {}, {"priority_replies": True})
    ):
        rows.append({
            "app": app,
            "fifo_comm_us": _us(fifo.comm_seconds),
            "priority_comm_us": _us(prio.comm_seconds),
            "runtime_ratio": round(prio.runtime_seconds / fifo.runtime_seconds, 4),
        })
    return {"title": "A4: FIFO vs high-priority read replies", "rows": rows}


def block_reads() -> dict:
    """A5: per-element split-phase reads vs. EMC-Y block-read transfers.

    The paper's sorting loop reads element by element (that loop is the
    12-cycle run length the analysis builds on); the block-read send
    instruction trades one suspension per chunk for wide reply packets.
    """
    n_pes, npp = 16, 64
    rows = []
    for h in (1, 2, 4, 8):
        element = run("sort", n=n_pes * npp, n_pes=n_pes, h=h, seed=11)
        block = run("sort", n=n_pes * npp, n_pes=n_pes, h=h, seed=11, block_reads=True)
        rows.append({
            "threads": h,
            "element_us": _us(element.runtime_seconds),
            "block_us": _us(block.runtime_seconds),
            "element_switches": round(element.switches(SwitchKind.REMOTE_READ)),
            "block_switches": round(block.switches(SwitchKind.REMOTE_READ)),
            "speedup": round(element.runtime_seconds / block.runtime_seconds, 2),
        })
    return {"title": "A5: per-element vs block remote reads (bitonic sorting)", "rows": rows}


def sorters(runner: Runner) -> dict:
    """A6: Batcher's bitonic sort vs. the odd-even transposition baseline.

    log P (log P + 1)/2 hypercube merge iterations against P neighbour
    rounds, at the same thread structure.
    """
    npp, h = 64, 4
    machines = (4, 8, 16)
    points = [(app, n_pes, npp, h) for n_pes in machines for app in ("sort", "transpose")]
    [records] = _records(runner, points, {"seed": 21})
    rows = []
    for n_pes, bitonic, transpose in zip(machines, records[::2], records[1::2]):
        log_p = n_pes.bit_length() - 1
        rows.append({
            "n_pes": n_pes,
            "bitonic_us": _us(bitonic.runtime_seconds),
            "transposition_us": _us(transpose.runtime_seconds),
            "slowdown": round(transpose.runtime_seconds / bitonic.runtime_seconds, 2),
            "bitonic_iterations": log_p * (log_p + 1) // 2,
            "transposition_iterations": n_pes,
        })
    return {
        "title": f"A6: bitonic vs odd-even transposition (n/P={npp}, h={h})",
        "rows": rows,
    }


def _offered_load(n_pes: int, spacing: int, packets_per_pe: int = 30) -> tuple[float, float]:
    """Mean one-way latency and hottest-port utilisation at one load.

    Injection times are uniformly random at the target mean rate — the
    M/D/1 model's assumption; lock-step waves would measure transient
    burst congestion instead.
    """
    rng = random.Random(13)
    engine = Engine()
    net = DetailedOmegaNetwork(engine, CircularOmegaTopology(n_pes), TimingModel())
    for pe in range(n_pes):
        net.attach(pe, lambda p: None)
    horizon = packets_per_pe * spacing
    for src in range(n_pes):
        for _ in range(packets_per_pe):
            engine.schedule(
                rng.randrange(horizon),
                net.send,
                Packet(kind=PacketKind.WRITE, src=src, dst=rng.randrange(n_pes), data=0),
            )
    engine.run()
    hottest = net.hottest_ports(top=1)
    return net.stats.mean_latency, hottest[0][1] if hottest else 0.0


def load_model() -> dict:
    """A7: the closed-form M/D/1 fabric load model vs. the detailed network.

    Sweeps offered load on the 64-PE circular Omega: the quantitative
    backing for the paper's "1 to 2 µs when the network is normally
    loaded".
    """
    n_pes = 64
    model = OmegaLoadModel(n_pes=n_pes, eject_cycles=TimingModel().eject)
    rows = []
    for spacing in (128, 48, 24, 12):
        measured, hot_util = _offered_load(n_pes, spacing)
        predicted = model.one_way_latency(min(1.0 / spacing, model.saturation_load() * 0.95))
        rows.append({
            "load": f"1/{spacing}",
            "simulated_cycles": round(measured, 1),
            "model_cycles": round(predicted, 1),
            "ratio": round(measured / predicted, 2),
            "hot_port_util": round(hot_util, 3),
        })
    return {
        "title": "A7: M/D/1 hotspot model vs detailed Omega (one-way latency)",
        "rows": rows,
    }


def run_ablations(runner: Runner) -> dict[str, dict]:
    """Every ablation's table, keyed by its id; A1–A4 and A6 run through
    ``runner``."""
    return {
        "A1": bypass_dma(runner),
        "A2": saavedra_model(runner),
        "A3": network_models(runner),
        "A4": priority_replies(runner),
        "A5": block_reads(),
        "A6": sorters(runner),
        "A7": load_model(),
    }
