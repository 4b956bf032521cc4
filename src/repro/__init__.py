"""Reproduction of *Fine-Grain Multithreading with the EM-X
Multiprocessor* (Sohn et al., SPAA 1997).

An event-driven simulator of the EM-X distributed-memory multiprocessor
— EMC-Y processors with by-passing DMA remote reads, hardware FIFO
thread scheduling, and a circular Omega network — plus the fine-grain
multithreading runtime, the paper's two workloads (multithreaded bitonic
sorting and FFT), and the harness regenerating every figure of the
paper's evaluation.

Quickstart — run a paper workload through the app registry::

    import repro

    report = repro.run("fft", n=1024, n_pes=16, h=4)
    print(report.runtime_cycles, report.breakdown)

Execution strategy (the cohort compiler) is one object::

    report = repro.run("emc-sort", n=1024, n_pes=16, h=4,
                       plan=repro.ExecutionPlan(compiled=True))

Or drive the machine directly::

    from repro import EMX, MachineConfig

    m = EMX(MachineConfig(n_pes=4))

    @m.thread
    def reader(ctx, mate):
        value = yield ctx.read(ctx.ga(mate, 0))
        yield ctx.compute(10)

    m.pes[1].memory.write(0, 42)
    m.spawn(0, "reader", 1)
    report = m.run()
    print(report.runtime_cycles, report.network.summary())
"""

from .api import APPS, ExecutionPlan, app_names, get_app, register_app, run
from .config import CLOCK_HZ, CYCLE_SECONDS, MachineConfig, TimingModel
from .core import GlobalBarrier, OrderToken, ThreadCtx
from .errors import ReproError
from .machine import EMX, MachineReport, emx80, paper_machine, small_machine
from .metrics import Breakdown, Bucket, SwitchKind, overlap_efficiency, overlap_series
from .packet import GlobalAddress

__version__ = "1.0.0"

__all__ = [
    "run",
    "ExecutionPlan",
    "APPS",
    "app_names",
    "get_app",
    "register_app",
    "EMX",
    "MachineConfig",
    "TimingModel",
    "MachineReport",
    "GlobalAddress",
    "GlobalBarrier",
    "OrderToken",
    "ThreadCtx",
    "Breakdown",
    "Bucket",
    "SwitchKind",
    "overlap_efficiency",
    "overlap_series",
    "ReproError",
    "emx80",
    "paper_machine",
    "small_machine",
    "CLOCK_HZ",
    "CYCLE_SECONDS",
    "__version__",
]
