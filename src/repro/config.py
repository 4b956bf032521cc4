"""Machine and timing configuration for the EM-X simulator.

All costs are expressed in EMC-Y **clock cycles**.  The prototype EM-X
runs at 20 MHz, i.e. 50 ns per cycle (Kodama et al., ISCA 1995); the
paper's quoted remote-read latency of 1–2 µs therefore corresponds to
20–40 cycles, which is the regime every default below is calibrated to.

Two dataclasses are exposed:

:class:`TimingModel`
    Per-mechanism cycle costs — instruction classes, packet generation,
    context-switch register save, matching-unit thread invocation, the
    IBU's by-passing DMA service time, and network port timings.

:class:`MachineConfig`
    Machine-level shape: number of processors, buffer depths, memory
    size, network model selection, and the EM-4 compatibility switch
    that makes remote-read servicing consume EXU cycles (the paper
    contrasts EM-X's by-passing DMA against exactly that behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigError

__all__ = ["TimingModel", "MachineConfig", "CLOCK_HZ", "CYCLE_SECONDS"]

#: EMC-Y clock frequency (Hz).  Each processor runs at 20 MHz.
CLOCK_HZ: int = 20_000_000

#: Seconds per EMC-Y clock cycle (50 ns).
CYCLE_SECONDS: float = 1.0 / CLOCK_HZ


@dataclass(frozen=True)
class TimingModel:
    """Cycle costs of every modelled mechanism.

    The defaults reproduce the arithmetic the paper reports: a sorting
    run length of 12 cycles, a context switch of "several clocks", a
    remote read of 20–40 cycles end to end, and single-cycle integer /
    single-precision FP instructions.
    """

    # ------------------------------------------------------------------
    # Execution unit instruction classes (paper §2.2: "All integer
    # instructions take one clock cycle", FP likewise except division).
    # ------------------------------------------------------------------
    int_op: int = 1
    fp_op: int = 1
    fp_div: int = 8
    mem_exchange: int = 2  # the one multi-cycle integer instruction

    #: Packet generation is performed by the EXU and "takes one clock".
    pkt_gen: int = 1

    # ------------------------------------------------------------------
    # Context switch components (explicit switching; §2.3).
    # ------------------------------------------------------------------
    #: Saving live registers to the activation frame on suspension.
    reg_save: int = 3
    #: Matching-unit direct matching + thread invocation (the five-step
    #: sequence in §2.2: frame base, mate data, template address, first
    #: instruction fetch, EXU signal).
    match_invoke: int = 4

    # ------------------------------------------------------------------
    # Input/Output Buffer Units and the by-passing DMA path.
    # ------------------------------------------------------------------
    #: IBU servicing a remote-read request via by-pass DMA (read local
    #: memory through MCU arbitration, hand the reply to the OBU) —
    #: zero EXU cycles on EM-X.  Calibrated with ``eject`` so a remote
    #: read round-trips in 20–40 cycles (1–2 µs at 20 MHz), the band the
    #: paper quotes for the normally-loaded machine.
    ibu_dma_service: int = 8
    #: EM-4 compat: cycles stolen from the EXU per serviced remote read
    #: when the read is treated as a one-instruction thread.
    em4_read_service: int = 5
    #: OBU/SU port occupancy per 2-word packet ("each port can transfer
    #: a packet … at every second cycle").
    port_cycles_per_packet: int = 2
    #: Extra cycles to eject a packet from the network into the IBU
    #: (buffer write + priority-queue insertion).
    eject: int = 2

    # ------------------------------------------------------------------
    # Synchronisation.
    # ------------------------------------------------------------------
    #: Instructions executed per barrier-flag spin check (load flag,
    #: compare, branch, queue-management in the thread library).
    barrier_check: int = 8
    #: Cycles for a barrier-waiting thread's re-check packet to
    #: recirculate through the queue path before it is seen again.  The
    #: processor is free to run other threads (or idle — unmasked
    #: communication) in between; this is what turns the serialized
    #: merge cascade of sorting into the measured communication floor.
    #: Calibrated (48) so the sorting communication curve bottoms at
    #: h = 2–4 and rises toward 16 threads as in the paper's Fig. 6.
    barrier_recheck_interval: int = 48
    #: Instructions to update the merge-order token and wake a waiter.
    token_update: int = 2

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any cost is non-positive."""
        for name, value in self.__dict__.items():
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"timing cost {name!r} must be a positive int, got {value!r}")

    @property
    def switch_cost(self) -> int:
        """Total explicit context-switch cost (save + re-invoke)."""
        return self.reg_save + self.match_invoke

    def scaled(self, **overrides: int) -> "TimingModel":
        """Return a copy with selected costs replaced."""
        return replace(self, **overrides)


def _default_timing() -> TimingModel:
    return TimingModel()


@dataclass(frozen=True)
class MachineConfig:
    """Shape and policy of one simulated EM-X machine.

    Parameters
    ----------
    n_pes:
        Number of EMC-Y processors.  The prototype has 80; experiments
        in the paper use 16 and 64.  Any value ≥ 1 is accepted — the
        Omega network pads to the next power of two internally.
    memory_words:
        Words of local static memory per processor (4 MB = 2²⁰ words of
        32 bits on the prototype).  Scaled down by default; guest
        programs allocate far less than the prototype's full memory.
    ibu_fifo_depth:
        On-chip packets per IBU priority FIFO before overflow spills to
        the on-memory buffer (8 on the hardware).
    em4_mode:
        If true, remote-read servicing consumes EXU cycles as on EM-4
        (the predecessor machine), disabling the by-passing DMA — the
        paper's motivating ablation.
    priority_replies:
        If true, read-reply packets use the IBU's high-priority FIFO and
        are scheduled ahead of invocation packets.
    network_model:
        ``"detailed"`` walks every Omega stage and models per-port
        contention; ``"analytic"`` applies endpoint bandwidth plus the
        k+1-cycle hop latency only.
    compiled:
        If true, route thread creation through the cohort compiler
        (:mod:`repro.compile.cohort`): EM-C threads run on generated
        Python; native generator threads and EM-C threads codegen
        declines run on the interpreter.  Metrics, obs
        events (minus the diagnostic ``COHORT`` category) and exports
        are identical by construction.
    seed:
        Seed for any stochastic choices (none in the core model, but
        workload generators consume it).
    """

    n_pes: int = 16
    memory_words: int = 1 << 20
    ibu_fifo_depth: int = 8
    em4_mode: bool = False
    priority_replies: bool = False
    network_model: str = "detailed"
    compiled: bool = False
    max_cycles: int = 4_000_000_000
    seed: int = 0
    timing: TimingModel = field(default_factory=_default_timing)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on any out-of-range field."""
        if self.n_pes < 1:
            raise ConfigError(f"n_pes must be >= 1, got {self.n_pes}")
        if self.memory_words < 1:
            raise ConfigError(f"memory_words must be >= 1, got {self.memory_words}")
        if self.ibu_fifo_depth < 1:
            raise ConfigError(f"ibu_fifo_depth must be >= 1, got {self.ibu_fifo_depth}")
        if self.network_model not in ("detailed", "analytic"):
            raise ConfigError(
                f"network_model must be 'detailed' or 'analytic', got {self.network_model!r}"
            )
        if self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1, got {self.max_cycles}")
        self.timing.validate()

    def with_(self, **overrides: Any) -> "MachineConfig":
        """Return a copy with selected fields replaced (and validated)."""
        cfg = replace(self, **overrides)
        cfg.validate()
        return cfg
