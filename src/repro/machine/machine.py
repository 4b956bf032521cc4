"""The EM-X machine facade.

Typical use::

    from repro import EMX, MachineConfig

    m = EMX(MachineConfig(n_pes=16))

    @m.thread
    def hello(ctx, mate):
        value = yield ctx.read(ctx.ga(mate, 0))
        yield ctx.compute(10)

    m.pes[1].memory.write(0, 42)
    m.spawn(0, "hello", 1)
    report = m.run()

The machine owns the event engine, the Omega network, the shared
program registry, and the barrier table; processors pull everything
else from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CYCLE_SECONDS, MachineConfig
from ..core.registry import ProgramRegistry, ThreadFunc
from ..core.sync import GlobalBarrier
from ..core.thread import EMThread
from ..core.threadlib import ThreadCtx
from ..errors import ProgramError
from ..metrics.breakdown import Breakdown, aggregate_breakdown
from ..metrics.counters import PECounters, SwitchKind
from ..network import build_network
from ..network.stats import NetworkStats
from ..obs.bus import EventBus
from ..obs.events import BarrierEvent, ThreadLife
from ..packet import Packet, PacketKind
from ..processor import EMCYProcessor
from ..processor.exu import _invoke_words
from ..sim import Engine

__all__ = ["EMX", "MachineReport"]


@dataclass
class MachineReport:
    """Everything a run produced, ready for the metrics layer."""

    config: MachineConfig
    runtime_cycles: int
    events_fired: int
    counters: list[PECounters]
    network: NetworkStats
    #: Cohort-compiler accounting (``None`` unless ``compiled=True``):
    #: per-tier thread counts and occupancy.  Diagnostic only, excluded
    #: from metric comparisons like ``events_fired``.
    cohort: dict | None = None

    @property
    def runtime_seconds(self) -> float:
        """Wall time of the run on the simulated 20 MHz machine."""
        return self.runtime_cycles * CYCLE_SECONDS

    @property
    def breakdown(self) -> Breakdown:
        """Machine-wide cycle breakdown (Fig. 8's four components)."""
        return aggregate_breakdown(self.counters)

    def switches(self, kind: SwitchKind) -> float:
        """Average number of switches of ``kind`` per processor (Fig. 9)."""
        return sum(c.switches[kind] for c in self.counters) / len(self.counters)

    @property
    def comm_seconds(self) -> float:
        """Mean per-processor *idle* communication time in seconds."""
        comm = self.breakdown.communication / len(self.counters)
        return comm * CYCLE_SECONDS

    @property
    def comm_fig6_seconds(self) -> float:
        """Mean per-processor communication time as Fig. 6 measures it.

        The paper's communication time is the residual non-useful time:
        idle waiting for remote data *plus* the cycles burned on failed
        synchronisation re-checks while waiting for other threads — time
        lost to communication/synchronisation rather than to useful work
        or mandatory per-read switching.
        """
        n = len(self.counters)
        stalls = sum(c.sync_stall_cycles for c in self.counters)
        return (self.breakdown.communication + stalls) / n * CYCLE_SECONDS


class EMX:
    """A simulated EM-X multiprocessor."""

    def __init__(
        self, config: MachineConfig | None = None, obs: EventBus | None = None
    ) -> None:
        self.config = config or MachineConfig()
        self.config.validate()
        #: Observability bus (``None`` = tracing off; every emit site in
        #: the model guards on exactly this attribute being non-None).
        self.obs = obs
        self.engine = Engine(self.config.max_cycles)
        self.network = build_network(self.engine, self.config, obs=obs)
        self.registry = ProgramRegistry()
        self.live_threads = 0
        self._next_tid = 0
        self._barriers: dict[int, GlobalBarrier] = {}
        self.pes = [EMCYProcessor(pe, self) for pe in range(self.config.n_pes)]
        for proc in self.pes:
            self.network.attach(proc.pe, proc.ibu.receive)
        self.engine.quiescence_watcher = self._stuck_report
        #: Cohort compiler (``compiled=True`` only): intercepts thread
        #: creation to swap in compiled effect steppers.
        self.cohorts = None
        if self.config.compiled:
            from ..compile.cohort import CohortManager

            self.cohorts = CohortManager(self)

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def register(self, func: ThreadFunc, name: str | None = None) -> str:
        """Register a thread function (a template segment)."""
        return self.registry.register(func, name)

    def thread(self, func: ThreadFunc) -> ThreadFunc:
        """Decorator form of :meth:`register`."""
        self.register(func)
        return func

    # ------------------------------------------------------------------
    # Spawning and thread creation
    # ------------------------------------------------------------------
    def spawn(self, pe: int, func_name: str, *args) -> None:
        """Inject an invocation packet for ``func_name`` on ``pe``.

        Callable before or during :meth:`run`; the packet enters the
        PE's hardware FIFO at the current simulated time.
        """
        if not (0 <= pe < self.config.n_pes):
            raise ProgramError(f"spawn on PE {pe} of {self.config.n_pes}")
        if func_name not in self.registry:
            raise ProgramError(f"spawn of unregistered thread function {func_name!r}")
        pkt = Packet(
            kind=PacketKind.INVOKE,
            src=pe,
            dst=pe,
            data=(func_name, args),
            words=_invoke_words(len(args)),
        )
        self.engine.schedule_at(self.engine.now, self.pes[pe].ibu.enqueue, pkt)

    def create_thread(self, pe: int, func_name: str, args: tuple) -> EMThread:
        """Instantiate a thread (EXU internal; called on INVOKE dispatch)."""
        proc = self.pes[pe]
        func = self.registry.get(func_name)
        tid = self._next_tid
        ctx = ThreadCtx(pe, self.config.n_pes, proc.memory, proc.guest_state, tid)
        if self.cohorts is not None:
            gen = self.cohorts.instantiate(func, ctx, args)
        else:
            gen = func(ctx, *args)
        thread = EMThread(tid, pe, gen, name=f"{func_name}@{pe}")
        obs = self.obs
        if obs is not None:
            thread.on_transition = self._emit_thread_transition
            obs.emit(ThreadLife(self.engine.now, pe, tid, thread.name, "created"))
        self._next_tid += 1
        self.live_threads += 1
        proc.live_threads += 1
        proc.counters.threads_started += 1
        return thread

    def _emit_thread_transition(self, thread: EMThread, new) -> None:
        """Thread-state hook (installed only when observability is on).

        Reads the state's value as ``_value_``: ``.value`` is an enum
        property, two Python frames on every transition.
        """
        self.obs.emit(
            ThreadLife(self.engine.now, thread.pe, thread.tid, thread.name, new._value_)
        )

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def make_barrier(self, parties: list[int] | int, hub: int = 0) -> GlobalBarrier:
        """Create an iteration barrier.

        ``parties`` is either one count applied to every PE or a per-PE
        list; PEs with zero parties do not participate.
        """
        if isinstance(parties, int):
            parties = [parties] * self.config.n_pes
        bar = GlobalBarrier(self.config.n_pes, parties, hub)
        bar.wire(self._make_release_sender(bar))
        self._barriers[bar.barrier_id] = bar
        return bar

    def _make_release_sender(self, bar: GlobalBarrier):
        hub_obu = self.pes[bar.hub].obu

        def send_release(pe: int, gen: int) -> None:
            hub_obu.inject(
                Packet(
                    kind=PacketKind.SYNC_RELEASE,
                    src=bar.hub,
                    dst=pe,
                    data=(bar.barrier_id, gen),
                )
            )

        return send_release

    def barrier_hub_arrive(self, pkt: Packet) -> None:
        """IBU hook: a SYNC_ARRIVE packet reached the hub."""
        barrier_id, gen = pkt.data
        bar = self._barriers[barrier_id]
        if self.obs is not None:
            self.obs.emit(
                BarrierEvent(self.engine.now, pkt.src, barrier_id, gen, "hub")
            )
        if bar.hub_arrive(gen):
            bar.broadcast_release(gen)

    def barrier_release(self, pe: int, pkt: Packet) -> None:
        """IBU hook: a SYNC_RELEASE packet reached a member PE."""
        barrier_id, gen = pkt.data
        if self.obs is not None:
            self.obs.emit(BarrierEvent(self.engine.now, pe, barrier_id, gen, "release"))
        self._barriers[barrier_id].release(pe, gen)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> MachineReport:
        """Run to quiescence (or ``until``) and return the report."""
        self.engine.run(until)
        runtime = max((p.counters.last_active for p in self.pes), default=0)
        for proc in self.pes:
            proc.counters.check_accounting()
        return MachineReport(
            config=self.config,
            runtime_cycles=runtime,
            events_fired=self.engine.events_fired,
            counters=[p.counters for p in self.pes],
            network=self.network.stats,
            cohort=self._cohort_summary(),
        )

    def _cohort_summary(self) -> dict | None:
        """Cohort-compiler accounting for compiled runs (None otherwise)."""
        if self.cohorts is None:
            return None
        return self.cohorts.summary()

    def _stuck_report(self) -> str | None:
        reports = [r for r in (p.stuck_report() for p in self.pes) if r]
        if not reports or self.live_threads == 0:
            return None
        return "; ".join(reports[:8])
