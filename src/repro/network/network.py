"""Packet transport over the circular Omega fabric.

Both network models reserve output-port time slots (one 2-word packet
per two cycles per port) and reproduce virtual cut-through timing: k
hops arrive k+1 cycles after injection when uncontended.  Monotonic
port reservations enforce the switch unit's message non-overtaking
rule.

:class:`DetailedOmegaNetwork` moves a packet hop by hop as events,
reserving every switch output port on the route when the packet
reaches it, so each port serves packets in arrival order.
:class:`AnalyticOmegaNetwork` reserves only the endpoint
injection/ejection ports, modelling an uncongested fabric: it computes
the delivery time *at injection* and schedules a single delivery event,
without per-hop events.  Experiment A3 quantifies how little they
differ at the paper's traffic levels.

Each PE's packet sink, registered with :meth:`OmegaNetworkBase.attach`,
is its IBU's :meth:`~repro.processor.ibu.InputBufferUnit.receive`; the
network holds the sinks in a per-PE list.

**Hot path.**  A hop is the most frequent event of a run, so the
detailed model keeps it to one call: a route plan, built once per
``(src, dst)`` pair, holds every port's ``[next_free, busy]`` record
beside its key, so a hop reserves its port with no dictionary lookup and
no tuple hashing, and the hop and delivery handlers are bound once per
network rather than once per scheduled event.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ..config import MachineConfig, TimingModel
from ..errors import NetworkError
from ..obs.bus import EventBus
from ..obs.events import PacketDeliver, PacketHop
from ..packet import Packet
from ..sim import Engine
from .stats import NetworkStats
from .topology import CircularOmegaTopology

__all__ = [
    "OmegaNetworkBase",
    "DetailedOmegaNetwork",
    "AnalyticOmegaNetwork",
    "build_network",
]

DeliverFn = Callable[[Packet], None]


class OmegaNetworkBase:
    """Common machinery: attachment, port reservation, delivery."""

    def __init__(
        self,
        engine: Engine,
        topology: CircularOmegaTopology,
        timing: TimingModel,
        obs: EventBus | None = None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.timing = timing
        self.obs = obs
        self.stats = NetworkStats()
        #: Packet sink per PE (``None`` until attached).
        self._sinks: list[DeliverFn | None] = [None] * topology.n_pes
        #: Per-port ``[next_free_cycle, busy_cycles]`` record.  The
        #: detailed model creates a route's records with its plan, before
        #: any packet reaches them; every reservation books at least one
        #: cycle, so ``busy_cycles == 0`` marks a port nothing has used.
        self._ports: dict[tuple, list[int]] = {}
        self.in_flight = 0
        # Bound once: every packet schedules a delivery event, and
        # ``self._deliver`` looked up on the class would allocate a new
        # bound method for each one.
        self._deliver = self._deliver
        if obs is not None:
            # PacketDeliver's ``hops``, memoised per (src, dst) pair: a
            # hit is one C-level lookup, not three Python calls.
            self._hop_count = lru_cache(maxsize=None)(topology.hop_count)

    # ------------------------------------------------------------------
    def attach(self, pe: int, deliver: DeliverFn) -> None:
        """Register the packet sink (the PE's switching unit) for ``pe``."""
        if not 0 <= pe < len(self._sinks):
            raise NetworkError(f"PE {pe} outside a network of {len(self._sinks)} PEs")
        if self._sinks[pe] is not None:
            raise NetworkError(f"PE {pe} already attached")
        self._sinks[pe] = deliver

    def _check_attached(self, pkt: Packet) -> None:
        dst = pkt.dst
        if dst >= len(self._sinks) or self._sinks[dst] is None:
            raise NetworkError(f"packet to unattached PE {dst}: {pkt!r}")

    def send(self, pkt: Packet) -> None:
        """Inject ``pkt`` now; schedules its delivery event."""
        self._check_attached(pkt)
        pkt.born = self.engine.now
        arrival, hops = self._transit(pkt)
        self.stats.record(pkt, hops, arrival - pkt.born)
        self.in_flight += 1
        if self.in_flight > self.stats.max_in_flight:
            self.stats.max_in_flight = self.in_flight
        self.engine.schedule_at(arrival, self._deliver, pkt)

    def _deliver(self, pkt: Packet) -> None:
        self.in_flight -= 1
        if self.obs is not None:
            now = self.engine.now
            self.obs.emit(
                PacketDeliver(
                    now,
                    pkt.seq,
                    pkt.kind,
                    pkt.src,
                    pkt.dst,
                    now - pkt.born,
                    self._hop_count(pkt.src, pkt.dst),
                )
            )
        self._sinks[pkt.dst](pkt)

    # ------------------------------------------------------------------
    def _reserve(self, port: tuple, earliest: int, occupancy: int) -> int:
        """Book ``occupancy`` cycles on ``port``; returns departure time."""
        rec = self._ports.get(port)
        if rec is None:
            rec = self._ports[port] = [0, 0]
        depart = rec[0]
        if depart > earliest:  # contended: track the queue-occupancy ceiling
            wait = depart - earliest
            if wait > self.stats.max_port_wait:
                self.stats.max_port_wait = wait
        else:
            depart = earliest
        rec[0] = depart + occupancy
        rec[1] += occupancy
        return depart

    def _transit(self, pkt: Packet) -> tuple[int, int]:
        """Return (arrival_cycle, hop_count); implemented by subclasses."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def port_utilization(self, horizon: int | None = None) -> dict[tuple, float]:
        """Busy fraction of every port ever used, over ``horizon`` cycles.

        Keys are ``("inj", pe)``, ``("ej", pe)`` and — detailed model
        only — ``("sw", node, bit)``.  This is the hotspot diagnostic
        behind the fabric-boundedness analysis in EXPERIMENTS.md: a port
        near 1.0 is the reply-rate bottleneck that multithreading cannot
        mask.
        """
        span = horizon if horizon is not None else self.engine.now
        if span <= 0:
            return {}
        return {port: rec[1] / span for port, rec in self._ports.items() if rec[1]}

    def hottest_ports(self, top: int = 8, horizon: int | None = None) -> list[tuple[tuple, float]]:
        """The ``top`` busiest ports, hottest first."""
        util = self.port_utilization(horizon)
        return sorted(util.items(), key=lambda kv: -kv[1])[:top]


class DetailedOmegaNetwork(OmegaNetworkBase):
    """Per-stage contention with true arrival-order (FIFO) port service.

    Each packet is simulated hop by hop as events: it queues at every
    switch output port on its route and departs in arrival order — the
    hardware's per-port FIFO — rather than in injection order, which
    matters under load (a reservation-at-injection shortcut serialises
    packets behind earlier-injected ones they would physically beat to
    the port, inflating latency far beyond the queueing-theoretic
    value).  Virtual cut-through timing is preserved: k hops arrive
    k+1 cycles after injection when uncontended.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ``(src, dst)`` → route plan: one ``(port, record)`` pair per
        #: port on the route — the injection port, one
        #: ``("sw", node, bit)`` per switch hop, then the ejection port —
        #: where ``record`` is that port's shared ``_ports`` entry.
        #: Routes are pure functions of the endpoints, so every packet of
        #: a pair reuses one plan, and a hop reaches its port's record by
        #: index alone.
        self._plans: dict[tuple[int, int], tuple] = {}
        self._eject = self.timing.eject
        self._cpp = self.timing.port_cycles_per_packet
        self._hop = self._hop  # bound once, like _deliver: one per hop event

    def _plan(self, pkt: Packet) -> tuple:
        """Build (and keep) the route plan of ``pkt``'s endpoints.

        Checks that the destination is attached.  Sinks never detach, so
        a pair that has a plan needs no check on later sends.
        """
        self._check_attached(pkt)
        src, dst = pkt.src, pkt.dst
        ports = self._ports
        keys = (
            ("inj", src),
            *(("sw", h.node, h.bit) for h in self.topology.route(src, dst)),
            ("ej", dst),
        )
        plan = self._plans[(src, dst)] = tuple(
            (key, ports.setdefault(key, [0, 0])) for key in keys
        )
        return plan

    def send(self, pkt: Packet) -> None:
        """Inject ``pkt`` now; it advances through per-hop events."""
        plan = self._plans.get((pkt.src, pkt.dst))
        if plan is None:
            plan = self._plan(pkt)
        pkt.born = self.engine.now
        self.in_flight += 1
        if self.in_flight > self.stats.max_in_flight:
            self.stats.max_in_flight = self.in_flight
        # Port occupancy depends only on packet size — compute it once
        # here and thread it through the per-hop events.
        self._hop(pkt, plan, 0, pkt.slots(self._cpp))

    def _hop(self, pkt: Packet, plan: tuple, idx: int, slots: int) -> None:
        """Arrive at port ``plan[idx]`` (0 = injection port, last = ejection).

        Loops while the packet advances within the current cycle (only
        the injection→first-switch step can) and schedules one event per
        later hop — the same event count and timing as the recursive
        formulation, minus the Python call per same-cycle step.
        """
        engine = self.engine
        now = engine.now
        last = len(plan) - 1
        obs = self.obs
        while True:
            port, rec = plan[idx]
            if obs is not None and 0 < idx < last:
                obs.emit(PacketHop(now, pkt.seq, port[1], port[2]))
            # Port reservation, inlined from _reserve: one hop per packet
            # per stage makes the call overhead itself measurable.
            depart = rec[0]
            if depart > now:  # contended: track the queue-occupancy ceiling
                wait = depart - now
                stats = self.stats
                if wait > stats.max_port_wait:
                    stats.max_port_wait = wait
            else:
                depart = now
            rec[0] = depart + slots
            rec[1] += slots
            if idx == last:
                arrival = depart + self._eject
                self.stats.record(pkt, last - 1, arrival - pkt.born)
                engine.schedule_at(arrival, self._deliver, pkt)
                return
            # Injection into the first switch is immediate; each shuffle
            # hop afterwards costs one cycle of cut-through latency.
            when = depart if idx == 0 else depart + 1
            idx += 1
            if when <= now:
                continue
            engine.schedule_at(when, self._hop, pkt, plan, idx, slots)
            return

    def _transit(self, pkt: Packet) -> tuple[int, int]:  # pragma: no cover
        raise NotImplementedError("detailed model advances packets per hop")


class AnalyticOmegaNetwork(OmegaNetworkBase):
    """Endpoint-only contention: fabric assumed conflict-free."""

    def _transit(self, pkt: Packet) -> tuple[int, int]:
        slots = pkt.slots(self.timing.port_cycles_per_packet)
        hops = self.topology.hop_count(pkt.src, pkt.dst)
        t = self._reserve(("inj", pkt.src), self.engine.now, slots)
        t += hops
        depart = self._reserve(("ej", pkt.dst), t, slots)
        arrival = depart + self.timing.eject
        return arrival, hops


def build_network(
    engine: Engine, config: MachineConfig, obs: EventBus | None = None
) -> OmegaNetworkBase:
    """Construct the network model selected by ``config.network_model``."""
    topo = CircularOmegaTopology(config.n_pes)
    if config.network_model == "detailed":
        return DetailedOmegaNetwork(engine, topo, config.timing, obs)
    if config.network_model == "analytic":
        return AnalyticOmegaNetwork(engine, topo, config.timing, obs)
    raise NetworkError(f"unknown network model {config.network_model!r}")
