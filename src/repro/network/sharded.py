"""Shard-partitionable Omega fabric for conservative-window parallel runs.

This is the network model behind ``repro.run(..., plan=ExecutionPlan(
shards=K))``.  The machine's PEs are partitioned into K contiguous
shards, each advancing its own engine under the window protocol of
:mod:`repro.sim.parallel`.  The protocol's safety bound is
the **per-pair lookahead matrix** ``L[i][j]`` (see
:func:`lookahead_matrix`): the minimum injection-to-delivery latency of
any packet from a PE of shard *i* to a *different* PE of shard *j*,
computed from real shuffle-ring topology distance — so far-apart shard
pairs synchronise far less often than one worst-case bound would force.
The scalar :func:`lookahead` (the matrix minimum) is the
partition-independent floor: it guards a network built without a shard
spec, and it is the lookahead a K = 1 run reports.

Two properties make the result independent of K:

* **Per-source port planes.**  Every source PE owns a private replica
  of the ports on its routes (``("inj", src)``, each ``("sw", node,
  bit)``, ``("ej", dst)``), and a packet's full route is walked
  *arithmetically at injection time* — the reservation-at-injection
  scheme the analytic model always used, extended to the detailed
  per-stage plan.  Contention is therefore modelled among packets of
  one source only; since a source PE lives on exactly one shard, every
  packet's arrival cycle is computed entirely where it is injected and
  cannot depend on how the other PEs are partitioned.
* **Head-of-cycle delivery.**  No per-packet delivery events exist.
  Arrivals append to a per-cycle pending list, and the engine's
  ``pre_cycle`` hook (:meth:`ShardedOmegaNetwork.deliver_cycle`)
  delivers each cycle's records — sorted by ``(src_pe, per-source
  seq)`` — *before any model event of that cycle fires*.  A no-op
  *tick* event is scheduled for each new pending-arrival cycle so the
  engine visits delivery-only cycles.  Delivery order is therefore the
  K-independent ``(cycle, src_pe, per-source seq)``, by construction a
  pure function of the simulated traffic: it cannot depend on the
  window schedule, the barrier placement, or the shard count.  (The
  previous protocol scheduled drain events *at the window barrier*,
  which pinned delivery order to the window schedule and forced every
  shard to share one global window sequence.)

This is a *documented, distinct semantics* from the legacy live models
(``shards=None``): the legacy detailed model arbitrates each interior
port among **all** sources in true arrival order, which admits only a
one-cycle lookahead and cannot be partitioned with useful windows.  On
conflict-free traffic all three agree exactly (covered by tests); under
load the sharded fabric is optimistic about cross-source interior
contention.  ``shards=1`` runs this same semantics in-process, and the
K ∈ {2, 4} differential tests compare against it.
"""

from __future__ import annotations

from collections import Counter

from ..config import MachineConfig
from ..errors import NetworkError, SimulationError
from ..network.stats import NetworkStats
from ..obs.events import PacketDeliver, PacketHop
from ..packet import Packet, PacketKind, Priority
from .topology import CircularOmegaTopology

__all__ = [
    "lookahead",
    "lookahead_matrix",
    "ShardedOmegaNetwork",
    "merge_network_stats",
]


def lookahead(config: MachineConfig) -> int:
    """Minimum src≠dst injection-to-delivery latency, in cycles.

    Both models deliver a k-hop packet no earlier than
    ``inject + k + eject`` (injection reaches the first switch in the
    same cycle, each later hop costs one cut-through cycle, ejection
    costs ``timing.eject``; contention only delays).  The bound is the
    minimum over *all* ordered pairs, not just cross-shard ones, so the
    window length never depends on the partition.  Self-sends
    (src == dst, latency ``eject``) are always intra-shard and exempt.
    """
    topo = CircularOmegaTopology(config.n_pes)
    if config.n_pes < 2:
        return config.timing.eject + 1
    min_hops = None
    for src in range(config.n_pes):
        for dst in range(config.n_pes):
            if src == dst:
                continue
            hops = topo.hop_count(src, dst)
            if min_hops is None or hops < min_hops:
                min_hops = hops
                if min_hops == 1:
                    return 1 + config.timing.eject
    return min_hops + config.timing.eject


def lookahead_matrix(
    config: MachineConfig, bounds: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], ...]:
    """Per-shard-pair delivery-latency lower bounds, in cycles.

    ``bounds`` is the contiguous partition from
    :func:`repro.sim.parallel.partition`.  Entry ``[i][j]`` is the
    minimum over all ``src ∈ shard_i, dst ∈ shard_j, src ≠ dst`` of
    ``hop_count(src, dst) + eject`` — the earliest any packet injected
    by shard *i* at cycle ``t`` can need delivering on shard *j*
    (contention and cut-through waits only delay; see :func:`lookahead`
    for the latency decomposition).  Every entry is therefore a true
    lower bound on cross-pair delivery latency, and every entry is
    ``>=`` the scalar :func:`lookahead` (which is exactly the matrix
    minimum when K > 1).

    Diagonal entries bound *intra*-shard cross-PE traffic and are never
    consulted by the window protocol (a shard needs no lookahead
    against itself); a single-PE shard, having no distinct pair, gets
    the self-send floor ``eject + 1`` there.
    """
    eject = config.timing.eject
    count = len(bounds)
    if config.n_pes < 2:
        return tuple((eject + 1,) * count for _ in range(count))
    topo = CircularOmegaTopology(config.n_pes)
    rows = []
    for slo, shi in bounds:
        row = []
        for dlo, dhi in bounds:
            if slo == dlo and shi - slo == 1:
                row.append(eject + 1)  # single-PE shard diagonal
            else:
                row.append(topo.min_hops_between(range(slo, shi), range(dlo, dhi)) + eject)
        rows.append(tuple(row))
    return tuple(rows)


def _delivery_order(record: tuple) -> tuple[int, int]:
    """Sort key within one delivery cycle: (src_pe, per-source seq)."""
    return (record[1], record[2])


class ShardedOmegaNetwork:
    """Omega fabric split into per-source planes with barrier delivery.

    ``owns(pe)`` tells the network which destinations are local: their
    arrivals go straight to the pending lists, the rest accumulate in
    the *egress* list the window protocol ships at each barrier.
    Delivery records are ``(arrival, src, sseq, hops, pkt)`` tuples —
    picklable, self-contained, and carrying the canonical merge key.

    ``spec`` (a :class:`repro.sim.parallel.ShardSpec`) enables the
    per-pair machinery: the lookahead matrix, the tighter pairwise
    egress guard in :meth:`send`, and the per-destination-shard bound
    the window protocol reads.  Without it (direct construction in
    tests) the scalar ``lookahead`` guards every boundary crossing.
    """

    def __init__(self, engine, config: MachineConfig, owns, obs=None, spec=None) -> None:
        if config.network_model not in ("detailed", "analytic"):
            raise NetworkError(f"unknown network model {config.network_model!r}")
        self.engine = engine
        self.topology = CircularOmegaTopology(config.n_pes)
        self.timing = config.timing
        self.obs = obs
        self.stats = NetworkStats()
        self.owns = owns
        self.lookahead = lookahead(config)
        self.spec = spec
        #: K×K per-pair lookahead matrix (``None`` without a spec).
        self.pair_lookahead = None
        #: dst PE → ``pair_lookahead[my_shard][shard_of(dst)]`` — the
        #: egress guard bound, resolved once per destination.
        self._dst_bound: list[int] | None = None
        if spec is not None:
            self.pair_lookahead = lookahead_matrix(config, spec.bounds)
            me = spec.index
            shard_of = []
            for pe in range(config.n_pes):
                for index, (lo, hi) in enumerate(spec.bounds):
                    if lo <= pe < hi:
                        shard_of.append(index)
                        break
            self._dst_bound = [self.pair_lookahead[me][s] for s in shard_of]
        #: Head-of-cycle delivery: the engine calls back before firing
        #: any of a cycle's model events.
        engine.pre_cycle = self.deliver_cycle
        self._detailed = config.network_model == "detailed"
        self._sinks: dict[int, object] = {}
        #: src PE → its private ``{port: [next_free, busy]}`` plane.
        self._planes: dict[int, dict] = {}
        self._plans: dict[tuple[int, int], tuple] = {}
        #: src PE → next per-source injection sequence number.
        self._pe_seq: dict[int, int] = {}
        #: arrival cycle → delivery records (local + ingested ingress).
        self._pending: dict[int, list] = {}
        self._egress: list = []
        #: Local packet seq → canonical ``(src << 32) | sseq`` id, used
        #: to remap ``PacketSend`` events (emitted by the OBU *before*
        #: the network sees the packet) when shard traces merge.
        self.seq_map: dict[int, int] = {}
        #: Injection/arrival cycle histograms; the merged
        #: ``max_in_flight`` is a canonical sweep over these.
        self.born_counts: Counter = Counter()
        self.arrival_counts: Counter = Counter()
        #: Tick events fired (one no-op per distinct pending-arrival
        #: cycle, forcing the engine to visit delivery-only cycles) —
        #: subtracted from ``engine.events_fired`` so the reported event
        #: count excludes protocol scaffolding.
        self.ticks_fired = 0
        self.in_flight = 0  # kept for interface parity; not tracked live
        self._eject = self.timing.eject
        self._cpp = self.timing.port_cycles_per_packet

    # ------------------------------------------------------------------
    def attach(self, pe: int, deliver) -> None:
        """Register the packet sink (the PE's switching unit) for ``pe``."""
        if pe in self._sinks:
            raise NetworkError(f"PE {pe} already attached")
        self._sinks[pe] = deliver

    def probe_latency(self, src: int, dst: int) -> int:
        """Uncongested one-way latency in cycles (k hops → k+1)."""
        return self.topology.latency_cycles(src, dst)

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> None:
        """Inject ``pkt`` now: walk its route, book its delivery record."""
        dst = pkt.dst
        if dst not in self._sinks:
            raise NetworkError(f"packet to unattached PE {dst}: {pkt!r}")
        now = self.engine.now
        pkt.born = now
        src = pkt.src
        sseq = self._pe_seq.get(src, 0)
        self._pe_seq[src] = sseq + 1
        canon = (src << 32) | sseq
        self.seq_map[pkt.seq] = canon
        slots = pkt.slots(self._cpp)
        plane = self._planes.get(src)
        if plane is None:
            plane = self._planes[src] = {}
        stats = self.stats
        if self._detailed:
            plan = self._plans.get((src, dst))
            if plan is None:
                route = self.topology.route(src, dst)
                plan = self._plans[(src, dst)] = (
                    ("inj", src),
                    *(("sw", h.node, h.bit) for h in route),
                    ("ej", dst),
                )
            last = len(plan) - 1
            hops = last - 1
            obs = self.obs
            t = now
            arrival = now
            for idx in range(last + 1):
                port = plan[idx]
                if obs is not None and 0 < idx < last:
                    obs.emit(PacketHop(t, canon, port[1], port[2]))
                rec = plane.get(port)
                if rec is None:
                    rec = plane[port] = [0, 0]
                depart = rec[0]
                if depart > t:
                    wait = depart - t
                    if wait > stats.max_port_wait:
                        stats.max_port_wait = wait
                else:
                    depart = t
                rec[0] = depart + slots
                rec[1] += slots
                if idx == last:
                    arrival = depart + self._eject
                else:
                    # Injection into the first switch is immediate; each
                    # shuffle hop afterwards costs one cut-through cycle.
                    t = depart if idx == 0 else depart + 1
        else:
            hops = self.topology.hop_count(src, dst)
            t = self._reserve(plane, ("inj", src), now, slots)
            depart = self._reserve(plane, ("ej", dst), t + hops, slots)
            arrival = depart + self._eject
        stats.record(pkt, hops, arrival - now)
        self.born_counts[now] += 1
        self.arrival_counts[arrival] += 1
        if self.owns(dst):
            record = (arrival, src, sseq, hops, pkt)
            bucket = self._pending.get(arrival)
            if bucket is None:
                self._pending[arrival] = [record]
                self.engine.schedule_at(arrival, self._tick)
            else:
                bucket.append(record)
        else:
            bound = self.lookahead if self._dst_bound is None else self._dst_bound[dst]
            if arrival < now + bound:
                raise SimulationError(
                    f"lookahead violation: packet {src}->{dst} injected at "
                    f"{now} arrives at {arrival} < {now + bound}"
                )
            # Boundary records are flattened to primitive tuples here,
            # at injection: the window protocol pickles the egress list
            # every barrier, and flat tuples serialise ~10x faster than
            # Packet dataclass instances (measured; this is the hot part
            # of the barrier's serial cost).
            self._egress.append((
                arrival, src, sseq, hops,
                pkt.kind.value, dst, pkt.address, pkt.data, pkt.words,
                pkt.priority.value, pkt.born, pkt.seq,
            ))

    def _reserve(self, plane: dict, port: tuple, earliest: int, slots: int) -> int:
        rec = plane.get(port)
        if rec is None:
            rec = plane[port] = [0, 0]
        depart = rec[0]
        if depart > earliest:
            wait = depart - earliest
            if wait > self.stats.max_port_wait:
                self.stats.max_port_wait = wait
        else:
            depart = earliest
        rec[0] = depart + slots
        rec[1] += slots
        return depart

    # ------------------------------------------------------------------
    # Window protocol surface (driven by repro.sim.parallel)
    # ------------------------------------------------------------------
    def take_egress(self) -> list:
        """Drain and return the boundary records since the last barrier.

        Wire format (flat, pickle-cheap): ``(arrival, src, sseq, hops,
        kind_value, dst, address, data, words, priority_value, born,
        seq)``; :meth:`add_ingress` rebuilds the packets.
        """
        out = self._egress
        self._egress = []
        return out

    def add_ingress(self, records: list) -> None:
        """Merge another shard's egress records addressed to local PEs.

        Ingested at the window barrier.  The window protocol
        guarantees every record's arrival cycle lies beyond the
        ingesting shard's last horizon (the pairwise lookahead bounds
        it below by the sender's ``ea + L``), so the tick always lands
        in this engine's future.
        """
        owns = self.owns
        pending = self._pending
        schedule_at = self.engine.schedule_at
        tick = self._tick
        for rec in records:
            dst = rec[5]
            if not owns(dst):
                continue
            pkt = Packet(
                kind=PacketKind(rec[4]),
                src=rec[1],
                dst=dst,
                address=rec[6],
                data=rec[7],
                words=rec[8],
                priority=Priority(rec[9]),
                born=rec[10],
                seq=rec[11],
            )
            record = (rec[0], rec[1], rec[2], rec[3], pkt)
            bucket = pending.get(rec[0])
            if bucket is None:
                pending[rec[0]] = [record]
                schedule_at(rec[0], tick)
            else:
                bucket.append(record)

    def pending_min(self) -> int | None:
        """Earliest cycle with an undelivered arrival, or ``None``."""
        return min(self._pending) if self._pending else None

    def _tick(self) -> None:
        """No-op scheduled once per new pending-arrival cycle.

        Its only job is to make the engine *visit* cycles whose sole
        content is packet delivery (which happens in the
        :meth:`deliver_cycle` pre-cycle hook).  Counted so the
        scaffolding can be subtracted from ``events_fired``.
        """
        self.ticks_fired += 1

    def deliver_cycle(self, cycle: int) -> None:
        """Head-of-cycle delivery hook (installed as ``engine.pre_cycle``).

        Runs after the clock advances to ``cycle`` and before any of
        that cycle's model events fire; delivers the cycle's pending
        records in the canonical ``(src_pe, per-source seq)`` order.
        Because every visited cycle passes through here — and ticks
        force a visit to delivery-only cycles — delivery timing and
        ordering are a pure function of the traffic, independent of the
        window schedule and the shard count.
        """
        records = self._pending.pop(cycle, None)
        if records is None:
            return
        if len(records) > 1:
            records.sort(key=_delivery_order)
        obs = self.obs
        sinks = self._sinks
        for arrival, src, sseq, hops, pkt in records:
            if obs is not None:
                obs.emit(
                    PacketDeliver(
                        cycle,
                        (src << 32) | sseq,
                        pkt.kind,
                        src,
                        pkt.dst,
                        cycle - pkt.born,
                        hops,
                    )
                )
            sinks[pkt.dst](pkt)

    # ------------------------------------------------------------------
    # Diagnostics (interface parity with OmegaNetworkBase)
    # ------------------------------------------------------------------
    def port_utilization(self, horizon: int | None = None) -> dict[tuple, float]:
        """Busy fraction per port, summed across the per-source planes."""
        span = horizon if horizon is not None else self.engine.now
        if span <= 0:
            return {}
        busy: dict[tuple, int] = {}
        for plane in self._planes.values():
            for port, rec in plane.items():
                busy[port] = busy.get(port, 0) + rec[1]
        return {port: b / span for port, b in busy.items()}

    def hottest_ports(self, top: int = 8, horizon: int | None = None):
        """The ``top`` busiest ports, hottest first."""
        util = self.port_utilization(horizon)
        return sorted(util.items(), key=lambda kv: -kv[1])[:top]


def merge_network_stats(
    stats_list: list[NetworkStats],
    born_counts: list[Counter],
    arrival_counts: list[Counter],
) -> NetworkStats:
    """Combine per-shard :class:`NetworkStats` into one machine view.

    Sums, maxima and histograms merge directly; ``max_in_flight`` is
    recomputed with a canonical sweep over the merged injection/arrival
    cycle histograms (arrivals counted before injections within a
    cycle, matching the drain-before-model event order), so the value
    is a pure function of packet (born, arrival) intervals — identical
    for every shard count, including one.
    """
    merged = NetworkStats()
    for st in stats_list:
        merged.packets += st.packets
        merged.words += st.words
        merged.total_latency += st.total_latency
        merged.total_hops += st.total_hops
        if st.max_latency > merged.max_latency:
            merged.max_latency = st.max_latency
        if st.max_port_wait > merged.max_port_wait:
            merged.max_port_wait = st.max_port_wait
        merged.by_kind.update(st.by_kind)
        merged.latency_hist.update(st.latency_hist)
    born: Counter = Counter()
    arrive: Counter = Counter()
    for c in born_counts:
        born.update(c)
    for c in arrival_counts:
        arrive.update(c)
    current = peak = 0
    for cycle in sorted(born.keys() | arrive.keys()):
        current -= arrive.get(cycle, 0)
        current += born.get(cycle, 0)
        if current > peak:
            peak = current
    merged.max_in_flight = peak
    return merged
