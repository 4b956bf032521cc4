"""Network transport: latency, bandwidth, ordering, both models."""

import pytest

from repro.config import MachineConfig, TimingModel
from repro.errors import NetworkError
from repro.network import (
    AnalyticOmegaNetwork,
    CircularOmegaTopology,
    DetailedOmegaNetwork,
    build_network,
)
from repro.packet import Packet, PacketKind
from repro.sim import Engine


def rig(n_pes=8, cls=DetailedOmegaNetwork, timing=None):
    engine = Engine()
    net = cls(engine, CircularOmegaTopology(n_pes), timing or TimingModel())
    inbox = {pe: [] for pe in range(n_pes)}
    for pe in range(n_pes):
        net.attach(pe, lambda p, pe=pe: inbox[pe].append((engine.now, p)))
    return engine, net, inbox


def pkt(src, dst, **kw):
    return Packet(kind=PacketKind.WRITE, src=src, dst=dst, **kw)


def test_uncontended_latency_is_hops_plus_one():
    engine, net, inbox = rig()
    p = pkt(0, 3)
    hops = net.topology.hop_count(0, 3)
    engine.schedule(0, net.send, p)
    engine.run()
    arrival, _ = inbox[3][0]
    assert arrival == hops + 1 + (TimingModel().eject - 1)


def test_local_packet_is_just_ejection():
    engine, net, inbox = rig()
    engine.schedule(5, net.send, pkt(2, 2))
    engine.run()
    assert inbox[2][0][0] == 5 + TimingModel().eject


def test_injection_port_serialises_bursts():
    """Two packets from one source leave one port slot apart."""
    engine, net, inbox = rig()
    engine.schedule(0, net.send, pkt(0, 3))
    engine.schedule(0, net.send, pkt(0, 3))
    engine.run()
    t1, t2 = inbox[3][0][0], inbox[3][1][0]
    assert t2 - t1 == TimingModel().port_cycles_per_packet


def test_non_overtaking_same_pair():
    engine, net, inbox = rig()
    for i in range(10):
        engine.schedule(i, net.send, pkt(1, 6, data=i))
    engine.run()
    datas = [p.data for _, p in inbox[6]]
    assert datas == list(range(10))


def test_wide_packet_occupies_more_bandwidth():
    engine, net, inbox = rig()
    wide = Packet(kind=PacketKind.BLOCK_READ_REPLY, src=0, dst=3, words=8)
    engine.schedule(0, net.send, wide)
    engine.schedule(0, net.send, pkt(0, 3))
    engine.run()
    t_wide, t_after = inbox[3][0][0], inbox[3][1][0]
    assert t_after - t_wide == wide.slots(TimingModel().port_cycles_per_packet)


def test_detailed_models_stage_contention():
    """Cross traffic through a shared switch port delays one packet in
    the detailed model but not the analytic one."""

    def run(cls):
        engine, net, inbox = rig(cls=cls)
        # Find two sources whose routes to their destinations share a
        # switch output port.
        ports = {}
        shared = None
        for src in range(8):
            for dst in range(8):
                for hop in net.topology.route(src, dst):
                    key = (hop.node, hop.bit)
                    if key in ports and ports[key][0] != src:
                        shared = (ports[key], (src, dst))
                        break
                    ports[key] = (src, dst)
                if shared:
                    break
            if shared:
                break
        assert shared is not None
        (s1, d1), (s2, d2) = shared
        engine.schedule(0, net.send, pkt(s1, d1))
        engine.schedule(0, net.send, pkt(s2, d2))
        engine.run()
        return inbox[d2][0][0] if d1 != d2 else inbox[d2][1][0]

    base = TimingModel()
    t_detailed = run(DetailedOmegaNetwork)
    t_analytic = run(AnalyticOmegaNetwork)
    assert t_detailed >= t_analytic  # contention can only delay


def test_stats_accumulate():
    engine, net, _ = rig()
    for i in range(5):
        engine.schedule(i * 10, net.send, pkt(0, 3))
    engine.run()
    assert net.stats.packets == 5
    assert net.stats.words == 10
    assert net.stats.mean_latency > 0
    assert net.stats.count(PacketKind.WRITE) == 5
    assert "write=5" in net.stats.summary()


def test_unattached_destination_rejected():
    engine = Engine()
    net = DetailedOmegaNetwork(engine, CircularOmegaTopology(4), TimingModel())
    net.attach(0, lambda p: None)
    with pytest.raises(NetworkError):
        net.send(pkt(0, 2))


def test_double_attach_rejected():
    engine = Engine()
    net = DetailedOmegaNetwork(engine, CircularOmegaTopology(4), TimingModel())
    net.attach(0, lambda p: None)
    with pytest.raises(NetworkError):
        net.attach(0, lambda p: None)


def test_attach_outside_network_rejected():
    """Sinks live in a per-PE list: a negative PE must not wrap around."""
    net = DetailedOmegaNetwork(Engine(), CircularOmegaTopology(4), TimingModel())
    for pe in (-1, 4):
        with pytest.raises(NetworkError):
            net.attach(pe, lambda p: None)


def test_build_network_selects_model():
    engine = Engine()
    assert isinstance(
        build_network(engine, MachineConfig(n_pes=4, network_model="detailed")),
        DetailedOmegaNetwork,
    )
    assert isinstance(
        build_network(engine, MachineConfig(n_pes=4, network_model="analytic")),
        AnalyticOmegaNetwork,
    )


def test_in_flight_tracking():
    engine, net, _ = rig()
    engine.schedule(0, net.send, pkt(0, 5))
    engine.run(until=0)  # the send itself; the first hop is later
    assert net.in_flight == 1
    # Stopped mid-route, only the ports the packet has reached are used;
    # the rest of its route, ejection port included, is absent.
    engine.run(until=1)
    sw = [("sw", h.node, h.bit) for h in net.topology.route(0, 5)]
    assert net.port_utilization(horizon=10) == {("inj", 0): 0.2, sw[0]: 0.2, sw[1]: 0.2}
    engine.run()
    assert net.in_flight == 0


def test_port_utilization_tracks_busy_fraction():
    engine, net, _ = rig()
    for i in range(10):
        engine.schedule(i * 4, net.send, pkt(0, 3))
    engine.run()
    util = net.port_utilization()
    inj = util[("inj", 0)]
    assert 0 < inj <= 1.0
    # 10 packets x 2 cycles over the run span.
    assert inj == pytest.approx(20 / engine.now)
    assert util[("ej", 3)] == pytest.approx(20 / engine.now)


def test_hottest_ports_sorted():
    engine, net, _ = rig()
    engine.schedule(0, net.send, pkt(0, 3))
    engine.schedule(0, net.send, pkt(0, 3))
    engine.schedule(0, net.send, pkt(1, 2))
    engine.run()
    hottest = net.hottest_ports(top=3)
    assert len(hottest) == 3
    assert hottest[0][1] >= hottest[1][1] >= hottest[2][1]


def test_port_utilization_empty_network():
    engine, net, _ = rig()
    assert net.port_utilization() == {}


# ----------------------------------------------------------------------
# Differential: analytic vs detailed agree on conflict-free traffic
# ----------------------------------------------------------------------
def _probe_latencies(n_pes, model):
    """Per-packet delivery latency of every ordered pair, one packet in
    flight at a time (1000-cycle spacing leaves every port idle)."""
    config = MachineConfig(n_pes=n_pes, network_model=model)
    engine = Engine()
    net = build_network(engine, config)
    latencies = {}
    sent_at = {}

    def sink_for(dst):
        def sink(p):
            latencies[(p.src, p.dst)] = engine.now - sent_at[(p.src, p.dst)]

        return sink

    for pe in range(n_pes):
        net.attach(pe, sink_for(pe))
    pairs = [(s, d) for s in range(n_pes) for d in range(n_pes) if s != d]
    for i, (src, dst) in enumerate(pairs):
        when = i * 1000
        sent_at[(src, dst)] = when
        packet = Packet(kind=PacketKind.READ_REQ, src=src, dst=dst, data=None)
        engine.schedule_at(when, net.send, packet)
    engine.run()
    assert len(latencies) == len(pairs)
    return latencies


@pytest.mark.parametrize("n_pes", [2, 16, 64])
def test_models_agree_on_conflict_free_traffic(n_pes):
    detailed = _probe_latencies(n_pes, "detailed")
    analytic = _probe_latencies(n_pes, "analytic")
    assert detailed == analytic
