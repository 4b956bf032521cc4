"""Execution Unit: burst semantics, effect costs, bucket accounting."""

import pytest

from repro import EMX, Bucket, MachineConfig, SwitchKind
from repro.errors import ThreadProtocolError


def mk():
    return EMX(MachineConfig(n_pes=4, memory_words=1 << 12))


def test_compute_charges_computation_bucket():
    m = mk()

    @m.thread
    def worker(ctx):
        yield ctx.compute(100)

    m.spawn(0, "worker")
    report = m.run()
    assert report.counters[0].cycles[Bucket.COMPUTATION] == 100


def test_invocation_charges_matching_cost():
    m = mk()

    @m.thread
    def worker(ctx):
        yield ctx.compute(1)

    m.spawn(0, "worker")
    report = m.run()
    assert report.counters[0].cycles[Bucket.SWITCHING] == m.config.timing.match_invoke


def test_remote_read_roundtrip_time():
    """Single remote read: runtime = burst + RTT + resume burst."""
    m = mk()

    @m.thread
    def reader(ctx):
        v = yield ctx.read(ctx.ga(1, 0))
        assert v == 42

    m.pes[1].memory.write(0, 42)
    m.spawn(0, "reader")
    report = m.run()
    t = m.config.timing
    issue_burst = t.match_invoke + t.pkt_gen + t.reg_save
    rtt_min = 2 + t.ibu_dma_service + 2  # two 1+eject transits + DMA
    assert report.runtime_cycles >= issue_burst + rtt_min + t.match_invoke
    c = report.counters[0]
    assert c.reads_issued == 1
    assert c.switches[SwitchKind.REMOTE_READ] == 1
    assert c.cycles[Bucket.OVERHEAD] == t.pkt_gen
    assert c.cycles[Bucket.COMMUNICATION] > 0


def test_remote_write_does_not_suspend():
    """A thread doing N writes runs them all in one burst."""
    m = mk()

    @m.thread
    def writer(ctx):
        for i in range(10):
            yield ctx.write(ctx.ga(1, i), i)

    m.spawn(0, "writer")
    report = m.run()
    c = report.counters[0]
    assert c.writes_issued == 10
    assert c.switches[SwitchKind.REMOTE_READ] == 0
    # All ten packet generations in one burst, one invocation cost.
    assert c.cycles[Bucket.OVERHEAD] == 10 * m.config.timing.pkt_gen
    assert c.cycles[Bucket.SWITCHING] == m.config.timing.match_invoke
    assert [m.pes[1].memory.read(i) for i in range(10)] == list(range(10))


def test_spawn_crosses_processors():
    m = mk()
    ran = []

    @m.thread
    def child(ctx, tag):
        ran.append((ctx.pe, tag))
        yield ctx.compute(1)

    @m.thread
    def parent(ctx):
        yield ctx.spawn(3, "child", "hello")
        yield ctx.compute(1)

    m.spawn(0, "parent")
    m.run()
    assert ran == [(3, "hello")]


def test_read_pair_matches_both_operands():
    m = mk()
    got = {}

    @m.thread
    def pair_reader(ctx):
        got["pair"] = yield ctx.read_pair(ctx.ga(1, 0), ctx.ga(1, 1))

    m.pes[1].memory.write_block(0, [3.5, -2.0])
    m.spawn(0, "pair_reader")
    report = m.run()
    assert got["pair"] == (3.5, -2.0)
    c = report.counters[0]
    assert c.reads_issued == 2
    assert c.switches[SwitchKind.REMOTE_READ] == 1  # one suspension
    assert m.pes[0].matching.pending == 0  # the first reply parked, the second matched


def test_read_pair_from_two_processors():
    m = mk()
    got = {}

    @m.thread
    def pair_reader(ctx):
        got["pair"] = yield ctx.read_pair(ctx.ga(1, 0), ctx.ga(2, 0))

    m.pes[1].memory.write(0, 10)
    m.pes[2].memory.write(0, 20)
    m.spawn(0, "pair_reader")
    m.run()
    assert got["pair"] == (10, 20)


def test_explicit_switch_requeues_fifo():
    """SwitchNow sends the thread to the queue tail, behind other work."""
    m = mk()
    order = []

    @m.thread
    def yielder(ctx):
        order.append("y1")
        yield ctx.switch()
        order.append("y2")

    @m.thread
    def other(ctx):
        order.append("other")
        yield ctx.compute(1)

    m.spawn(0, "yielder")
    m.spawn(0, "other")
    report = m.run()
    assert order == ["y1", "other", "y2"]
    assert report.counters[0].switches[SwitchKind.EXPLICIT] == 1


def test_non_effect_yield_raises():
    m = mk()

    @m.thread
    def bad(ctx):
        yield 42

    m.spawn(0, "bad")
    with pytest.raises(ThreadProtocolError):
        m.run()


def test_bucket_accounting_is_exact():
    """Buckets cover each PE's busy window exactly (checked in run())."""
    m = mk()

    @m.thread
    def worker(ctx, mate):
        for i in range(5):
            yield ctx.compute(7)
            v = yield ctx.read(ctx.ga(mate, i))
            yield ctx.write(ctx.ga(mate, i + 8), v + 1)

    m.pes[1].memory.write_block(0, [1, 2, 3, 4, 5])
    m.pes[0].memory.write_block(0, [9, 9, 9, 9, 9])
    m.spawn(0, "worker", 1)
    m.spawn(1, "worker", 0)
    report = m.run()  # run() raises if accounting mismatches
    for c in report.counters[:2]:
        assert c.total_cycles == c.busy_span
