"""Input Buffer Unit: DMA service, priorities, overflow, write path."""

from collections import Counter

import pytest

from repro import EMX, MachineConfig
from repro.packet import GlobalAddress, Packet, PacketKind, Priority


def mk_machine(**overrides):
    return EMX(MachineConfig(n_pes=4, memory_words=1 << 12).with_(**overrides))


def test_remote_write_completes_without_exu():
    """A WRITE packet updates memory and never reaches the EXU queue."""
    m = mk_machine()
    target = m.pes[1]
    pkt = Packet(
        kind=PacketKind.WRITE, src=0, dst=1, address=GlobalAddress(1, 7).packed(), data=99
    )
    m.engine.schedule(0, m.network.send, pkt)
    m.engine.run()
    assert target.memory.read(7) == 99
    assert target.ibu.queued == 0
    assert target.counters.total_cycles == 0  # EXU never woke up


def test_dma_read_service_consumes_no_exu_cycles():
    """EM-X by-passing DMA: the read target's EXU stays silent."""
    m = mk_machine()

    @m.thread
    def reader(ctx):
        v = yield ctx.read(ctx.ga(1, 3))
        assert v == 5

    m.pes[1].memory.write(3, 5)
    m.spawn(0, "reader")
    report = m.run()
    assert report.counters[1].total_cycles == 0
    assert report.counters[1].reads_serviced == 1


def test_em4_mode_read_service_steals_exu_cycles():
    m = mk_machine(em4_mode=True)

    @m.thread
    def reader(ctx):
        v = yield ctx.read(ctx.ga(1, 3))
        assert v == 5

    m.pes[1].memory.write(3, 5)
    m.spawn(0, "reader")
    report = m.run()
    assert report.counters[1].total_cycles >= m.config.timing.em4_read_service
    assert report.counters[1].reads_serviced == 1


def test_dma_serialises_back_to_back_requests():
    """Two requests to the same IBU are serviced one DMA slot apart."""
    m = mk_machine()
    finish = {}

    @m.thread
    def reader(ctx, tag):
        yield ctx.read(ctx.ga(2, 0))
        finish[tag] = True

    m.spawn(0, "reader", "a")
    m.spawn(1, "reader", "b")
    report = m.run()
    assert finish == {"a": True, "b": True}
    assert report.counters[2].reads_serviced == 2


def test_priority_replies_use_high_fifo():
    m = mk_machine(priority_replies=True)
    proc = m.pes[0]
    reply = Packet(kind=PacketKind.READ_REPLY, src=1, dst=0, address=0, data=1,
                   priority=Priority.HIGH)
    normal = Packet(kind=PacketKind.RESUME, src=0, dst=0, data=("explicit", None))
    proc.ibu.enqueue(normal)
    proc.ibu.enqueue(reply)
    popped, _ = proc.ibu.pop()
    assert popped.kind is PacketKind.READ_REPLY  # high priority first


@pytest.mark.parametrize("em4_mode", [False, True], ids=["dma", "em4"])
def test_priority_replies_leave_high_whoever_serves_the_read(em4_mode):
    """``priority_replies`` marks every read reply HIGH, DMA- or EXU-served."""
    m = mk_machine(priority_replies=True, em4_mode=em4_mode)
    sent = []
    send = m.network.send

    def spy(pkt):
        sent.append(pkt)
        send(pkt)

    m.network.send = spy

    @m.thread
    def reader(ctx):
        yield ctx.read(ctx.ga(1, 0))
        yield ctx.read_pair(ctx.ga(1, 1), ctx.ga(1, 2))
        yield ctx.read_block(ctx.ga(1, 3), 2)

    m.spawn(0, "reader")
    m.run()
    replies = [pkt for pkt in sent if pkt.src == 1]
    assert Counter(pkt.kind for pkt in replies) == {
        PacketKind.READ_REPLY: 1,
        PacketKind.READ_REPLY_PAIR: 2,
        PacketKind.BLOCK_READ_REPLY: 1,
    }
    assert all(pkt.priority is Priority.HIGH for pkt in replies)


def test_overflow_counts_and_extra_cost():
    m = EMX(MachineConfig(n_pes=2, ibu_fifo_depth=2, memory_words=1 << 12))
    proc = m.pes[0]
    for i in range(5):
        proc.ibu.enqueue(Packet(kind=PacketKind.RESUME, src=0, dst=0, data=("explicit", i)))
    assert proc.counters.ibu_overflows == 3
    # First two on-chip packets dequeue free; the rest pay the restore.
    assert proc.ibu.pop()[1] == 0
    assert proc.ibu.pop()[1] == 0
    assert proc.ibu.pop()[1] == m.config.timing.mem_exchange


def test_block_read_round_trip():
    m = mk_machine()
    got = {}

    @m.thread
    def blocker(ctx):
        values = yield ctx.read_block(ctx.ga(1, 4), 4)
        got["values"] = values

    m.pes[1].memory.write_block(4, [10, 11, 12, 13])
    m.spawn(0, "blocker")
    m.run()
    assert got["values"] == [10, 11, 12, 13]


def test_block_read_em4_mode():
    m = mk_machine(em4_mode=True)
    got = {}

    @m.thread
    def blocker(ctx):
        got["values"] = yield ctx.read_block(ctx.ga(1, 0), 3)

    m.pes[1].memory.write_block(0, [7, 8, 9])
    m.spawn(0, "blocker")
    m.run()
    assert got["values"] == [7, 8, 9]
