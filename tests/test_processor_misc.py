"""OBU, processor state inspection, and the 80-PE prototype smoke run."""

from repro import EMX, MachineConfig
from repro.machine import emx80
from repro.packet import PacketKind


def test_obu_counts_injections(machine4):
    @machine4.thread
    def writer(ctx):
        for i in range(4):
            yield ctx.write(ctx.ga(1, i), i)

    machine4.spawn(0, "writer")
    report = machine4.run()
    # The spawn enters PE 0's FIFO directly; only the writes cross.
    assert report.network.packets == 4
    assert report.network.words == 8


def test_obu_counts_dma_replies(machine4):
    @machine4.thread
    def reader(ctx):
        yield ctx.read(ctx.ga(1, 0))

    machine4.spawn(0, "reader")
    report = machine4.run()
    # PE 1's OBU carried the DMA reply even though its EXU never ran.
    assert report.network.by_kind[PacketKind.READ_REPLY] == 1


def test_stuck_report_quiet_when_clean(machine4):
    assert machine4.pes[0].stuck_report() is None


def test_stuck_report_describes_live_work(machine4):
    from repro import OrderToken

    tok = OrderToken()

    @machine4.thread
    def waiter(ctx):
        yield ctx.token_wait(tok, 3)

    machine4.spawn(2, "waiter")
    try:
        machine4.run()
    except Exception:
        pass
    report = machine4.pes[2].stuck_report()
    assert report is not None and "PE 2" in report


def test_emx80_prototype_runs():
    """The full 80-processor prototype executes a ring program."""
    m = emx80(memory_words=1 << 12)
    visited = []

    @m.thread
    def hop(ctx, remaining):
        visited.append(ctx.pe)
        yield ctx.compute(5)
        if remaining:
            yield ctx.spawn((ctx.pe + 7) % 80, "hop", remaining - 1)

    m.spawn(0, "hop", 79)
    report = m.run()
    assert len(visited) == 80
    assert report.network.packets >= 79
    # The pad switches (80..127) exist but only PEs terminate packets.
    assert m.network.topology.n_switches == 128


def test_network_mean_hops_statistic(machine16):
    @machine16.thread
    def reader(ctx, mate):
        yield ctx.read(ctx.ga(mate, 0))

    for pe in range(16):
        machine16.spawn(pe, "reader", (pe + 8) % 16)
    report = machine16.run()
    assert 0 < report.network.mean_hops <= machine16.network.topology.tag_bits


def test_packet_counter_on_processor(machine4):
    @machine4.thread
    def reader(ctx):
        yield ctx.read(ctx.ga(1, 0))

    machine4.spawn(0, "reader")
    machine4.run()
    # PE0's own INVOKE spawn packet is enqueued locally (not via the
    # network); it handled the READ_REPLY.
    assert machine4.pes[0].counters.packets_handled >= 1
