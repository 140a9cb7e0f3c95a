"""The Fig-3 channel echo skips polls that cannot find anything.

``rubin_channel_echo`` waits for a message on a 0.2 us poll grid.  A poll
of a channel that reports nothing receivable drains an empty CQ and
returns 0, so the echo keeps only the poll's grid timer.  The reference
below is the loop that still issues every read; dropping the idle reads
must not move a single latency.
"""

import pytest

from repro.bench.calibration import build_testbed
from repro.bench.echo import ECHO_PORT, rubin_channel_echo
from repro.nio import ByteBuffer
from repro.rdma import ConnectionManager
from repro.rubin import RubinChannel, RubinConfig, RubinServerChannel

MESSAGES = 12


def reference_echo(payload_bytes, messages):
    """``rubin_channel_echo`` with a read per poll.

    Returns (latencies_us, events, repeat_idle_reads): the last counts
    the reads that found nothing *after* an earlier one had already said
    so — the ones ``rubin_channel_echo`` leaves out.
    """
    bed = build_testbed()
    env = bed.env
    config = RubinConfig()
    server_chan = RubinServerChannel(
        bed.server.stack("rdma"),
        ConnectionManager(bed.server.stack("rdma")),
        ECHO_PORT,
        config,
    )
    client_chan = RubinChannel.connect(
        bed.client.stack("rdma"),
        ConnectionManager(bed.client.stack("rdma")),
        "server",
        ECHO_PORT,
        config,
    )
    wake_cost = bed.client.cpu.costs.context_switch
    latencies_us = []
    repeat_idle_reads = [0]

    def read_exactly(channel, host, buffer, nbytes):
        got = 0
        blocked = False
        while got < nbytes:
            n = yield channel.read(buffer)
            assert n is not None
            if n == 0:
                repeat_idle_reads[0] += blocked
                blocked = True
                yield env.timeout(0.2e-6)
            else:
                if blocked:
                    yield host.cpu.execute(wake_cost)
                    blocked = False
                got += n

    def write_all(channel, buffer):
        while buffer.has_remaining():
            n = yield channel.write(buffer)
            if n == 0:
                yield env.timeout(0.2e-6)

    def server(env):
        while not server_chan.connect_pending:
            yield env.timeout(1e-6)
        accepted = server_chan.accept(config)
        while not accepted.established:
            yield env.timeout(1e-6)
        inbuf = ByteBuffer.allocate(payload_bytes)
        for _ in range(messages):
            inbuf.clear()
            yield from read_exactly(accepted, bed.server, inbuf, payload_bytes)
            inbuf.flip()
            yield from write_all(accepted, inbuf)

    def client(env):
        while not client_chan.established:
            yield env.timeout(1e-6)
        outbuf = ByteBuffer.allocate(payload_bytes)
        outbuf.put(b"\xa5" * payload_bytes)
        scratch = ByteBuffer.allocate(payload_bytes)
        for _ in range(messages):
            t0 = env.now
            outbuf.rewind()
            yield from write_all(client_chan, outbuf)
            scratch.clear()
            yield from read_exactly(client_chan, bed.client, scratch, payload_bytes)
            latencies_us.append((env.now - t0) * 1e6)

    env.process(server(env), name="rubin.server")
    env.run(until=env.process(client(env), name="rubin.client"))
    return latencies_us, env._eid, repeat_idle_reads[0]


@pytest.mark.parametrize("payload_bytes", [1024, 10 * 1024, 32 * 1024])
def test_latencies_match_the_loop_that_reads_on_every_poll(payload_bytes):
    expected, reference_events, repeat_idle_reads = reference_echo(
        payload_bytes, MESSAGES
    )
    result = rubin_channel_echo(payload_bytes, MESSAGES)
    assert result.latencies_us == expected
    # An idle read is a ``rubin.read`` process that drains an empty CQ:
    # its start rides the urgent lane, so what it costs the agenda is its
    # completion entry — one per read left out, and nothing else moved.
    assert reference_events - result.sim_events == repeat_idle_reads
    # They were a good third of the reference's entries (two thirds when
    # a start was an entry too).
    assert repeat_idle_reads > reference_events / 3
