"""Consumed receive buffers give their pages back when they are re-posted.

When a repost batch fires, every buffer in it except the one just read is
released with ``madvise(MADV_DONTNEED)``: its pages read back as zeros
until the RNIC writes the next message into them.  The buffer just read
is exempt, because a ``read_view`` caller consumes a view of it after the
recycle.  A destroyed pool's buffers are never posted again.
"""

import mmap

import pytest

from repro.nio import ByteBuffer
from repro.rubin import RubinConfig

from tests.rubin.conftest import RubinRig, close_while_charging
from tests.rubin.test_channel import read_message

pytestmark = pytest.mark.skipif(
    not hasattr(mmap, "MADV_DONTNEED"), reason="no MADV_DONTNEED here"
)

BATCH = 4
#: Two pages per buffer, each message touching both.
SIZE = 2 * mmap.PAGESIZE
PAYLOADS = [bytes([0x41 + i]) * (SIZE - 100) for i in range(BATCH)]


def make_rig():
    return RubinRig(
        config=RubinConfig(
            buffer_size=SIZE,
            num_recv_buffers=2 * BATCH,
            num_send_buffers=2 * BATCH,
            post_batch=BATCH,
        )
    )


def send_all(rig, channel, payloads):
    def writer(env):
        for payload in payloads:
            buf = ByteBuffer.wrap(payload)
            while buf.has_remaining():
                if (yield channel.write(buf)) == 0:
                    yield env.timeout(20e-6)

    rig.env.run(until=rig.env.process(writer(rig.env)))
    rig.run_for(1e-3)


def spy_reposts(channel):
    """Record each repost batch's buffer contents as it is posted."""
    posted = []
    post = channel.qp.post_recv_batch

    def spy(batch):
        posted.append([bytes(wr.sge.mr.buffer) for wr in batch])
        return post(batch)

    channel.qp.post_recv_batch = spy
    return posted


def test_repost_batch_releases_every_buffer_but_the_one_just_read():
    rig = make_rig()
    client, server = rig.establish()
    posted = spy_reposts(server)
    send_all(rig, client, PAYLOADS)
    for payload in PAYLOADS:
        assert rig.env.run(until=read_message(rig, server, len(payload))) == payload
    assert len(posted) == 1
    *released, just_read = posted[0]
    assert released == [bytes(SIZE)] * (BATCH - 1)
    assert just_read.startswith(PAYLOADS[-1])


def test_a_view_whose_read_fills_the_batch_keeps_its_bytes():
    rig = make_rig()
    client, server = rig.establish()
    posted = spy_reposts(server)
    send_all(rig, client, PAYLOADS)

    def reader(env):
        got = []
        while len(got) < BATCH:
            view = yield server.read_view(SIZE)
            assert isinstance(view, memoryview)
            got.append(bytes(view))
            view.release()
        return got

    assert rig.env.run(until=rig.env.process(reader(rig.env))) == PAYLOADS
    assert len(posted) == 1


def test_a_destroyed_pool_is_skipped():
    rig = make_rig()
    client, server = rig.establish()
    posted = spy_reposts(server)
    send_all(rig, client, PAYLOADS)
    server.close()
    assert server.recv_pool._memory is None
    # The parked messages stay readable, and the read that would fill a
    # repost batch neither advises the unmapped pool nor posts its
    # deregistered buffers to the dead queue pair.
    for payload in PAYLOADS:
        assert rig.env.run(until=read_message(rig, server, len(payload))) == payload
    assert posted == []


def test_a_pool_destroyed_while_the_batch_is_built_is_skipped(monkeypatch):
    rig = make_rig()
    client, server = rig.establish()
    posted = spy_reposts(server)
    send_all(rig, client, PAYLOADS)
    closed = close_while_charging(monkeypatch, server, "_recycle_recv_buffer")
    # The read that fills the batch closes the channel while the post is
    # charged; it still returns its message and posts nothing.
    for payload in PAYLOADS:
        assert rig.env.run(until=read_message(rig, server, len(payload))) == payload
    assert closed
    assert server.recv_pool._memory is None
    assert posted == []
