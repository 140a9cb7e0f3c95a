"""RUBIN channel behaviour: connect/accept, read/write, optimizations."""

import pytest

from repro.errors import RubinError
from repro.nio import ByteBuffer
from repro.rubin import RubinConfig

from tests.rubin.conftest import RubinRig, close_while_charging


def write_all(rig, channel, payload):
    """Write ``payload`` as one message, retrying while the queue is full."""

    def writer(env):
        buf = ByteBuffer.wrap(payload)
        while buf.has_remaining():
            n = yield channel.write(buf)
            if n == 0:
                yield env.timeout(20e-6)
        return len(payload)

    return rig.env.process(writer(rig.env))


def read_message(rig, channel, size, deadline=0.5):
    """Read exactly ``size`` bytes from the channel."""

    def reader(env):
        buf = ByteBuffer.allocate(size)
        got = 0
        end = env.now + deadline
        while got < size and env.now < end:
            n = yield channel.read(buf)
            if n is None:
                break
            if n == 0:
                yield env.timeout(10e-6)
            else:
                got += n
        buf.flip()
        return buf.get()

    return rig.env.process(reader(rig.env))


class TestEstablishment:
    def test_connect_accept_handshake(self, rig):
        client, server = rig.establish()
        assert client.established
        assert server.established

    def test_channels_have_unique_ids(self, rig):
        client, server = rig.establish()
        assert client.channel_id != server.channel_id

    def test_connect_to_unbound_port_errors_channel(self, rig):
        client = rig.dial(port=9999)
        rig.run_for(5e-3)
        assert client.errored
        with pytest.raises(RubinError, match="failed"):
            client.finish_connect()

    def test_finish_connect_consumes_accept_readiness(self, rig):
        client, _server = rig.establish()
        assert client.accept_pending
        assert client.finish_connect()
        assert not client.accept_pending

    def test_server_accept_returns_none_without_request(self, rig):
        server = rig.serve()
        assert server.accept() is None

    def test_closed_server_rejects_new_connections(self, rig):
        server = rig.serve()
        server.close()
        client = rig.dial()
        rig.run_for(5e-3)
        assert client.errored


class TestDataTransfer:
    def test_small_message_roundtrip(self, rig):
        client, server = rig.establish()
        payload = b"rubin hello"
        write_all(rig, client, payload)
        p = read_message(rig, server, len(payload))
        assert rig.env.run(until=p) == payload

    def test_large_message_roundtrip(self, rig):
        client, server = rig.establish()
        payload = bytes(i % 256 for i in range(100_000))
        write_all(rig, client, payload)
        p = read_message(rig, server, len(payload))
        assert rig.env.run(until=p) == payload

    def test_bidirectional_messages(self, rig):
        client, server = rig.establish()
        write_all(rig, client, b"ping")
        write_all(rig, server, b"pong")
        p1 = read_message(rig, server, 4)
        p2 = read_message(rig, client, 4)
        assert rig.env.run(until=p1) == b"ping"
        assert rig.env.run(until=p2) == b"pong"

    def test_many_messages_preserve_order(self, rig):
        client, server = rig.establish()
        messages = [f"msg-{i:03d}".encode() for i in range(50)]

        def writer(env):
            for message in messages:
                buf = ByteBuffer.wrap(message)
                while buf.has_remaining():
                    n = yield client.write(buf)
                    if n == 0:
                        yield env.timeout(20e-6)

        def reader(env):
            got = []
            buf = ByteBuffer.allocate(16)
            while len(got) < len(messages):
                buf.clear()
                n = yield server.read(buf)
                if n and n > 0:
                    buf.flip()
                    got.append(buf.get())
                else:
                    yield env.timeout(10e-6)
            return got

        rig.env.process(writer(rig.env))
        p = rig.env.process(reader(rig.env))
        assert rig.env.run(until=p) == messages

    def test_read_with_no_data_returns_zero(self, rig):
        client, server = rig.establish()

        def reader(env):
            n = yield server.read(ByteBuffer.allocate(64))
            return n

        p = rig.env.process(reader(rig.env))
        assert rig.env.run(until=p) == 0

    def test_partial_read_of_large_message(self, rig):
        """A message larger than the app buffer is consumed in pieces,
        like a NIO stream read."""
        client, server = rig.establish()
        payload = bytes(range(256)) * 8  # 2048 B
        write_all(rig, client, payload)
        pieces = []

        def reader(env):
            while sum(len(p) for p in pieces) < len(payload):
                buf = ByteBuffer.allocate(500)
                n = yield server.read(buf)
                if n and n > 0:
                    buf.flip()
                    pieces.append(buf.get())
                else:
                    yield env.timeout(10e-6)

        p = rig.env.process(reader(rig.env))
        rig.env.run(until=p)
        assert b"".join(pieces) == payload

    def test_parked_messages_stay_readable_after_the_qp_fails(self, small_rig):
        rig = small_rig
        client, server = rig.establish()
        batch = rig.config.post_batch
        payloads = [bytes([0x61 + i]) * 1000 for i in range(batch)]
        for payload in payloads:
            rig.env.run(until=write_all(rig, server, payload))
        rig.run_for(1e-3)
        client.qp._enter_error()  # e.g. retries exhausted
        assert client.closed and client.remote_addr is not None
        # The read that fills a repost batch posts nothing to the dead QP;
        # the re-dial hands every buffer back and posts the whole pool.
        for payload in payloads:
            assert rig.env.run(until=read_message(rig, client, 1000)) == payload
        client.reconnect()
        assert client.qp.recv_queue_depth == client.recv_pool.capacity

    def test_message_bigger_than_channel_buffer_rejected(self, small_rig):
        client, _server = small_rig.establish()

        def writer(env):
            yield client.write(ByteBuffer.wrap(b"x" * 10_000))

        p = small_rig.env.process(writer(small_rig.env))
        with pytest.raises(RubinError, match="exceeds channel buffer size"):
            small_rig.env.run(until=p)

    def test_write_on_unestablished_channel_raises(self, rig):
        client = rig.dial(port=4791)  # nobody listening -> never established

        def writer(env):
            yield client.write(ByteBuffer.wrap(b"x"))

        p = rig.env.process(writer(rig.env))
        with pytest.raises(RubinError):
            rig.env.run(until=p)

    def test_write_returns_zero_when_backlogged(self, small_rig):
        """With a tiny send queue and a stalled reader, writes back off."""
        client, _server = small_rig.establish()

        def writer(env):
            zeros = 0
            for _ in range(20):
                n = yield client.write(ByteBuffer.wrap(b"y" * 2048))
                if n == 0:
                    zeros += 1
                    yield env.timeout(5e-6)
            return zeros

        p = small_rig.env.process(writer(small_rig.env))
        zeros = small_rig.env.run(until=p)
        assert zeros > 0  # backpressure observed


class TestWhenReadable:
    """The one-shot subscription a sleeping reader wakes on."""

    def test_fires_once_when_a_message_lands(self, rig):
        client, server = rig.establish()
        woken = []
        server.when_readable(lambda: woken.append(server.receivable))
        write_all(rig, client, b"first")
        write_all(rig, client, b"second")
        rig.run_for(1e-3)
        assert woken == [True]
        assert server.recv_cq.push_waiters == []

    def test_fires_on_close_and_on_error(self, rig):
        client, server = rig.establish()
        woken = []
        client.when_readable(lambda: woken.append("close"))
        client.close()
        assert woken == ["close"] and client.closed
        # No receive is posted on a dead QP, so only _notify can tell.
        client.when_readable(lambda: woken.append("error"))
        client._enter_error("test")
        assert woken == ["close", "error"]
        assert client.recv_cq.push_waiters == []

    def test_attaches_no_completion_channel(self, rig):
        client, server = rig.establish()
        server.when_readable(lambda: None)
        assert server.recv_cq.channel is None
        assert len(server._watchers) == 0


class TestOptimizations:
    def test_inline_path_used_for_small_messages(self, rig):
        client, server = rig.establish()
        payload = b"i" * 200  # below the 256 B threshold
        write_all(rig, client, payload)
        p = read_message(rig, server, len(payload))
        assert rig.env.run(until=p) == payload
        # Inline sends never register the app buffer.
        assert client._app_mr_cache == {}

    def test_zero_copy_send_registers_app_buffer_once(self, rig):
        client, server = rig.establish()
        app_buffer = ByteBuffer.allocate(8192)
        for _ in range(3):
            app_buffer.clear()
            app_buffer.put(b"z" * 4096)
            app_buffer.flip()

            def writer(env, buf=app_buffer):
                while buf.has_remaining():
                    n = yield client.write(buf)
                    if n == 0:
                        yield env.timeout(20e-6)

            p = rig.env.process(writer(rig.env))
            rig.env.run(until=p)
            q = read_message(rig, server, 4096)
            assert rig.env.run(until=q) == b"z" * 4096
        assert len(client._app_mr_cache) == 1  # registered exactly once

    def test_a_close_during_registration_leaves_no_registration(
        self, rig, monkeypatch
    ):
        client, _server = rig.establish()
        closed = close_while_charging(monkeypatch, client, "_app_buffer_mr")
        with pytest.raises(RubinError, match="closed"):
            rig.env.run(until=write_all(rig, client, b"z" * 4096))
        assert closed
        # The close took the pools' registrations; none came after it.
        assert client._app_mr_cache == {}
        assert rig.client_dev._mrs == {}

    def test_copy_send_path_uses_pool(self):
        rig = RubinRig(config=RubinConfig(zero_copy_send=False))
        client, server = rig.establish()
        payload = b"c" * 8192
        write_all(rig, client, payload)
        p = read_message(rig, server, len(payload))
        assert rig.env.run(until=p) == payload
        assert client._app_mr_cache == {}  # no app registration happened

    def test_selective_signaling_interval_respected(self):
        rig = RubinRig(config=RubinConfig(signal_interval=4))
        client, server = rig.establish()
        for i in range(8):
            write_all(rig, client, b"m" * 512)
            p = read_message(rig, server, 512)
            rig.env.run(until=p)
        rig.run_for(2e-3)
        # 8 sends, signal every 4th: at most 2 send CQEs were generated
        # (they are drained internally; check the QP's accounting instead).
        assert client.qp.send_queue_free == client.config.num_send_buffers

    def test_recv_buffers_reposted_in_batches(self, rig):
        client, server = rig.establish()
        # Consume more messages than one post batch.
        for i in range(rig.config.post_batch + 2):
            write_all(rig, client, b"r" * 128)
            p = read_message(rig, server, 128)
            rig.env.run(until=p)
        # All pool buffers are either posted or queued for repost; the
        # ready list is empty and nothing leaked.
        assert not server._ready_messages
        total = server.recv_pool.capacity
        posted = server.qp.recv_queue_depth
        backlog = len(server._repost_backlog)
        in_map_not_completed = len(server._recv_wr_map)
        assert posted <= in_map_not_completed
        assert backlog < rig.config.post_batch
        assert in_map_not_completed + backlog + server.recv_pool.available == total


def test_invalid_configs_rejected():
    with pytest.raises(Exception, match="signal_interval"):
        RubinConfig(signal_interval=0)
    with pytest.raises(Exception, match="post_batch"):
        RubinConfig(post_batch=0)
    with pytest.raises(Exception, match="post_batch"):
        RubinConfig(num_recv_buffers=4, post_batch=8)
