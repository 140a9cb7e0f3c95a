"""RUBIN selector: the Figure-2 event flow, end to end."""

import pytest

from repro.errors import RubinError
from repro.nio import ByteBuffer
from repro.rubin import (
    OP_ACCEPT,
    OP_CONNECT,
    OP_RECEIVE,
    OP_SEND,
    RubinConfig,
    RubinSelector,
)

from tests.rubin.conftest import RubinRig
from tests.rubin.test_channel import read_message, write_all


@pytest.fixture
def rig():
    return RubinRig()


def test_op_connect_fires_on_incoming_request(rig):
    server = rig.serve()
    selector = RubinSelector.open(rig.fabric.host("server"))
    key = selector.register(server, OP_CONNECT)

    def selecting(env):
        n = yield selector.select()
        return n

    p = rig.env.process(selecting(rig.env))
    rig.dial()
    assert rig.env.run(until=p) == 1
    assert key.is_connectable()
    assert selector.selected_keys() == [key]


def test_op_accept_fires_when_establishment_completes(rig):
    server = rig.serve()
    client = rig.dial()
    selector = RubinSelector.open(rig.fabric.host("server"))
    server_key = selector.register(server, OP_CONNECT)

    def server_loop(env):
        yield selector.select()
        accepted = server.accept()
        key = selector.register(accepted, OP_ACCEPT)
        n = yield selector.select()
        return accepted, key, n

    p = rig.env.process(server_loop(rig.env))
    accepted, key, n = rig.env.run(until=p)
    assert n >= 1
    assert key.is_acceptable()
    assert accepted.established
    assert accepted.finish_connect()


def test_op_receive_fires_on_message(rig):
    client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    key = selector.register(server, OP_RECEIVE)

    def selecting(env):
        n = yield selector.select()
        return n

    p = rig.env.process(selecting(rig.env))
    write_all(rig, client, b"wake the selector")
    assert rig.env.run(until=p) == 1
    assert key.is_receivable()
    q = read_message(rig, server, 17)
    assert rig.env.run(until=q) == b"wake the selector"


def test_op_send_ready_on_established_channel(rig):
    client, _server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("client"))
    key = selector.register(client, OP_SEND)

    def selecting(env):
        n = yield selector.select()
        return n

    p = rig.env.process(selecting(rig.env))
    assert rig.env.run(until=p) == 1
    assert key.is_sendable()


def test_select_timeout_returns_zero(rig):
    _client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    selector.register(server, OP_RECEIVE)

    def selecting(env):
        n = yield selector.select(timeout=1e-3)
        return n

    p = rig.env.process(selecting(rig.env))
    assert rig.env.run(until=p) == 0


def test_select_now_is_nonblocking(rig):
    _client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    selector.register(server, OP_RECEIVE)

    def selecting(env):
        start = env.now
        n = yield selector.select_now()
        return n, env.now - start

    p = rig.env.process(selecting(rig.env))
    n, elapsed = rig.env.run(until=p)
    assert n == 0
    assert elapsed < 1e-4


def test_event_id_matching_ignores_foreign_channels(rig):
    """Events for unregistered channels must not wake registered keys."""
    client_a, server_a = rig.establish(port=4791)
    client_b, server_b = rig.establish(port=4792)
    selector = RubinSelector.open(rig.fabric.host("server"))
    key_a = selector.register(server_a, OP_RECEIVE)

    def selecting(env):
        n = yield selector.select(timeout=5e-3)
        return n

    p = rig.env.process(selecting(rig.env))
    write_all(rig, client_b, b"message for the unregistered channel")
    n = rig.env.run(until=p)
    # server_b's message must not make server_a's key ready.
    assert not key_a.is_receivable()
    assert n == 0


def test_single_thread_multiplexes_channels(rig):
    pairs = [rig.establish(port=4791 + i) for i in range(3)]
    selector = RubinSelector.open(rig.fabric.host("server"))
    keys = {
        selector.register(server, OP_RECEIVE): idx
        for idx, (_c, server) in enumerate(pairs)
    }

    def selecting(env):
        n = yield selector.select()
        ready = selector.selected_keys()
        return n, [keys[k] for k in ready]

    p = rig.env.process(selecting(rig.env))
    write_all(rig, pairs[1][0], b"only channel one")
    n, ready_idx = rig.env.run(until=p)
    assert n == 1
    assert ready_idx == [1]


def test_double_register_raises(rig):
    _client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    selector.register(server, OP_RECEIVE)
    with pytest.raises(RubinError, match="already registered"):
        selector.register(server, OP_SEND)


def test_server_channel_only_op_connect(rig):
    server = rig.serve()
    selector = RubinSelector.open(rig.fabric.host("server"))
    with pytest.raises(RubinError, match="only OP_CONNECT"):
        selector.register(server, OP_RECEIVE)


def test_client_channel_rejects_op_connect(rig):
    client, _server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("client"))
    with pytest.raises(RubinError, match="server channels"):
        selector.register(client, OP_CONNECT)


def test_cancel_removes_key(rig):
    _client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    key = selector.register(server, OP_RECEIVE)
    key.cancel()
    assert selector.keys() == []
    assert not key.valid


def test_interest_update(rig):
    client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    key = selector.register(server, OP_RECEIVE)
    key.interest_ops = OP_RECEIVE | OP_SEND

    def selecting(env):
        n = yield selector.select()
        return n

    p = rig.env.process(selecting(rig.env))
    assert rig.env.run(until=p) == 1  # sendable immediately
    assert key.is_sendable()


def test_closed_selector_rejects_select(rig):
    _client, server = rig.establish()
    selector = RubinSelector.open(rig.fabric.host("server"))
    selector.register(server, OP_RECEIVE)
    selector.close()
    with pytest.raises(RubinError, match="closed"):
        selector.select()


def test_echo_server_with_rubin_selector(rig):
    """End-to-end single-threaded echo server, the paper's usage pattern."""
    server_chan = rig.serve()
    client = rig.dial()
    selector = RubinSelector.open(rig.fabric.host("server"))
    selector.register(server_chan, OP_CONNECT)
    echoed = []

    def server_loop(env):
        while len(echoed) < 3:
            yield selector.select()
            for key in selector.selected_keys():
                if key.is_connectable():
                    accepted = server_chan.accept()
                    selector.register(accepted, OP_RECEIVE)
                elif key.is_receivable():
                    buf = ByteBuffer.allocate(4096)
                    n = yield key.channel.read(buf)
                    if n and n > 0:
                        buf.flip()
                        data = buf.get()
                        echoed.append(data)
                        out = ByteBuffer.wrap(data)
                        while out.has_remaining():
                            sent = yield key.channel.write(out)
                            if sent == 0:
                                yield env.timeout(10e-6)

    def client_loop(env):
        while not client.established:
            yield env.timeout(10e-6)
        replies = []
        for i in range(3):
            msg = f"echo-{i}".encode()
            out = ByteBuffer.wrap(msg)
            while out.has_remaining():
                n = yield client.write(out)
                if n == 0:
                    yield env.timeout(10e-6)
            buf = ByteBuffer.allocate(64)
            got = 0
            while got < len(msg):
                n = yield client.read(buf)
                if n and n > 0:
                    got += n
                else:
                    yield env.timeout(10e-6)
            buf.flip()
            replies.append(buf.get())
        return replies

    rig.env.process(server_loop(rig.env))
    p = rig.env.process(client_loop(rig.env))
    replies = rig.env.run(until=p)
    assert replies == [b"echo-0", b"echo-1", b"echo-2"]


def test_select_overhead_follows_the_registered_set(rig):
    """The per-select cost is the max over registered configs, cached
    between registrations and cancellations."""
    slow = RubinConfig(select_overhead=3e-6)
    client, server = rig.establish()
    other_client, other_server = rig.establish(port=4792, config=slow)
    selector = RubinSelector.open(rig.fabric.host("server"))
    assert selector._select_overhead() == 0.0
    selector.register(server, OP_RECEIVE)
    assert selector._select_overhead() == rig.config.select_overhead
    slow_key = selector.register(other_server, OP_RECEIVE)
    assert selector._select_overhead() == 3e-6
    slow_key.cancel()
    assert selector._select_overhead() == rig.config.select_overhead


def test_keys_know_whether_they_hold_a_server_channel(rig):
    listener = rig.serve()
    client, server = rig.establish(port=4792)
    selector = RubinSelector.open(rig.fabric.host("server"))
    assert selector.register(listener, OP_CONNECT).is_server
    assert not selector.register(server, OP_RECEIVE | OP_SEND).is_server
