"""Java-NIO selector semantics over simulated TCP."""

import pytest

from repro.errors import TcpError
from repro.nio import (
    OP_ACCEPT,
    OP_CONNECT,
    OP_READ,
    OP_WRITE,
    ByteBuffer,
    Selector,
    ServerSocketChannel,
    SocketChannel,
)

from tests.tcpstack.conftest import TcpPair


@pytest.fixture
def pair():
    return TcpPair()


def connected_channels(pair, port=9100):
    server = ServerSocketChannel.open(pair.server_host).bind(port)
    client = SocketChannel.open(pair.client_host)
    client.connect("server", port)
    pair.env.run(until=client.connection.established)
    pair.env.run(until=pair.env.now + 1e-3)
    client.finish_connect()
    accepted = server.accept()
    return client, accepted, server


def test_select_blocks_until_readable(pair):
    client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    key = selector.register(accepted, OP_READ)

    def selecting(env):
        n = yield selector.select()
        return n, selector.selected_keys()

    def sender(env):
        yield env.timeout(2e-3)
        yield client.connection.send(b"data!")

    p = pair.env.process(selecting(pair.env))
    pair.env.process(sender(pair.env))
    n, keys = pair.env.run(until=p)
    assert n == 1
    assert keys == [key]
    assert keys[0].is_readable()
    assert not keys[0].is_writable()


def test_select_sees_acceptable_server_channel(pair):
    server = ServerSocketChannel.open(pair.server_host).bind(9100)
    selector = Selector.open(pair.server_host)
    key = selector.register(server, OP_ACCEPT)

    def selecting(env):
        n = yield selector.select()
        return n

    p = pair.env.process(selecting(pair.env))
    SocketChannel.open(pair.client_host).connect("server", 9100)
    assert pair.env.run(until=p) == 1
    assert key.is_acceptable()


def test_select_reports_connectable_client(pair):
    ServerSocketChannel.open(pair.server_host).bind(9100)
    client = SocketChannel.open(pair.client_host)
    client.connect("server", 9100)
    selector = Selector.open(pair.client_host)
    key = selector.register(client, OP_CONNECT)

    def selecting(env):
        n = yield selector.select()
        return n

    p = pair.env.process(selecting(pair.env))
    assert pair.env.run(until=p) == 1
    assert key.is_connectable()
    assert client.finish_connect()


def test_write_interest_on_established_is_immediate(pair):
    client, _accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.client_host)
    key = selector.register(client, OP_WRITE)

    def selecting(env):
        n = yield selector.select()
        return n

    p = pair.env.process(selecting(pair.env))
    assert pair.env.run(until=p) == 1
    assert key.is_writable()


def test_select_timeout_returns_zero(pair):
    _client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    selector.register(accepted, OP_READ)

    def selecting(env):
        n = yield selector.select(timeout=1e-3)
        return n

    p = pair.env.process(selecting(pair.env))
    assert pair.env.run(until=p) == 0


def test_select_now_does_not_block(pair):
    _client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    selector.register(accepted, OP_READ)

    def selecting(env):
        n = yield selector.select_now()
        return n, env.now

    start = pair.env.now
    p = pair.env.process(selecting(pair.env))
    n, at = pair.env.run(until=p)
    assert n == 0
    assert at - start < 1e-4  # only syscall cost, no blocking


def test_selected_keys_cleared_after_read(pair):
    client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    selector.register(accepted, OP_READ)

    def scenario(env):
        yield client.connection.send(b"x")
        n = yield selector.select()
        first = selector.selected_keys()
        second = selector.selected_keys()
        return n, first, second

    p = pair.env.process(scenario(pair.env))
    n, first, second = pair.env.run(until=p)
    assert n == 1
    assert len(first) == 1
    assert second == []


def test_interest_ops_can_be_updated(pair):
    client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    key = selector.register(accepted, OP_READ)
    key.interest_ops = OP_READ | OP_WRITE

    def selecting(env):
        n = yield selector.select()
        return n

    p = pair.env.process(selecting(pair.env))
    assert pair.env.run(until=p) == 1  # writable immediately
    assert key.is_writable()


def test_cancel_removes_registration(pair):
    client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    key = selector.register(accepted, OP_READ)
    key.cancel()
    assert not key.valid
    assert selector.keys() == []
    with pytest.raises(TcpError, match="cancelled"):
        key.interest_ops = OP_WRITE


def test_double_register_same_channel_raises(pair):
    client, _accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.client_host)
    selector.register(client, OP_READ)
    with pytest.raises(TcpError, match="already registered"):
        selector.register(client, OP_WRITE)


def test_register_unconnected_channel_raises(pair):
    channel = SocketChannel.open(pair.client_host)
    selector = Selector.open(pair.client_host)
    with pytest.raises(TcpError, match="after connect"):
        selector.register(channel, OP_READ)


def test_server_channel_rejects_non_accept_ops(pair):
    server = ServerSocketChannel.open(pair.server_host).bind(9100)
    selector = Selector.open(pair.server_host)
    with pytest.raises(TcpError, match="only OP_ACCEPT"):
        selector.register(server, OP_READ)


def test_socket_channel_rejects_accept_op(pair):
    client, _accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.client_host)
    with pytest.raises(TcpError, match="do not support OP_ACCEPT"):
        selector.register(client, OP_ACCEPT)


def test_attachment_roundtrip(pair):
    client, _accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.client_host)
    key = selector.register(client, OP_READ)
    context = {"session": 42}
    key.attach(context)
    assert key.attachment is context


def test_closed_selector_rejects_operations(pair):
    client, _accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.client_host)
    key = selector.register(client, OP_READ)
    selector.close()
    assert not key.valid
    with pytest.raises(TcpError, match="closed"):
        selector.select()


def test_echo_server_loop_with_selector(pair):
    """End-to-end: single-threaded selector-driven echo server."""
    client, accepted, server_chan = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    selector.register(accepted, OP_READ)
    echoed = []

    def server_loop(env):
        buf = ByteBuffer.allocate(4096)
        while len(echoed) < 3:
            n = yield selector.select()
            for key in selector.selected_keys():
                if key.is_readable():
                    buf.clear()
                    count = yield key.channel.read(buf)
                    if count > 0:
                        buf.flip()
                        data = buf.get()
                        echoed.append(data)
                        out = ByteBuffer.wrap(data)
                        while out.has_remaining():
                            yield key.channel.write(out)

    def client_loop(env):
        replies = []
        for i in range(3):
            msg = f"echo-{i}".encode()
            yield client.connection.send(msg)
            reply = yield client.connection.receive(min_bytes=len(msg))
            replies.append(reply)
        return replies

    pair.env.process(server_loop(pair.env))
    p = pair.env.process(client_loop(pair.env))
    replies = pair.env.run(until=p)
    assert replies == [b"echo-0", b"echo-1", b"echo-2"]


def _touch_interest_while_blocked(touch):
    """(agenda ids, server CPU utilization) of a select blocked for 3 ms
    while ``touch(selector, key)`` runs 1 ms in."""
    pair = TcpPair()
    _client, accepted, _ = connected_channels(pair)
    selector = Selector.open(pair.server_host)
    key = selector.register(accepted, OP_READ)
    start = pair.env.now
    pair.env.process(selector.select_gen())

    def toucher(env):
        yield env.timeout(1e-3)
        touch(selector, key)

    pair.env.process(toucher(pair.env))
    pair.env.run(until=start + 3e-3)
    return pair.env._eid, pair.server_host.cpu.utilization(start)


def test_unchanged_interest_wakes_a_blocked_select_as_modify_does():
    """Setting the interest a key already has registers nothing new, but
    ``Epoll.modify`` with an unchanged mask wakes a blocked wait (which
    charges a context switch, finds nothing and sleeps again), so the
    assignment does too."""
    from repro.tcpstack import EPOLLIN

    def unchanged(selector, key):
        key.interest_ops = OP_READ

    def modify(selector, key):
        selector._epoll.modify(key.channel.connection, EPOLLIN)

    woken = _touch_interest_while_blocked(unchanged)
    assert woken == _touch_interest_while_blocked(modify)
    assert woken != _touch_interest_while_blocked(lambda selector, key: None)
