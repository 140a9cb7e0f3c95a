"""The selector's and epoll's field reads against the property scans.

``Selector._compute_ready`` and ``Epoll.poll`` read readiness straight
from the channel, listener and connection fields.  On every pass of a
40-PUT run, of a run whose leader crashes and restarts, and of a TCP
teardown, each must produce what the scans through the public
properties produce: the same ready keys (and ready ops) in the same
order, the same (pollable, mask) pairs in the same order.
"""

import pytest

from repro.bft import BftCluster, BftConfig
from repro.nio.channel import ServerSocketChannel
from repro.nio.selector import OP_ACCEPT, OP_CONNECT, OP_READ, OP_WRITE, Selector
from repro.tcpstack.epoll import EPOLLIN, EPOLLOUT, Epoll
from repro.tcpstack.listener import TcpListener
from tests.tcpstack.conftest import TcpPair


def property_ready_ops(key) -> int:
    """A key's ready ops, through the channel's public properties."""
    channel = key.channel
    interest = key.interest_ops
    if isinstance(channel, ServerSocketChannel):
        return OP_ACCEPT if interest & OP_ACCEPT and channel.acceptable else 0
    ops = 0
    if interest & OP_CONNECT and channel.connectable:
        ops |= OP_CONNECT
    if interest & OP_READ and channel.readable:
        ops |= OP_READ
    if interest & OP_WRITE and channel.writable and channel.is_connected:
        ops |= OP_WRITE
    return ops


def property_ready_mask(pollable, interest) -> int:
    """An epoll mask, through the listener's or connection's properties."""
    if isinstance(pollable, TcpListener):
        return EPOLLIN if interest & EPOLLIN and pollable.acceptable else 0
    mask = 0
    if interest & EPOLLIN and pollable.readable:
        mask |= EPOLLIN
    if interest & EPOLLOUT and pollable.writable:
        mask |= EPOLLOUT
    if pollable.state == "CLOSED":
        mask |= interest
    return mask


@pytest.fixture
def checked_scans(monkeypatch):
    """Check every selector and epoll pass; return what was seen."""
    seen = {"select": 0, "poll": 0, "ops": 0, "closed": 0}
    compute_ready = Selector._compute_ready
    poll = Epoll.poll

    def checked_compute_ready(self):
        keys = list(self._keys.values())
        expected = [(key, property_ready_ops(key)) for key in keys]
        ready = compute_ready(self)
        assert [(key, key.ready_ops) for key in ready] == [
            (key, ops) for key, ops in expected if ops
        ]
        assert all(key.ready_ops == ops for key, ops in expected)
        seen["select"] += 1
        for key in ready:
            seen["ops"] |= key.ready_ops
        return ready

    def checked_poll(self):
        expected = [
            (pollable, property_ready_mask(pollable, interest))
            for pollable, interest in self._interest.items()
        ]
        ready = poll(self)
        assert ready == [(pollable, mask) for pollable, mask in expected if mask]
        seen["poll"] += 1
        seen["closed"] += sum(
            1
            for pollable, _mask in ready
            if not isinstance(pollable, TcpListener) and pollable.state == "CLOSED"
        )
        return ready

    monkeypatch.setattr(Selector, "_compute_ready", checked_compute_ready)
    monkeypatch.setattr(Epoll, "poll", checked_poll)
    return seen


ALL_OPS = OP_ACCEPT | OP_CONNECT | OP_READ | OP_WRITE


def test_every_pass_of_forty_puts_matches_the_property_scan(checked_scans):
    cluster = BftCluster(
        transport="nio", config=BftConfig(batch_size=1, batch_delay=0.0)
    )
    cluster.start()
    for i in range(40):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    assert checked_scans["select"] > 1_000 and checked_scans["poll"] > 500
    assert checked_scans["ops"] == ALL_OPS


def test_every_pass_of_a_leader_crash_and_restart_matches(checked_scans):
    cluster = BftCluster(
        transport="nio",
        config=BftConfig(view_change_timeout=20e-3, batch_size=1, batch_delay=0.0),
        faulty_fabric=True,
    )
    cluster.start()
    assert cluster.invoke_and_wait(b"PUT a=1") == b"OK"
    cluster.crash_replica("r0")
    assert cluster.invoke_and_wait(b"PUT b=2") == b"OK"
    cluster.restart_replica("r0")
    cluster.run_for(100e-3)
    assert cluster.invoke_and_wait(b"PUT c=3") == b"OK"
    assert checked_scans["ops"] == ALL_OPS


def test_every_poll_through_a_teardown_matches(checked_scans):
    """Listener backlog, data, FIN and hang-up, one event at a time."""
    pair = TcpPair()
    client_conn, server_conn = pair.establish()
    listener = pair.server.listen(6000)
    pair.client.connect("server", 6000)
    epolls = [Epoll(pair.server_host), Epoll(pair.client_host)]
    epolls[0].register(listener, EPOLLIN)
    epolls[0].register(server_conn, EPOLLIN | EPOLLOUT)
    epolls[1].register(client_conn, EPOLLIN)

    def teardown(env):
        yield client_conn.send(b"last words")
        client_conn.close()
        yield env.timeout(1e-3)
        server_conn.close()

    pair.env.process(teardown(pair.env))
    deadline = pair.env.now + 50e-3
    while pair.env.peek() < deadline:
        pair.env.step()
        for epoll in epolls:
            epoll.poll()
    assert server_conn.state == client_conn.state == "CLOSED"
    assert checked_scans["closed"] > 0  # hang-ups surfaced as readiness
