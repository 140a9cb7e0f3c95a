"""End-to-end Reptor endpoint tests, one conformance suite over both
transports: every case runs over NIO (TCP) and over RUBIN (RDMA)."""

import pytest

from repro.crypto import KeyStore
from repro.errors import BftError
from repro.net import Fabric
from repro.rdma import RdmaDevice
from repro.reptor import ReptorConfig, ReptorEndpoint
from repro.rubin import RubinConfig
from repro.sim import Environment
from repro.tcpstack import TcpConfig, TcpStack

TRANSPORTS = ["nio", "rubin"]


class Cluster:
    """Two hosts with both stacks installed, Reptor endpoints on top."""

    def __init__(
        self,
        transport,
        config=None,
        rubin_config=None,
        tcp_config=None,
        keystores=(None, None),
    ):
        self.env = Environment()
        self.fabric = Fabric(self.env)
        self.fabric.add_host("alice")
        self.fabric.add_host("bob")
        self.fabric.connect("alice", "bob")
        for name in ("alice", "bob"):
            host = self.fabric.host(name)
            TcpStack(host, tcp_config)
            RdmaDevice(host)
        self.transport = transport
        self.config = config if config is not None else ReptorConfig()
        self.alice, self.bob = (
            ReptorEndpoint(
                self.fabric.host(name),
                transport,
                config=self.config,
                keystore=keystore,
                rubin_config=rubin_config,
            )
            for name, keystore in zip(("alice", "bob"), keystores)
        )

    def link(self, port=7000):
        """bob listens, alice dials; returns (alice_conn, bob_conn)."""
        self.bob.listen(port)
        dial = self.alice.connect("bob", port)
        conn = self.env.run(until=dial)
        deadline = self.env.now + 50e-3
        while not self.bob.connections:
            if self.env.peek() > deadline:
                raise AssertionError("accept did not complete")
            self.env.step()
        return conn, self.bob.connections[0]


@pytest.fixture(params=TRANSPORTS)
def cluster(request):
    return Cluster(request.param)


def test_connect_and_accept(cluster):
    a, b = cluster.link()
    assert a.peer_name == "bob"
    assert b.peer_name == "alice"


def test_message_roundtrip(cluster):
    a, b = cluster.link()

    def scenario(env):
        yield a.send(b"hello from alice")
        message = yield b.receive()
        return message

    p = cluster.env.process(scenario(cluster.env))
    assert cluster.env.run(until=p) == b"hello from alice"


def test_large_message(cluster):
    a, b = cluster.link()
    payload = bytes(i % 256 for i in range(100_000))

    def scenario(env):
        yield a.send(payload)
        message = yield b.receive()
        return message

    p = cluster.env.process(scenario(cluster.env))
    assert cluster.env.run(until=p) == payload


def test_many_messages_in_order(cluster):
    a, b = cluster.link()
    messages = [f"m{i:04d}".encode() for i in range(100)]

    def sender(env):
        for message in messages:
            yield a.send(message)

    def receiver(env):
        got = []
        for _ in messages:
            message = yield b.receive()
            got.append(message)
        return got

    cluster.env.process(sender(cluster.env))
    p = cluster.env.process(receiver(cluster.env))
    assert cluster.env.run(until=p) == messages


def test_bidirectional_traffic(cluster):
    a, b = cluster.link()

    def side(conn, tag, n):
        def proc(env):
            got = []
            for i in range(n):
                yield conn.send(f"{tag}-{i}".encode())
                got.append((yield conn.receive()))
            return got

        return proc

    pa = cluster.env.process(side(a, "alice", 5)(cluster.env))
    pb = cluster.env.process(side(b, "bob", 5)(cluster.env))
    done = cluster.env.all_of([pa, pb])
    result = cluster.env.run(until=done)
    assert result[pa] == [f"bob-{i}".encode() for i in range(5)]
    assert result[pb] == [f"alice-{i}".encode() for i in range(5)]


def test_echo_round_trips_pipeline(cluster):
    """Windowed pipelining: many requests in flight at once."""
    a, b = cluster.link()
    total = 60  # above the window of 30

    def echo_server(env):
        for _ in range(total):
            message = yield b.receive()
            yield b.send(message)

    def client(env):
        sent = 0
        received = 0
        replies = []

        def pump(env):
            nonlocal sent
            for i in range(total):
                yield a.send(f"req-{i:03d}".encode())
                sent += 1

        env.process(pump(env))
        while received < total:
            reply = yield a.receive()
            replies.append(reply)
            received += 1
        return replies

    cluster.env.process(echo_server(cluster.env))
    p = cluster.env.process(client(cluster.env))
    replies = cluster.env.run(until=p)
    assert replies == [f"req-{i:03d}".encode() for i in range(total)]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_window_applies_backpressure(transport):
    cluster = Cluster(transport, config=ReptorConfig(window=2))
    a, _b = cluster.link()
    admitted = []

    def sender(env):
        for i in range(10):
            yield a.send(b"x" * 100)
            admitted.append(env.now)

    p = cluster.env.process(sender(cluster.env))
    cluster.env.run(until=p)
    # All sends eventually complete, but not all at the same instant
    # (the window forced some to wait for drain).
    assert len(admitted) == 10
    assert len(set(admitted)) > 1


def test_connect_refused(cluster):
    dial = cluster.alice.connect("bob", 9999)
    with pytest.raises(BftError, match="connect failed"):
        cluster.env.run(until=dial)


def test_send_on_closed_connection_raises(cluster):
    a, _b = cluster.link()
    a.close()

    def sender(env):
        yield a.send(b"too late")

    p = cluster.env.process(sender(cluster.env))
    with pytest.raises(BftError, match="closed"):
        cluster.env.run(until=p)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_unauthenticated_mode(transport):
    cluster = Cluster(transport, config=ReptorConfig(authenticate=False))
    a, b = cluster.link()

    def scenario(env):
        yield a.send(b"plain")
        return (yield b.receive())

    p = cluster.env.process(scenario(cluster.env))
    assert cluster.env.run(until=p) == b"plain"


def test_invalid_transport_rejected():
    cluster = Cluster("nio")
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="transport"):
        ReptorEndpoint(cluster.fabric.host("alice"), "carrier-pigeon")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_keystore_mismatch_detected(transport):
    """Endpoints with different group secrets reject each other's MACs."""
    cluster = Cluster(
        transport, keystores=(KeyStore(b"secret-A"), KeyStore(b"secret-B"))
    )
    conn, bob_conn = cluster.link()

    def scenario(env):
        yield conn.send(b"who am I talking to?")
        yield env.timeout(10e-3)

    p = cluster.env.process(scenario(cluster.env))
    cluster.env.run(until=p)
    assert bob_conn.error is not None
    assert bob_conn.closed


def _record_writes(connection, probe=lambda: None):
    """Wrap the connection's channel writes; returns the list of
    ``(bytes offered, bytes taken, probe())`` they append, one per write."""
    writes = []
    write_gen = connection.channel.write_gen

    def recording(buffer, *args, **kwargs):
        offered = buffer.remaining()
        body = write_gen(buffer, *args, **kwargs)

        def tracked():
            taken = yield from body
            writes.append((offered, taken, probe()))
            return taken

        return tracked()

    connection.channel.write_gen = recording
    return writes


def _send_all(cluster, sender, receiver, payloads):
    """Start one send per payload at once; returns what ``receiver`` got."""
    for payload in payloads:
        sender.send(payload)

    def receive(env):
        got = []
        for _ in payloads:
            got.append((yield receiver.receive()))
        return got

    return cluster.env.run(until=cluster.env.process(receive(cluster.env)))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_frame_split_across_reads(transport):
    """A frame larger than one read arrives in pieces and is reassembled."""
    cluster = Cluster(transport, config=ReptorConfig(read_buffer=1024))
    a, b = cluster.link()
    feeds = []
    feed = b.framer.feed
    b.framer.feed = lambda data: feeds.append(len(data)) or feed(data)
    payload = bytes(i % 251 for i in range(3000))
    assert _send_all(cluster, a, b, [payload]) == [payload]
    assert len(feeds) >= 2 and max(feeds) <= 1024


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_coalescing_honours_batch_size_and_size_budget(transport):
    # RUBIN's budget is one channel buffer (three frames here); NIO's
    # stream takes any size, so only batch_size bounds a write.
    budget = 2048
    cluster = Cluster(
        transport,
        config=ReptorConfig(batch_size=4, authenticate=False),
        rubin_config=RubinConfig(buffer_size=budget),
    )
    a, b = cluster.link()
    writes = _record_writes(a)
    payloads = [bytes([i]) * 600 for i in range(12)]
    frame = sum(map(len, a.framer.encode_parts(payloads[0])))
    assert _send_all(cluster, a, b, payloads) == payloads
    largest = max(offered for offered, _taken, _ in writes)
    if transport == "rubin":
        assert largest == 3 * frame <= budget
    else:
        assert largest == 4 * frame


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_short_write_resends_in_order(transport):
    """A full send queue (RUBIN takes nothing) or a full kernel buffer
    (NIO takes part) leaves no gap and no reordering."""
    cluster = Cluster(
        transport,
        config=ReptorConfig(batch_size=1),
        rubin_config=RubinConfig(num_send_buffers=1, signal_interval=1),
        tcp_config=TcpConfig(send_buffer=4096),
    )
    a, b = cluster.link()
    # After each write: whether batches were left waiting on a full queue.
    writes = _record_writes(
        a,
        lambda: bool(a._outbox)
        and not (a.channel.writable if transport == "nio" else a.channel.sendable),
    )
    payloads = [b"%04d" % i + bytes(1500) for i in range(40)]
    assert _send_all(cluster, a, b, payloads) == payloads
    assert any(waiting for _offered, _taken, waiting in writes)
    if transport == "nio":  # the stream took part of a batch
        assert any(taken < offered for offered, taken, _ in writes)


@pytest.mark.parametrize(
    "transport",
    [
        "nio",
        pytest.param(
            "rubin",
            marks=pytest.mark.xfail(
                strict=True,
                reason="an errored RUBIN channel raises no OP_RECEIVE "
                "readiness, so an unsupervised connection never reads "
                "the close",
            ),
        ),
    ],
)
def test_peer_close_drops_connection_and_wakes_blocked_senders(transport):
    cluster = Cluster(
        transport,
        config=ReptorConfig(window=2, authenticate=False),
        rubin_config=RubinConfig(retry_timeout=1e-3, retry_count=3),
    )
    a, b = cluster.link()
    senders = [b.send(b"x" * 100) for _ in range(200)]
    for sender in senders:
        sender.defused()
    while not b._credit_waiters:  # until the window holds some back
        cluster.env.step()
    a.close()
    cluster.env.run(until=cluster.env.now + 100e-3)
    assert b.closed and not b._key.valid
    assert not b._credit_waiters
    assert all(sender.triggered for sender in senders)
    failed = [sender.value for sender in senders if not sender.ok]
    assert failed and all(isinstance(error, BftError) for error in failed)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_read_failure_is_not_overwritten_by_pending_output(transport):
    """A frame that fails its MAC while output is queued: the connection
    is dropped with the framing error, and no write is tried on it."""
    cluster = Cluster(
        transport, keystores=(KeyStore(b"secret-A"), KeyStore(b"secret-B"))
    )
    a, b = cluster.link()
    for _ in range(40):
        b.post(b"y" * 100)
    a.post(b"tampered in transit, as far as bob can tell")
    cluster.env.run(until=cluster.env.now + 10e-3)
    assert b.closed and b.has_output
    assert "HMAC verification failed" in str(b.error)
