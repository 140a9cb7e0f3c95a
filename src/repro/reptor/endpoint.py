"""Reptor-style replica communication endpoints.

One :class:`ReptorEndpoint` per process (replica or client): a single
selector-driven event loop that accepts connections, reads and verifies
framed messages, and writes outbound batches — the communication stack of
Behl et al.'s Reptor, which the paper integrates RUBIN into.  RUBIN
recreates the Java NIO selector and channel API, so the endpoint has one
accept, dial, read and write path for the NIO TCP stack
(``transport="nio"``) and for RUBIN's RDMA channels
(``transport="rubin"``).  Figure 4 of the paper benchmarks exactly this
stack over both transports (window 30, batching 10).

The transport picks the selector, the channel factories, the interest
ops and supervision once, in ``ReptorEndpoint.__init__``.  After that the
endpoint relies only on this channel contract, which
:class:`~repro.nio.SocketChannel` and :class:`~repro.rubin.RubinChannel`
both meet:

* *register* with the selector under an interest: a listener's incoming
  connection, a dial's completion, read, write, and (RUBIN only) a
  supervised channel's re-established connection;
* *accept* (``server.accept()``) or *finish a dial*
  (``finish_connect()``, which raises if the dial failed);
* ``remote_host``, the peer's name;
* ``read_view_gen(max_bytes)``: a view of the next bytes (valid until the
  next read), ``0`` for nothing yet or ``None`` once closed, with
  ``last_read_trace_ctx`` the trace context they carried;
* ``write_gen(buffer, trace_ctx)``: write a staged batch, returning the
  bytes taken; ``write_staging()`` gives the ``size -> ByteBuffer`` that
  batches are staged in, and ``max_write`` caps one write's bytes;
* ``stream``: a short write on a stream (NIO) keeps the rest of its
  buffer for the next write; a message channel (RUBIN) takes a whole
  write or nothing, so the batch goes back to the outbox to be coalesced
  again.

Supervision — re-dialing a dead channel and resending the batches it
never acknowledged — is RUBIN-only and chosen at construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Deque, List, Optional
from collections import deque

from repro.crypto import KeyStore
from repro.rdma.cm import ConnectionManager
from repro.errors import BftError, ConfigurationError
from repro.nio import (
    OP_ACCEPT as NIO_OP_ACCEPT,
    OP_CONNECT as NIO_OP_CONNECT,
    OP_READ as NIO_OP_READ,
    OP_WRITE as NIO_OP_WRITE,
    ByteBuffer,
    Selector,
    ServerSocketChannel,
    SocketChannel,
)
from repro.reptor.config import ReptorConfig
from repro.reptor.framing import Framer
from repro.rubin import (
    OP_ACCEPT as RUBIN_OP_ACCEPT,
    OP_CONNECT as RUBIN_OP_CONNECT,
    OP_RECEIVE as RUBIN_OP_RECEIVE,
    OP_SEND as RUBIN_OP_SEND,
    ChannelSupervisor,
    RubinChannel,
    RubinConfig,
    RubinSelector,
    RubinServerChannel,
    SupervisorPolicy,
)
from repro.sim import Counter, Drive, Store, TimeSeries, detach, inline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.sim import Environment, Event

__all__ = ["ReptorEndpoint", "ReptorConnection"]


class ReptorConnection:
    """One authenticated, batched, windowed message connection."""

    def __init__(
        self,
        endpoint: "ReptorEndpoint",
        channel,
        peer_name: str,
        config: ReptorConfig,
    ):
        self.endpoint = endpoint
        self.env: "Environment" = endpoint.env
        self.channel = channel
        self.peer_name = peer_name
        self.config = config
        auth = (
            endpoint.keystore.authenticator(endpoint.name, peer_name)
            if config.authenticate
            else None
        )
        self.framer = Framer(auth, max_message=config.max_message)
        self.inbox: Store = Store(self.env)
        #: Framed messages with their (optional) trace contexts, as
        #: (frame segments, total bytes, trace_ctx) triples.  Segments
        #: are immutable parts (header, payload, mac) held unjoined so
        #: the write path can gather them without a concatenation.
        self._outbox: Deque[tuple[tuple[bytes, ...], int, Optional[object]]] = deque()
        self._partial: Optional[ByteBuffer] = None  # mid-write batch (stream)
        #: Batches written to the channel but not yet send-completed, as
        #: (wr_id, batch segments, batch bytes, trace_ctx); requeued to
        #: the outbox front if the channel dies before the RNIC
        #: acknowledged them.
        self._inflight: Deque[
            tuple[int, tuple[bytes, ...], int, Optional[object]]
        ] = deque()
        #: ``size -> ByteBuffer`` the write path stages batches in.
        self._stage = channel.write_staging()
        #: The selection key it is registered under (set by ``_open``).
        self._key = None
        #: Dialed RUBIN connections watched by the endpoint's supervisor.
        self._supervised = False
        self._credit_waiters: Deque["Event"] = deque()
        #: Outbound-stage watermark state: whether the connection is
        #: currently above the high watermark, and since when (feeds the
        #: endpoint's backpressure_time series when it falls back below
        #: the low watermark).
        self._above_high = False
        self._backpressure_since: Optional[float] = None
        self.closed = False
        self.error: Optional[BftError] = None
        self.messages_sent = 0
        self.messages_received = 0

    # -- application API ---------------------------------------------------

    def send(self, payload: bytes, trace_ctx=None) -> "Event":
        """Queue one message; completes once admitted to the window.

        ``trace_ctx`` optionally attributes the window wait, signing and
        the whole downstream transport path to a trace.
        """
        return self.env.process(
            self.send_gen(payload, trace_ctx), name="reptor.send"
        )

    def post(self, payload: bytes, trace_ctx=None) -> None:
        """:meth:`send` for callers that would discard its event.

        Nobody is there to catch what an abandoned send raises, so a
        message whose connection is closed when the send starts, or
        closes while it waits for the window, is dropped and counted in
        the endpoint's ``sends_dropped`` instead.
        """
        detach(
            self.env,
            self.send_gen(payload, trace_ctx, droppable=True),
            "reptor.send",
        )

    def send_gen(self, payload: bytes, trace_ctx=None, droppable: bool = False):
        """The body of :meth:`send`, for ``yield from inline(...)``."""
        if self.closed:
            if droppable:
                self.endpoint.sends_dropped.increment()
                return None
            raise BftError(f"{self}: connection is closed")
        if not isinstance(payload, bytes):
            # The frame segments outlive this call (outbox, in-flight
            # requeue), so a mutable payload must be snapshotted here.
            payload = bytes(payload)
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled and trace_ctx is not None:
            span = tracer.start_span(
                "reptor.send",
                layer="reptor",
                parent=trace_ctx,
                track=self.endpoint.host.name,
                peer=self.peer_name,
                nbytes=len(payload),
            )
        try:
            while self.outstanding >= self.config.window:
                waiter = self.env.event()
                self._credit_waiters.append(waiter)
                yield waiter
                if self.closed:
                    if droppable:
                        self.endpoint.sends_dropped.increment()
                        return None
                    raise BftError(f"{self}: connection closed while blocked")
            if self.framer.auth is not None:
                # Signing happens on the sender's CPU before the stack copies.
                cost = self.framer.auth.cost_seconds(
                    self.framer.mac_bytes_for(len(payload))
                )
                yield self.endpoint.host.cpu.execute(cost)
            parts = self.framer.encode_parts(payload)
            self._outbox.append(
                (parts, sum(map(len, parts)), trace_ctx)
            )
            self.messages_sent += 1
            self._check_watermarks()
            self.endpoint._output_pending(self)
            return len(payload)
        finally:
            if span is not None:
                span.end()

    def receive(self) -> "Event":
        """Next verified inbound message (blocking; value is the payload)."""
        return self.inbox.get()

    @property
    def outstanding(self) -> int:
        """Messages occupying the outbound window."""
        return len(self._outbox) + (1 if self._partial is not None else 0)

    @property
    def has_output(self) -> bool:
        """Whether the loop still has bytes to push for this connection."""
        return bool(self._outbox) or self._partial is not None

    def close(self) -> None:
        """Close the connection and its channel."""
        if self.closed:
            return
        self.closed = True
        self.channel.close()
        for waiter in self._credit_waiters:
            if not waiter.triggered:
                waiter.succeed()
        self._credit_waiters.clear()

    def _grant_credits(self) -> None:
        while self._credit_waiters and self.outstanding < self.config.window:
            waiter = self._credit_waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
        self._check_watermarks()

    def _check_watermarks(self) -> None:
        """Track outbound-stage occupancy against the config watermarks.

        Pure observability: the window already bounds the stage, so a
        crossing never blocks anything — it records that the stage ran
        hot (the endpoint's ``watermark_crossings`` counter) and for how
        long (``backpressure_time``, recorded when occupancy falls back
        below the low watermark).
        """
        occupancy = self.outstanding
        if not self._above_high:
            if occupancy >= self.config.effective_high_watermark:
                self._above_high = True
                self._backpressure_since = self.env.now
                self.endpoint.watermark_crossings.increment()
        elif occupancy <= self.config.effective_low_watermark:
            self._above_high = False
            if self._backpressure_since is not None:
                self.endpoint.backpressure_time.record(
                    self.env.now - self._backpressure_since
                )
                self._backpressure_since = None

    def _fail(self, error: BftError) -> None:
        self.error = error
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ReptorConnection {self.endpoint.name}->{self.peer_name} "
            f"out={self.outstanding}>"
        )


class ReptorEndpoint:
    """A replica/client communication endpoint over NIO or RUBIN."""

    def __init__(
        self,
        host: "Host",
        transport: str,
        name: Optional[str] = None,
        config: Optional[ReptorConfig] = None,
        keystore: Optional[KeyStore] = None,
        rubin_config: Optional[RubinConfig] = None,
        supervisor_policy: Optional[SupervisorPolicy] = None,
    ):
        if transport not in ("nio", "rubin"):
            raise ConfigurationError(
                f"transport must be 'nio' or 'rubin', got {transport!r}"
            )
        self.host = host
        self.env: "Environment" = host.env
        self.transport = transport
        self.name = name or host.name
        self.config = config if config is not None else ReptorConfig()
        self.keystore = keystore if keystore is not None else KeyStore()
        self.rubin_config = rubin_config if rubin_config is not None else RubinConfig()

        self.connections: List[ReptorConnection] = []
        #: Aggregate outbound-stage overload telemetry across all of
        #: this endpoint's connections (fed by the per-connection
        #: watermark tracking; see ReptorConnection._check_watermarks).
        self.watermark_crossings = Counter(f"{self.name}.watermark_crossings")
        #: Messages handed to :meth:`ReptorConnection.post` that a closed
        #: connection swallowed.
        self.sends_dropped = Counter(f"{self.name}.sends_dropped")
        self.backpressure_time = TimeSeries(
            self.env, f"{self.name}.backpressure_time"
        )
        self._on_connection: List[Callable[[ReptorConnection], None]] = []
        self._running = False
        self._server = None
        #: What a spawned read or write is called (see ``inline``).
        self._read_name = f"{transport}.read"
        self._write_name = f"{transport}.write"

        # The one place the transport is consulted: the selector, the
        # channel factories, supervision, and the interest and readiness
        # ops — a listener's incoming connection, a dial's completion,
        # read, write, and a supervised channel's re-established
        # connection (RUBIN's OP_ACCEPT again; 0 on NIO, never supervised).
        self.supervisor = None
        if transport == "nio":
            self.selector = Selector.open(host)
            self._open_server = lambda port: ServerSocketChannel.open(host).bind(port)
            self._open_channel = lambda remote_host, port: SocketChannel.open(
                host
            ).connect(remote_host, port)
            ops = (NIO_OP_ACCEPT, NIO_OP_CONNECT, NIO_OP_READ, NIO_OP_WRITE, 0)
        else:
            device = host.stack("rdma")
            if not host.has_stack("rdma_cm"):
                host.install("rdma_cm", ConnectionManager(device))
            cm = host.stack("rdma_cm")
            self.selector = RubinSelector.open(host)
            self._open_server = lambda port: RubinServerChannel(
                device, cm, port, self.rubin_config
            )
            self._open_channel = lambda remote_host, port: RubinChannel.connect(
                device, cm, remote_host, port, self.rubin_config
            )
            ops = (
                RUBIN_OP_CONNECT, RUBIN_OP_ACCEPT, RUBIN_OP_RECEIVE,
                RUBIN_OP_SEND, RUBIN_OP_ACCEPT,
            )
            if self.config.supervise:
                self.supervisor = ChannelSupervisor(
                    self.env,
                    policy=supervisor_policy,
                    selector=self.selector,
                    name=f"{self.name}.supervisor",
                )
                self.supervisor.on_recovered.append(self._on_channel_recovered)
        (
            self._op_accept,
            self._op_dial,
            self._op_read,
            self._op_write,
            self._op_redial,
        ) = ops

    # -- wiring ----------------------------------------------------------

    def on_connection(self, callback: Callable[[ReptorConnection], None]) -> None:
        """Invoke ``callback(connection)`` for every accepted connection."""
        self._on_connection.append(callback)

    def listen(self, port: int) -> None:
        """Start accepting peer connections on ``port``."""
        if self._server is not None:
            raise ConfigurationError(f"{self.name}: already listening")
        server = self._open_server(port)
        key = self.selector.register(server, self._op_accept)
        key.attach(("acceptor", server))
        self._server = server
        self._ensure_loop()

    def connect(self, remote_host: str, port: int, peer_name: Optional[str] = None) -> "Event":
        """Dial a peer; event value is the established connection."""
        peer_name = peer_name or remote_host
        done = self.env.event()
        channel = self._open_channel(remote_host, port)
        key = self.selector.register(channel, self._op_dial)
        key.attach(("dialing", channel, peer_name, done))
        self._ensure_loop()
        return done

    # -- event loop ---------------------------------------------------------

    def _ensure_loop(self) -> None:
        if not self._running:
            self._running = True
            Drive(self.env, self._loop(), name=f"reptor[{self.name}].loop")

    def _output_pending(self, connection: ReptorConnection) -> None:
        """A connection queued output: enable write interest and wake."""
        key = connection._key
        if key.valid:
            key.interest_ops = self._op_read | self._op_write
        self.selector.wakeup()

    def _loop(self):
        select_name = f"{self.transport}.select"  # what a spawned one is called
        while self._running:
            yield from inline(self.env, self.selector.select_gen(), select_name)
            for key in self.selector.selected_keys():
                attachment = key.attachment
                if attachment is None:
                    continue
                kind = attachment[0]
                if kind == "acceptor":
                    self._handle_accept(attachment[1])
                elif kind == "dialing":
                    self._handle_dial_progress(key, attachment)
                elif kind == "conn":
                    connection = attachment[1]
                    yield from self._handle_io(key, connection)

    def _handle_accept(self, server) -> None:
        channel = server.accept()
        if channel is not None:
            key = self.selector.register(channel, self._op_read)
            connection = self._open(key, channel, channel.remote_host)
            for callback in self._on_connection:
                callback(connection)

    def _handle_dial_progress(self, key, attachment) -> None:
        _kind, channel, peer_name, done = attachment
        try:
            finished = channel.finish_connect()
        except Exception as exc:  # refused
            key.cancel()
            if not done.triggered:
                done.fail(BftError(f"connect failed: {exc}")).defused()
            return
        if not finished:
            return
        connection = self._open(key, channel, peer_name)
        key.interest_ops = self._op_read
        if self.supervisor is not None:
            self._supervise(connection)
        if not done.triggered:
            done.succeed(connection)

    def _open(self, key, channel, peer_name: str) -> ReptorConnection:
        """Wrap an established channel, registered under ``key``."""
        connection = ReptorConnection(self, channel, peer_name, self.config)
        key.attach(("conn", connection))
        connection._key = key
        self.connections.append(connection)
        return connection

    def _supervise(self, connection: ReptorConnection) -> None:
        """Track in-flight batches and auto-reconnect this dialed channel."""
        connection._supervised = True
        channel = connection.channel

        def on_send_complete(wr_id: int, conn=connection) -> None:
            # In-order completion: wr_id retires every batch up to it.
            while conn._inflight and conn._inflight[0][0] <= wr_id:
                conn._inflight.popleft()

        channel.add_send_watcher(on_send_complete)
        self.supervisor.supervise(channel)

    def _on_channel_recovered(self, channel) -> None:
        """Supervisor re-established a channel: replay the connect flow.

        The reconnect is surfaced to the event loop as ``OP_ACCEPT``
        readiness on the connection's existing selection key — the same
        readiness the original active open produced — so the application
        observes it exactly as NIO would.
        """
        for connection in self.connections:
            if connection.channel is channel and not connection.closed:
                key = connection._key
                if key.valid:
                    key.interest_ops = self._op_redial | self._op_read
                    self.selector.wakeup()
                return

    def _finish_reconnect(self, key, connection: ReptorConnection) -> None:
        """Consume a reconnect's OP_ACCEPT readiness; requeue in-flight."""
        try:
            finished = connection.channel.finish_connect()
        except Exception:
            # Errored again before the loop ran; the supervisor retries.
            # Drop the OP_ACCEPT interest until the next recovery.
            key.interest_ops = self._op_read
            return
        if not finished:
            return
        # Frames the dead QP never acknowledged go back to the front of
        # the outbox, ahead of anything queued since — the peer may see
        # a duplicate (it got the frame but the CQE was lost with the
        # QP), never a gap; deduplication is the protocol layer's job.
        while connection._inflight:
            _wr_id, batch, size, trace_ctx = connection._inflight.pop()
            connection._outbox.appendleft((batch, size, trace_ctx))
        key.interest_ops = self._op_read | (
            self._op_write if connection.has_output else 0
        )

    # -- per-connection I/O ------------------------------------------------

    def _handle_io(self, key, connection: ReptorConnection):
        if connection.closed:
            self._drop(connection)
            return
        if key.ready_ops & self._op_redial:
            self._finish_reconnect(key, connection)
        if key.ready_ops & self._op_read:
            yield from self._read(connection)
            if connection.closed:
                # The read failed it: deregister it, and write nothing
                # that could overwrite its error.
                self._drop(connection)
                return
        if key.ready_ops & self._op_write and connection.has_output:
            yield from self._write(connection)
        if not connection.has_output and key.valid:
            key.interest_ops = (key.interest_ops & self._op_redial) | self._op_read

    def _deliver(self, connection: ReptorConnection, data, trace_ctx):
        """Feed stream bytes (or a view of them); verify and deliver.

        ``data`` may alias a channel buffer: the framer consumes it
        synchronously (delivered payloads are owned bytes), so the buffer
        is free for reuse as soon as ``feed`` returns.
        """
        try:
            payloads = connection.framer.feed(data)
        except BftError as error:
            connection._fail(error)
            return
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled and trace_ctx is not None and payloads:
            span = tracer.start_span(
                "reptor.deliver",
                layer="reptor",
                parent=trace_ctx,
                track=self.host.name,
                peer=connection.peer_name,
                messages=len(payloads),
            )
        if payloads and connection.framer.auth is not None:
            cost = sum(
                connection.framer.auth.cost_seconds(
                    connection.framer.mac_bytes_for(len(p))
                )
                for p in payloads
            )
            yield self.host.cpu.execute(cost)
        for payload in payloads:
            connection.messages_received += 1
            connection.inbox.post(payload)
        if span is not None:
            span.end()

    def _read(self, connection: ReptorConnection):
        # The channel hands back a view of its own buffer (RUBIN: the pool
        # buffer, no copy); the framer's payload materialization inside
        # _deliver is the only receive-side copy Reptor adds.  _deliver
        # feeds the view before its first yield, as read_view requires.
        channel = connection.channel
        try:
            result = yield from inline(
                self.env,
                channel.read_view_gen(self.config.read_buffer),
                self._read_name,
            )
        except Exception as exc:  # reset / hard close
            if connection._supervised and not connection.closed:
                return  # transient: the supervisor re-establishes it
            connection._fail(BftError(f"read failed: {exc}"))
            return
        if result is None:
            if connection._supervised and not connection.closed:
                # The channel died mid-stream; keep the connection (and
                # its key) alive — the supervisor re-dials and the loop
                # resumes reading on the fresh QP.
                return
            connection.close()
            return
        if result:
            try:
                yield from self._deliver(
                    connection, result, channel.last_read_trace_ctx
                )
            finally:
                result.release()

    def _drop(self, connection: ReptorConnection) -> None:
        """Deregister a dead connection so the loop stops polling it."""
        connection._key.cancel()

    def _next_batch(
        self, connection: ReptorConnection
    ) -> tuple[List[bytes], int, Optional[object]]:
        """Coalesce up to batch_size framed messages into one write.

        Returns the batch's frame segments (unjoined — the writer stages
        them with a gather, never a concatenation), their total size, and
        the trace context of the first traced message in it (the one
        whose latency the write gates).
        """
        segments: List[bytes] = []
        trace_ctx: Optional[object] = None
        messages = 0
        limit = self.config.batch_size
        budget = connection.channel.max_write
        size = 0
        while connection._outbox and messages < limit:
            head, head_size, head_ctx = connection._outbox[0]
            if segments and size + head_size > budget:
                break
            connection._outbox.popleft()
            segments.extend(head)
            messages += 1
            if trace_ctx is None:
                trace_ctx = head_ctx
            size += head_size
        return segments, size, trace_ctx

    #: Write batches flushed per select round before returning to the
    #: selector, so a large outbox cannot starve reads on the same loop.
    _WRITE_ROUNDS = 2

    def _write(self, connection: ReptorConnection):
        channel = connection.channel
        for _round in range(self._WRITE_ROUNDS):
            staging = connection._partial
            trace_ctx = None
            if staging is None:
                if not connection._outbox:
                    break
                segments, size, trace_ctx = self._next_batch(connection)
                # The one send-side copy: the frame segments gather into
                # the staging buffer (on RUBIN a ring slot the RNIC reads
                # zero-copy from).
                staging = connection._stage(size)
                for segment in segments:
                    staging.put(segment)
                staging.flip()
                if channel.stream:
                    connection._partial = staging
            try:
                n = yield from inline(
                    self.env,
                    channel.write_gen(staging, trace_ctx),
                    self._write_name,
                )
            except Exception as exc:
                if connection._supervised and not connection.closed:
                    # Channel died between readiness and write: hold the
                    # batch; it is resent after the supervisor reconnects.
                    connection._outbox.appendleft((tuple(segments), size, trace_ctx))
                    return
                connection._fail(BftError(f"write failed: {exc}"))
                self._drop(connection)
                return
            if n == 0:
                # Kernel buffer or send queue full: wait for writability.
                # A message channel took nothing, so the batch goes back
                # to the outbox (messages intact) to be coalesced again.
                if not channel.stream:
                    connection._outbox.appendleft((tuple(segments), size, trace_ctx))
                break
            if channel.stream and staging.has_remaining():
                continue  # the stream took part: push the rest
            connection._partial = None
            if connection._supervised:
                connection._inflight.append(
                    (channel.last_write_wr_id, tuple(segments), size, trace_ctx)
                )
            connection._grant_credits()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the loop, the supervisor, the listener and all connections."""
        self._running = False
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._server is not None:
            self._server.close()
            self._server = None
        for connection in list(self.connections):
            connection.close()
        self.selector.wakeup()

    def __repr__(self) -> str:
        return (
            f"<ReptorEndpoint {self.name} transport={self.transport} "
            f"conns={len(self.connections)}>"
        )
