"""RDMA channels: the RUBIN counterpart of NIO socket channels.

"An RDMA channel represents an RDMA connection.  The abstraction behaves
similar to a non-blocking NIO socket channel, which offers read() and
write() methods, and includes all necessary RDMA resources such as QPs and
WRs.  When an RDMA channel is created, the list of buffers that the
application will use for send and receive operations is also allocated and
registered" (paper, Section III-B).

The channel implements all four Section-IV optimizations (driven by
:class:`~repro.rubin.config.RubinConfig`):

* pre-registered, reusable buffer pools;
* batched re-posting of receive work requests;
* selective signaling for sends;
* inline sends below the threshold, zero-copy gather from the (once-)
  registered application buffer above it — while receives still copy out
  of the pool buffer, the documented large-message bottleneck.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional

from repro.errors import RubinError
from repro.nio.buffer import ByteBuffer
from repro.rdma.cm import CmEvent, ConnectionManager, ConnectRequest
from repro.rdma.cq import CompletionQueue
from repro.rdma.verbs import Opcode, QpState, WcStatus
from repro.rdma.wr import RecvWorkRequest, SendWorkRequest, Sge
from repro.rubin.buffer_pool import BufferPool, PooledBuffer
from repro.rubin.config import RubinConfig
from repro.sim import Counter, TimeSeries
from repro.sim.copystats import COPYSTATS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.rdma.device import RdmaDevice
    from repro.sim import Environment, Event

__all__ = ["RubinChannel", "RubinServerChannel"]

_channel_ids = itertools.count(1)


class _InboundMessage:
    """A received message parked in its pool buffer until read out."""

    __slots__ = ("pooled", "offset", "remaining", "trace_ctx")

    def __init__(self, pooled: PooledBuffer, length: int, trace_ctx=None):
        self.pooled = pooled
        self.offset = 0
        self.remaining = length
        self.trace_ctx = trace_ctx


class _StagingRing:
    """A ring of reusable, lazily grown send staging buffers.

    Slot count equals the channel's send-queue depth, so a slot comes
    round again about when the send that last gathered from it has left
    the send queue.  Not always: a write the channel refuses still took
    its slot, so a later take can land on a slot whose zero-copy send is
    still queued — the RNIC gathers (and retransmits) from it until then.
    Such a slot gets a fresh buffer instead of being overwritten.
    Buffers grow in powers of two so small-batch connections stay small.
    """

    __slots__ = ("_channel", "_buffers", "_index")

    def __init__(self, channel: "RubinChannel"):
        self._channel = channel
        slots = channel.qp.caps.max_send_wr
        self._buffers: list[Optional[ByteBuffer]] = [None] * max(1, slots)
        self._index = 0

    def take(self, size: int) -> ByteBuffer:
        """A cleared buffer of at least ``size`` bytes from the ring."""
        index = self._index
        self._index = (self._index + 1) % len(self._buffers)
        buffer = self._buffers[index]
        # The oldest send still queued: everything before it was gathered.
        queued = self._channel.qp._pending
        if (
            buffer is None
            or buffer.capacity < size
            or (queued and queued[0].wr.wr_id <= buffer.gather_wr_id)
        ):
            capacity = 1024
            while capacity < size:
                capacity *= 2
            buffer = ByteBuffer.allocate(capacity)
            # What a ring slot is used for is exactly the stability
            # contract zero-copy sends need: the RNIC may gather views
            # of this buffer instead of snapshotting it.
            buffer.stable_until_completion = True
            self._buffers[index] = buffer
        buffer.clear()
        return buffer


class RubinChannel:
    """A connected RDMA channel with NIO-style non-blocking read/write."""

    #: A message channel: a write takes its whole buffer or nothing.
    stream = False

    def __init__(
        self,
        device: "RdmaDevice",
        cm: ConnectionManager,
        config: Optional[RubinConfig] = None,
    ):
        self.device = device
        self.cm = cm
        self.host: "Host" = device.host
        self.env: "Environment" = device.env
        self.config = config if config is not None else RubinConfig()
        #: Most bytes one write may carry: one message fills one buffer.
        self.max_write = self.config.buffer_size
        #: The unique connection identifier of the paper.
        self.channel_id = next(_channel_ids)

        self.pd = device.alloc_pd()
        self.send_cq: CompletionQueue = device.create_cq(
            name=f"ch{self.channel_id}.send"
        )
        self.recv_cq: CompletionQueue = device.create_cq(
            name=f"ch{self.channel_id}.recv"
        )
        self.qp = self._make_qp()

        # Buffer pools, allocated and registered at creation (paper §III-B);
        # the pin/map cost is charged asynchronously on this host's CPU.
        self.recv_pool = BufferPool(
            device,
            self.pd,
            self.config.num_recv_buffers,
            self.config.buffer_size,
            name=f"ch{self.channel_id}.recv_pool",
        )
        self.send_pool = BufferPool(
            device,
            self.pd,
            self.config.num_send_buffers,
            self.config.buffer_size,
            name=f"ch{self.channel_id}.send_pool",
        )
        self._charge_registration_cost()

        # Receive-side state.
        self._recv_wr_map: Dict[int, PooledBuffer] = {}
        self._ready_messages: Deque[_InboundMessage] = deque()
        self._repost_backlog: List[PooledBuffer] = []
        self._next_wr_id = itertools.count(1)

        # Send-side state.
        self._sends_since_signal = 0
        self._send_wr_buffers: Deque[tuple[int, Optional[PooledBuffer]]] = deque()
        self._app_mr_cache: Dict[int, object] = {}
        #: wr_id of the most recently posted send (monotonic across
        #: reconnects; lets callers correlate send completions with the
        #: frames they queued).
        self.last_write_wr_id = 0
        #: Trace context of the most recently read inbound message (set by
        #: ``read()`` so the caller can continue the causal chain).
        self.last_read_trace_ctx = None
        #: Counts application I/O calls (read/write/finish_connect); the
        #: selector-starvation auditor treats a ready key whose marker
        #: never moves as unserviced.
        self.progress_marker = 0
        self._send_watchers: List[Callable[[int], None]] = []

        # Flow-control observability: writes refused for lack of credit
        # or pool buffers, and how long each credit stall lasted.
        self.credit_stalls = Counter(f"ch{self.channel_id}.credit_stalls")
        self.pool_stalls = Counter(f"ch{self.channel_id}.pool_stalls")
        self.credit_stall_time = TimeSeries(
            self.env, f"ch{self.channel_id}.credit_stall_time"
        )
        self._stall_since: Optional[float] = None
        self._stall_span = None
        self._unblock_watchers: List[Callable[[], None]] = []
        #: Credits claimed by in-flight writes that passed
        #: the gate but have not reached post_send yet (the QP only
        #: debits at post time, and the posting path yields in between —
        #: without the reservation, concurrent writers would overcommit).
        self._credit_reserved = 0

        # Connection state.
        self.established = False
        self._establish_pending = False
        self.closed = False
        self.errored = False
        #: Remote (host, port) of an active open; None for accepted
        #: channels.  Only actively opened channels can re-dial.
        self.remote_addr: Optional[tuple[str, int]] = None
        self._pending_conn_id: Optional[int] = None
        #: Successful re-establishments of this channel.
        self.reconnects = 0
        #: Cause of the most recent transport error (WcStatus value or
        #: "rejected"); surfaces in the supervisor's reconnect records.
        self.last_error: Optional[str] = None
        self._watchers: List[Callable[[], None]] = []
        cm.add_event_watcher(self._on_cm_event)

        # Pre-post every receive buffer (in device-max batches).
        self._prepost_all_recv_buffers()

    def _make_qp(self):
        """Provision a queue pair sized from the channel config."""
        from repro.rdma.qp import QpCapabilities

        caps_inline = min(
            self.config.inline_threshold, self.device.attrs.max_inline
        )
        qp = self.device.create_qp(
            self.pd,
            self.send_cq,
            self.recv_cq,
            caps=QpCapabilities(
                max_send_wr=self.config.num_send_buffers,
                max_recv_wr=self.config.num_recv_buffers,
                max_inline=caps_inline,
                retry_timeout=self.config.retry_timeout,
                retry_count=self.config.retry_count,
                rnr_retry=self.config.rnr_retry,
                rnr_timer=self.config.min_rnr_timer,
                flow_control=self.config.flow_control,
                # Both ends of a RUBIN connection run the same channel
                # config (the framework provisions them symmetrically),
                # so the peer preposts this many receives.  An asymmetric
                # peer is still safe: credits only ever move up on
                # advertisements, and the RNR machinery backstops an
                # optimistic initial window.
                initial_credit=self.config.num_recv_buffers,
            ),
        )
        qp.add_error_watcher(lambda qp: self._enter_error(qp.error_cause))
        qp.add_credit_watcher(lambda _qp: self._on_credit_granted())
        return qp

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        device: "RdmaDevice",
        cm: ConnectionManager,
        remote_host: str,
        port: int,
        config: Optional[RubinConfig] = None,
    ) -> "RubinChannel":
        """Active open toward ``remote_host:port`` (non-blocking)."""
        channel = cls(device, cm, config)
        channel.remote_addr = (remote_host, port)
        channel._begin_connect()
        return channel

    @classmethod
    def _accept(
        cls,
        device: "RdmaDevice",
        cm: ConnectionManager,
        request: ConnectRequest,
        config: Optional[RubinConfig] = None,
    ) -> "RubinChannel":
        """Passive open from a pending connect request."""
        channel = cls(device, cm, config)
        channel._establish_pending = True
        request.accept(channel.qp)
        return channel

    def _charge_registration_cost(self) -> None:
        """Charge buffer-pool registration on this host's CPU (async)."""
        attrs = self.device.attrs
        pages = self.recv_pool.registration_pages() + self.send_pool.registration_pages()
        cost = (
            2 * self.host.cpu.costs.syscall
            + 2 * attrs.mr_register_base
            + pages * attrs.mr_register_per_page
        )

        def charge():
            yield self.host.cpu.execute(cost)

        self.env.process(charge(), name=f"ch{self.channel_id}.reg_cost")

    def _prepost_all_recv_buffers(self) -> None:
        batch: List[RecvWorkRequest] = []
        limit = min(self.config.post_batch, self.device.attrs.max_post_batch)
        while True:
            pooled = self.recv_pool.try_acquire()
            if pooled is None:
                break
            wr_id = next(self._next_wr_id)
            self._recv_wr_map[wr_id] = pooled
            batch.append(RecvWorkRequest(wr_id=wr_id, sge=Sge(pooled.mr)))
            if len(batch) >= limit:
                self.qp.post_recv_batch(batch)
                batch = []
        if batch:
            self.qp.post_recv_batch(batch)

    # ------------------------------------------------------------------
    # connection state
    # ------------------------------------------------------------------

    def _begin_connect(self) -> int:
        """Start the CM handshake toward :attr:`remote_addr`."""
        assert self.remote_addr is not None
        remote_host, port = self.remote_addr
        self._establish_pending = True
        conn_id, established = self.cm.begin_connect(remote_host, port, self.qp)
        self._pending_conn_id = conn_id
        established.subscribe(self._on_connect_outcome)
        return conn_id

    def _on_connect_outcome(self, event) -> None:
        if not event.ok:
            self._enter_error()
            return
        # ESTABLISHED CmEvent also fires; state set in _on_cm_event.

    def _on_cm_event(self, event: CmEvent) -> None:
        if event.kind == "ESTABLISHED" and event.qp is self.qp:
            self.established = True
            self._pending_conn_id = None
            self._notify()
        elif (
            event.kind == "REJECTED"
            and self._pending_conn_id is not None
            and event.conn_id == self._pending_conn_id
        ):
            # Matched by connection id so a rejection of some *other*
            # channel's handshake on the shared CM cannot error this one.
            if not self.established:
                self._enter_error("rejected")

    def finish_connect(self) -> bool:
        """Consume the OP_ACCEPT readiness; True once established."""
        self.progress_marker += 1
        if self.errored:
            raise RubinError(f"{self}: connection failed")
        if self.established:
            self._establish_pending = False
            return True
        return False

    @property
    def remote_host(self) -> str:
        """The peer's host name (an accept learns it from the CM request)."""
        return self.qp.remote_host

    @property
    def accept_pending(self) -> bool:
        """Established but not yet acknowledged via finish_connect()."""
        return self.established and self._establish_pending

    def _enter_error(self, cause: Optional[str] = None) -> None:
        if cause is not None:
            self.last_error = cause
        self.errored = True
        self.closed = True
        if self.remote_addr is None:
            # An accepted channel cannot re-dial: the error is final.
            self._release_buffers()
        self._notify()

    def reconnect(self) -> int:
        """Re-establish an errored channel on a fresh queue pair.

        Tears the dead QP down, re-provisions one on the same CQs/pools
        and re-runs the CM handshake toward :attr:`remote_addr`.  The
        channel then reports ``accept_pending`` readiness once the
        handshake completes, exactly like the original active open, so
        the application-level connect flow replays unchanged.

        Returns the CM connection id of the new attempt (for
        ``abort_connect`` on timeout).  Only actively opened channels
        carry a remote address; accepted channels recover via a fresh
        inbound accept instead.
        """
        if self.remote_addr is None:
            raise RubinError(f"{self}: accepted channels cannot re-dial")
        self._reprovision()
        return self._begin_connect()

    def _reprovision(self) -> None:
        """Replace the QP and reset transport state, keeping buffers.

        Received-but-unread messages survive in ``_ready_messages``; every
        buffer still attached to the dead QP (posted receives, in-flight
        sends, the re-post backlog) is returned to its pool — flush-error
        completions do not release pool buffers, so this is the one place
        that reclaims them.
        """
        stale_conn = self._pending_conn_id
        if stale_conn is not None:
            self.cm.abort_connect(stale_conn)
            self._pending_conn_id = None
        self.device.destroy_qp(self.qp)
        # Drain both CQs: keep successful receives, retire successful
        # sends, discard flush errors (their buffers are released below).
        for cq in (self.recv_cq, self.send_cq):
            while True:
                completions = cq.poll(max_entries=64)
                if not completions:
                    break
                for wc in completions:
                    if wc.ok:
                        self._handle_completion(wc)
        for pooled in self._recv_wr_map.values():
            pooled.release()
        self._recv_wr_map.clear()
        for _wr_id, pooled in self._send_wr_buffers:
            if pooled is not None:
                pooled.release()
        self._send_wr_buffers.clear()
        for pooled in self._repost_backlog:
            pooled.release()
        self._repost_backlog = []
        self._sends_since_signal = 0

        self.qp = self._make_qp()
        self.established = False
        self.errored = False
        self.closed = False
        self._prepost_all_recv_buffers()
        # Re-arm CQ notifications that may have fired while errored.
        for cq in (self.recv_cq, self.send_cq):
            if cq.channel is not None:
                cq.request_notify()

    def add_watcher(self, watcher: Callable[[], None]) -> None:
        """Invoke ``watcher()`` on readiness-relevant changes."""
        self._watchers.append(watcher)

    def add_send_watcher(self, watcher: Callable[[int], None]) -> None:
        """Invoke ``watcher(wr_id)`` when a send completes successfully.

        Completions are in post order, so a callback with ``wr_id`` also
        acknowledges every earlier (unsignaled) send.
        """
        self._send_watchers.append(watcher)

    def add_unblock_watcher(self, watcher: Callable[[], None]) -> None:
        """Invoke ``watcher()`` when fresh credit unblocks the send path.

        Fires only on a blocked-to-unblocked transition, so subscribers
        (the selector's wakeup) see no traffic on schedules that never
        exhaust the credit window.
        """
        self._unblock_watchers.append(watcher)

    def _on_credit_granted(self) -> None:
        """The peer's advertisement reopened the send window."""
        if self._stall_since is not None:
            self.credit_stall_time.record(self.env.now - self._stall_since)
            self._stall_since = None
        if self._stall_span is not None:
            self._stall_span.end()
            self._stall_span = None
        for watcher in list(self._unblock_watchers):
            watcher()
        self._notify()

    def when_readable(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, when a read may have become worthwhile.

        That is the next receive completion, or the next :meth:`_notify`
        (close, error, a drain that parked a message) — together every
        way ``receivable or closed`` turns true.  It can also fire for
        nothing, so whoever is woken looks for itself.  One-shot: a
        reader that goes back to sleep subscribes again.  No completion
        channel is attached, so selector-driven schedules never see it.
        """
        self.recv_cq.push_waiters.append(callback)

    def _notify(self) -> None:
        for watcher in list(self._watchers):
            watcher()
        if self.recv_cq.push_waiters:
            self.recv_cq.wake_waiters()

    # ------------------------------------------------------------------
    # readiness
    # ------------------------------------------------------------------

    @property
    def receivable(self) -> bool:
        """A completed message is parked and ready to read."""
        return bool(self._ready_messages) or len(self.recv_cq) > 0

    @property
    def sendable(self) -> bool:
        """A write could make progress right now."""
        if not self.established or self.closed:
            return False
        if self.qp.send_queue_free < 1:
            return False
        if self.config.flow_control and (
            self.qp.send_credits_remaining - self._credit_reserved < 1
        ):
            return False
        if not self.config.zero_copy_send and self.send_pool.available == 0:
            return False
        return True

    # ------------------------------------------------------------------
    # completion handling
    # ------------------------------------------------------------------

    def on_cq_event(self, cq: CompletionQueue):
        """Drain ``cq``; generator (the selector and read/write yield from it).

        Charges the per-CQE reap cost and re-arms the notification.  On
        an empty ``cq`` that is :meth:`finish_cq_event` alone, which
        callers call directly rather than build this generator."""
        cpu = self.host.cpu
        while True:
            completions = cq.poll(max_entries=16)
            if not completions:
                break
            yield cpu.execute(cpu.costs.cqe_poll * len(completions))
            for wc in completions:
                self._handle_completion(wc)
        self.finish_cq_event(cq)

    def finish_cq_event(self, cq: CompletionQueue) -> None:
        """The tail of :meth:`on_cq_event`, once ``cq`` is drained:
        re-arm its notification and tell the watchers."""
        if cq.channel is not None:
            cq.request_notify()
        self._notify()

    def _handle_completion(self, wc) -> None:
        if not wc.ok:
            if wc.status is not WcStatus.WR_FLUSH_ERR:
                self._enter_error(wc.status.value)
            return
        if wc.opcode is Opcode.RECV:
            pooled = self._recv_wr_map.pop(wc.wr_id, None)
            if pooled is None:
                raise RubinError(f"{self}: completion for unknown recv WR")
            self._ready_messages.append(
                _InboundMessage(pooled, wc.byte_len, wc.trace_ctx)
            )
        else:
            # A send CQE releases the pool buffers of this WR and of every
            # earlier unsignaled WR (in-order completion).
            while self._send_wr_buffers:
                wr_id, pooled = self._send_wr_buffers.popleft()
                if pooled is not None:
                    pooled.release()
                if wr_id == wc.wr_id:
                    break
            for watcher in list(self._send_watchers):
                watcher(wc.wr_id)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------

    def read(self, buffer: ByteBuffer) -> "Event":
        """Read one (partial) message into ``buffer``; value = byte count.

        Non-blocking: 0 when no message is ready, ``None`` once closed.
        Charges the CQE reap and — unless ``zero_copy_recv`` — the
        receive-side copy from the pool buffer into the application
        buffer, the very copy the paper blames for large-message
        degradation.
        """
        return self.env.process(self.read_gen(buffer), name="rubin.read")

    def read_view(self, max_bytes: int) -> "Event":
        """Zero-copy read: event value is a memoryview over the pool buffer.

        Non-blocking like :meth:`read` (``0`` when nothing is ready,
        ``None`` once closed), with identical modeled charges — only the
        host-side copy into an application buffer is skipped.  The caller
        must fully consume (or copy out of) the view before yielding back
        to the kernel: once the event fires, the underlying pool buffer
        may already be reposted to the RNIC, and a later arrival's DMA —
        always strictly later in simulated time — will overwrite it.
        """
        return self.env.process(self.read_view_gen(max_bytes), name="rubin.read")

    def read_gen(self, buffer: ByteBuffer):
        """The body of :meth:`read`, for ``yield from inline(...)``."""
        self.progress_marker += 1
        return self._read_message(buffer, 0)

    def read_view_gen(self, max_bytes: int):
        """The body of :meth:`read_view`, for ``yield from inline(...)``."""
        self.progress_marker += 1
        return self._read_message(None, max_bytes)

    def _read_message(self, buffer: Optional[ByteBuffer], max_bytes: int):
        """Shared body of :meth:`read` and :meth:`read_view`.

        With ``buffer`` the message bytes are copied into it and the byte
        count returned; without, a view of the pool buffer is returned.
        Both paths create exactly the same events (CQE drain, modeled
        receive copy, buffer recycling), so schedules are bit-identical
        whichever the application picks.
        """
        recv_cq = self.recv_cq
        if recv_cq._entries:
            yield from self.on_cq_event(recv_cq)
        elif self.closed and not self._ready_messages:
            return None
        else:
            self.finish_cq_event(recv_cq)
        if not self._ready_messages:
            return None if self.closed else 0
        message = self._ready_messages[0]
        limit = buffer.remaining() if buffer is not None else max_bytes
        take = min(message.remaining, limit)
        if take == 0:
            return 0
        self.last_read_trace_ctx = message.trace_ctx
        tracer = self.env.tracer
        span = None
        if tracer is not None and tracer.enabled and message.trace_ctx is not None:
            span = tracer.start_span(
                "channel.read",
                layer="rubin",
                parent=message.trace_ctx,
                track=self.host.name,
                nbytes=take,
            )
        if not self.config.zero_copy_recv:
            yield self.host.cpu.copy(take)
        view = memoryview(message.pooled.data)[message.offset : message.offset + take]
        if buffer is not None:
            # Exactly one host copy on receive: pool buffer -> application
            # buffer (counted inside put()).  The paper's receive-side copy.
            buffer.put(view)
            view.release()
            result: "int | memoryview" = take
        else:
            # Zero-copy hand-off: the recycle below may repost the buffer,
            # but inbound DMA into it starts strictly later in simulated
            # time, so a caller that consumes the view before its next
            # yield can never observe overwritten data.
            result = view
        message.offset += take
        message.remaining -= take
        if message.remaining == 0:
            self._ready_messages.popleft()
            yield from self._recycle_recv_buffer(message.pooled)
        if span is not None:
            span.end()
        return result

    def _recycle_recv_buffer(self, pooled: PooledBuffer):
        """Queue a consumed buffer for batched re-posting."""
        self._repost_backlog.append(pooled)
        limit = min(self.config.post_batch, self.device.attrs.max_post_batch)
        if len(self._repost_backlog) >= limit:
            cpu = self.host.cpu
            batch = []
            for buf in self._repost_backlog:
                wr_id = next(self._next_wr_id)
                self._recv_wr_map[wr_id] = buf
                batch.append(RecvWorkRequest(wr_id=wr_id, sge=Sge(buf.mr)))
            self._repost_backlog = []
            # One doorbell for the whole batch (the paper's posting
            # optimization); WQE build cost per request.
            yield cpu.execute(
                cpu.costs.post_wr * len(batch) + cpu.costs.doorbell
            )
            self.qp.post_recv_batch(batch)
        else:
            yield from ()

    def write(self, buffer: ByteBuffer, trace_ctx=None) -> "Event":
        """Send ``buffer``'s remaining bytes as one message; value = count.

        Non-blocking: returns 0 when the send queue or pool is full.
        ``trace_ctx`` optionally attributes the post path to a trace and
        rides on the work request through the transport.
        """
        return self.env.process(
            self.write_gen(buffer, trace_ctx), name="rubin.write"
        )

    def write_gen(self, buffer: ByteBuffer, trace_ctx=None):
        """The body of :meth:`write`, for ``yield from inline(...)``."""
        self.progress_marker += 1
        return self._write(buffer, trace_ctx)

    def _write(self, buffer: ByteBuffer, trace_ctx):
        if self.closed:
            raise RubinError(f"{self}: channel is closed")
        if not self.established:
            raise RubinError(f"{self}: channel is not established")
        length = buffer.remaining()
        if length == 0:
            return 0
        if length > self.config.buffer_size:
            raise RubinError(
                f"{self}: message of {length}B exceeds channel buffer size "
                f"{self.config.buffer_size}B"
            )
        tracer = self.env.tracer
        traced = tracer is not None and tracer.enabled and trace_ctx is not None
        span = None
        if traced:
            span = tracer.start_span(
                "channel.write",
                layer="rubin",
                parent=trace_ctx,
                track=self.host.name,
                nbytes=length,
            )
        reserved = False
        try:
            # Reap finished sends first so slots/pool buffers recycle.
            if self.send_cq._entries:
                yield from self.on_cq_event(self.send_cq)
            else:
                self.finish_cq_event(self.send_cq)
            if self.qp.send_queue_free < 1:
                return 0
            if self.config.flow_control:
                if self.qp.send_credits_remaining - self._credit_reserved < 1:
                    # Out of credits: refuse the write (0 bytes) and let
                    # the credit watcher re-arm readiness — never post
                    # into a window the peer has not provisioned.
                    self.credit_stalls.increment()
                    if self._stall_since is None:
                        self._stall_since = self.env.now
                        if traced:
                            self._stall_span = tracer.start_span(
                                "channel.credit_stall",
                                layer="rubin",
                                parent=trace_ctx,
                                track=self.host.name,
                            )
                    return 0
                # Claim the credit across the yields below: the QP only
                # debits at post time, so without the reservation every
                # concurrently blocked writer would pass the gate.
                self._credit_reserved += 1
                reserved = True

            cpu = self.host.cpu
            self._sends_since_signal += 1
            signaled = self._sends_since_signal >= self.config.signal_interval
            if signaled:
                self._sends_since_signal = 0
            wr_id = next(self._next_wr_id)

            if length <= self.config.inline_threshold and length <= self.qp.caps.max_inline:
                # Inline: payload copied into the WQE; cheapest for small
                # messages, no gather DMA at the RNIC.
                data = buffer.get(length)
                yield cpu.execute(
                    cpu.costs.post_wr + cpu.costs.doorbell + cpu.costs.copy_seconds(length)
                )
                wr = SendWorkRequest(
                    wr_id=wr_id,
                    opcode=Opcode.SEND,
                    inline_data=data,
                    signaled=signaled,
                    trace_ctx=trace_ctx,
                )
                self._send_wr_buffers.append((wr_id, None))
            elif self.config.zero_copy_send:
                # Register the application's buffer once, then gather from it
                # directly (zero-copy send path of Section IV).
                mr = yield from self._app_buffer_mr(buffer)
                yield cpu.execute(cpu.costs.post_wr + cpu.costs.doorbell)
                wr = SendWorkRequest(
                    wr_id=wr_id,
                    opcode=Opcode.SEND,
                    sge=Sge(mr, buffer.position, length),
                    signaled=signaled,
                    trace_ctx=trace_ctx,
                )
                buffer.position = buffer.position + length
                # The RNIC reads the buffer until this WR leaves the queue.
                buffer.gather_wr_id = wr_id
                self._send_wr_buffers.append((wr_id, None))
            else:
                pooled = self.send_pool.try_acquire()
                if pooled is None:
                    # Expected under load: stall (0 bytes) until a send
                    # completion recycles a buffer; no alarm, no raise.
                    self.pool_stalls.increment()
                    return 0
                # Single host copy app buffer -> registered pool buffer.
                view = buffer.peek_view(length)
                if COPYSTATS.enabled:
                    COPYSTATS.copy(length)
                pooled.data[:length] = view
                view.release()
                buffer.position = buffer.position + length
                yield cpu.copy(length)
                yield cpu.execute(cpu.costs.post_wr + cpu.costs.doorbell)
                wr = SendWorkRequest(
                    wr_id=wr_id,
                    opcode=Opcode.SEND,
                    sge=Sge(pooled.mr, 0, length),
                    signaled=signaled,
                    trace_ctx=trace_ctx,
                )
                self._send_wr_buffers.append((wr_id, pooled))
            self.last_write_wr_id = wr_id
            self.qp.post_send(wr)
            return length
        finally:
            if reserved:
                # post_send (if reached) has debited the QP by now; a
                # stalled pool path releases the claim unposted.
                self._credit_reserved -= 1
            if span is not None:
                span.end()

    def write_staging(self):
        """``size -> ByteBuffer``: a ring slot to stage each write in.

        Slots are reused, so the zero-copy path registers each buffer
        once (the paper's "register the application's send buffer
        directly").
        """
        return _StagingRing(self).take

    def _app_buffer_mr(self, buffer: ByteBuffer):
        """Register (once) and return the MR for an application buffer.

        The cache is keyed on the :attr:`MemoryRegion.token` of the
        registration, stamped onto the ByteBuffer itself — tokens are
        monotonic and never recycled, so a new buffer can never alias a
        stale registration (``id()``-keyed caches could, because CPython
        recycles object ids).
        """
        token = getattr(buffer, "_mr_token", None)
        mr = self._app_mr_cache.get(token) if token is not None else None
        if mr is None:
            backing = buffer.array()
            attrs = self.device.attrs
            pages = max(1, -(-len(backing) // attrs.page_size))
            yield self.host.cpu.execute(
                self.host.cpu.costs.syscall
                + attrs.mr_register_base
                + pages * attrs.mr_register_per_page
            )
            mr = self.device.reg_mr(self.pd, backing)
            buffer._mr_token = mr.token
            self._app_mr_cache[mr.token] = mr
        # Stability is a property of the buffer's ownership discipline
        # (staging rings recycle slots only on completion), so refresh it
        # on every use.
        mr.stable = buffer.stable_until_completion
        return mr

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the channel and release its resources."""
        if self.closed:
            return
        self.closed = True
        if self._pending_conn_id is not None:
            self.cm.abort_connect(self._pending_conn_id)
            self._pending_conn_id = None
        self.device.destroy_qp(self.qp)
        self._release_buffers()
        self._notify()

    def _release_buffers(self) -> None:
        """Give the pools' memory back: no buffer will be posted again.

        Called once the QP is dead for good, so every posted receive has
        completed.  Only the ones whose flush is visible in the CQ are
        forgotten — a successful completion, queued or held by a drain in
        progress, still finds its buffer, and parked messages stay
        readable through ``_ready_messages``.
        """
        for wc in self.recv_cq:
            if not wc.ok:
                self._recv_wr_map.pop(wc.wr_id, None)
        self._send_wr_buffers.clear()
        self._repost_backlog = []
        self.recv_pool.destroy()
        self.send_pool.destroy()

    def __repr__(self) -> str:
        state = (
            "error"
            if self.errored
            else "closed"
            if self.closed
            else "established"
            if self.established
            else "connecting"
        )
        return f"<RubinChannel #{self.channel_id} on {self.host.name} {state}>"


class RubinServerChannel:
    """A listening RDMA channel producing :class:`RubinChannel` on accept."""

    def __init__(
        self,
        device: "RdmaDevice",
        cm: ConnectionManager,
        port: int,
        config: Optional[RubinConfig] = None,
    ):
        self.device = device
        self.cm = cm
        self.port = port
        self.config = config if config is not None else RubinConfig()
        self.channel_id = next(_channel_ids)
        self.listener = cm.listen(port)
        self._pending: Deque[ConnectRequest] = deque()
        self._watchers: List[Callable[[], None]] = []
        self.progress_marker = 0
        self.closed = False
        cm.add_event_watcher(self._on_cm_event)

    def _on_cm_event(self, event: CmEvent) -> None:
        if (
            event.kind == "CONNECT_REQUEST"
            and event.listener_port == self.port
            and not self.closed
        ):
            self._pending.append(event.request)
            for watcher in list(self._watchers):
                watcher()

    @property
    def connect_pending(self) -> bool:
        """True when an unaccepted connection request is queued."""
        return bool(self._pending)

    def accept(self, config: Optional[RubinConfig] = None) -> Optional[RubinChannel]:
        """Accept the next pending request; None when there is none.

        The returned channel is usable immediately (receive buffers are
        posted); it reports OP_ACCEPT readiness once the peer's RTU lands.
        """
        if self.closed:
            raise RubinError(f"{self}: server channel is closed")
        self.progress_marker += 1
        if not self._pending:
            return None
        request = self._pending.popleft()
        return RubinChannel._accept(
            self.device, self.cm, request, config or self.config
        )

    def add_watcher(self, watcher: Callable[[], None]) -> None:
        """Invoke ``watcher()`` when a connection request arrives."""
        self._watchers.append(watcher)

    def close(self) -> None:
        """Stop listening; pending unaccepted requests are rejected."""
        if self.closed:
            return
        self.closed = True
        while self._pending:
            self._pending.popleft().reject("listener closed")
        self.listener.close()

    def __repr__(self) -> str:
        return (
            f"<RubinServerChannel #{self.channel_id} "
            f"{self.device.host.name}:{self.port}>"
        )
