"""TCP connection state machine.

Implements the subset of TCP the paper's comparison depends on:

* three-way handshake (SYN / SYN-ACK / ACK) and FIN teardown;
* MSS segmentation with sequence numbers counting bytes;
* cumulative ACKs, sliding-window flow control with an advertised window,
  zero-window probing;
* go-back-N retransmission with a fixed RTO (the link has constant delay,
  so RTT estimation adds nothing);
* the *cost model*: every send charges a syscall plus a user-to-kernel copy,
  every receive charges an interrupt, per-segment protocol processing, a
  kernel-to-user copy and a wake-up context switch — the overheads
  Section I of the paper attributes >50 % of TCP's CPU cycles to.

Congestion control is deliberately out of scope (dedicated point-to-point
testbed link; documented in DESIGN.md).

All per-connection protocol processing runs in a single receive loop so
segment handling is serialized exactly like a NIC queue pair bound to one
core, keeping the simulation deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import TcpError
from repro.net.frame import Frame
from repro.sim import Event, Store
from repro.sim.copystats import COPYSTATS
from repro.sim.resources import TimedHold
from repro.tcpstack.config import TcpConfig
from repro.tcpstack.segment import ACK, FIN, RST, SYN, Segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment
    from repro.tcpstack.stack import TcpStack

__all__ = ["TcpConnection"]

Watcher = Callable[[], None]

# Connection states (pragmatic subset of RFC 793).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"

#: States in which the transmit loop may emit data segments (prebuilt:
#: ``in (A, B, C)`` rebuilds the tuple from globals on every call).
_DATA_STATES = (ESTABLISHED, CLOSE_WAIT, FIN_WAIT)


class _InFlight:
    """One unacknowledged segment awaiting ACK (go-back-N bookkeeping)."""

    __slots__ = ("seq", "data", "flags", "sent_at")

    def __init__(self, seq: int, data: bytes, flags: int, sent_at: float):
        self.seq = seq
        self.data = data
        self.flags = flags
        self.sent_at = sent_at

    def seq_length(self) -> int:
        length = len(self.data)
        if self.flags & SYN:
            length += 1
        if self.flags & FIN:
            length += 1
        return length


class TcpConnection:
    """One end of a TCP connection.

    Application API (all methods returning events are yielded from
    simulation processes):

    * :meth:`send` — blocking write: completes once all bytes are admitted
      to the kernel send buffer.
    * :meth:`write_some` — non-blocking write: admits what fits now.
    * :meth:`receive` — blocking read of at least ``min_bytes``.
    * :meth:`read_some` — non-blocking read (``b""`` if nothing, ``None``
      at EOF), matching Java NIO's ``read() == -1`` convention.
    * :meth:`close` — orderly FIN teardown.

    Readiness watchers (:meth:`add_watcher`) fire on every state change
    that could affect readability/writability — the hook the epoll
    emulation and the NIO selector build on.
    """

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_host: str,
        remote_port: int,
        config: TcpConfig,
        passive: bool,
    ):
        self.stack = stack
        self.env: "Environment" = stack.env
        self.host = stack.host
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.config = config
        self.state = CLOSED

        #: Triggers when the handshake completes (or fails).
        self.established: "Event" = self.env.event()

        # --- send side -----------------------------------------------------
        self._snd_una = 0  # oldest unacknowledged sequence number
        self._snd_nxt = 0  # next sequence number to use
        self._send_queue = bytearray()  # admitted, not yet segmented
        self._inflight: List[_InFlight] = []
        self._peer_window = config.recv_buffer  # until first ACK arrives
        self._send_waiters: List[tuple["Event", int]] = []  # (event, bytes)
        self._tx_kick: Optional["Event"] = None
        self._close_requested = False
        self._fin_sent = False
        self._fin_acked = False

        # --- receive side ----------------------------------------------------
        self._rcv_nxt = 0
        self._recv_buffer = bytearray()
        self._recv_waiters: List[tuple["Event", int, Optional[int]]] = []
        self._fin_received = False
        self._was_zero_window = False
        self._segs_since_ack = 0
        # Bytes sitting in the NIC ring (received but not yet processed);
        # they must count against the advertised window or the sender
        # overcommits and the receiver is forced to drop.
        self._rx_queued_bytes = 0

        # --- plumbing -------------------------------------------------------
        #: Listener that spawned this connection (passive opens only).
        self._listener = None
        self._rx_queue: Store = Store(self.env)
        self._watchers: List[Watcher] = []
        self._reset_error: Optional[TcpError] = None
        self._passive = passive
        self._processes_started = False

        # --- loop state -----------------------------------------------------
        # The rx/tx loops are callback state machines (see _rx_step /
        # _tx_step); these fields carry per-iteration state between the
        # callbacks, and the cached cost values avoid re-walking
        # host.cpu.costs on every segment.
        self._rx_blocked = False
        self._rx_segment: Optional[Segment] = None
        self._tx_entry: Optional[_InFlight] = None
        cpu = self.host.cpu
        self._cpu_execute = cpu.execute
        self._cpu_resource = cpu._resource
        self._cpu_tracker = cpu.tracker
        self._cost_per_segment = cpu.costs.per_segment
        self._cost_rx_burst = cpu.costs.per_segment + cpu.costs.interrupt
        self._tx_mss = config.mss
        self._tx_max_inflight = config.max_in_flight_segments
        self._recv_buffer_cap = config.recv_buffer

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _start(self) -> None:
        """Start the per-connection protocol processes."""
        if self._processes_started:
            return
        self._processes_started = True
        name = f"tcp[{self.host.name}:{self.local_port}]"
        # rx and tx are callback state machines; each starts where its
        # generator-process predecessor did, on the urgent lane.
        urgent = self.env._urgent
        urgent.append(self._rx_step)
        urgent.append(self._tx_step)
        self.env.process(self._retransmit_loop(), name=f"{name}.rto")

    def open_active(self) -> None:
        """Client side: send SYN and start the machinery."""
        self.state = SYN_SENT
        self._start()
        self._queue_control(SYN)

    def open_passive(self, syn: Segment) -> None:
        """Server side: react to a received SYN with SYN-ACK."""
        self.state = SYN_RCVD
        self._rcv_nxt = syn.seq + 1
        self._peer_window = syn.window
        self._start()
        self._queue_control(SYN | ACK)

    def _queue_control(self, flags: int) -> None:
        """Put a SYN/FIN control segment into the reliable send path."""
        entry = _InFlight(self._snd_nxt, b"", flags, self.env.now)
        self._snd_nxt += entry.seq_length()
        self._inflight.append(entry)
        self._transmit_entry(entry)

    # ------------------------------------------------------------------
    # readiness & watchers
    # ------------------------------------------------------------------

    def add_watcher(self, watcher: Watcher) -> None:
        """Invoke ``watcher()`` on every readiness-relevant state change."""
        self._watchers.append(watcher)

    def remove_watcher(self, watcher: Watcher) -> None:
        """Stop invoking ``watcher``."""
        try:
            self._watchers.remove(watcher)
        except ValueError:
            pass

    def _notify(self) -> None:
        watchers = self._watchers
        if not watchers:
            return
        if len(watchers) == 1:
            # Common case (one selector key per connection): skip the
            # defensive copy taken for mutation-during-iteration safety.
            watchers[0]()
            return
        for watcher in list(watchers):
            watcher()

    @property
    def is_established(self) -> bool:
        """True while data transfer is possible."""
        return self.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT)

    @property
    def bytes_available(self) -> int:
        """Bytes ready for the application to read."""
        return len(self._recv_buffer)

    @property
    def readable(self) -> bool:
        """True if a read would return data (or EOF) immediately."""
        return (
            self.bytes_available > 0
            or self._fin_received
            or self._reset_error is not None
        )

    @property
    def send_space(self) -> int:
        """Free bytes in the kernel send buffer."""
        used = len(self._send_queue) + (self._snd_nxt - self._snd_una)
        return max(0, self.config.send_buffer - used)

    @property
    def writable(self) -> bool:
        """True if a write could admit at least one byte immediately."""
        return self.is_established and self.send_space > 0

    @property
    def eof_received(self) -> bool:
        """True once the peer's FIN has been consumed up to the buffer."""
        return self._fin_received and not self._recv_buffer

    # ------------------------------------------------------------------
    # application API — send side
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> "Event":
        """Write all of ``data``; event value is ``len(data)``.

        Charges one syscall plus the user-to-kernel copy.  Blocks (in
        simulated time) while the send buffer is full.
        """
        if COPYSTATS.enabled and not isinstance(data, bytes):
            COPYSTATS.copy(len(data))
        return self.env.process(self._send_proc(bytes(data)), name="tcp.send")

    def _send_proc(self, data: bytes):
        self._check_sendable()
        yield self.host.cpu.execute(self.host.cpu.costs.syscall)
        remaining = memoryview(data)
        while remaining.nbytes:
            space = self.send_space
            if space == 0:
                waiter = self.env.event()
                self._send_waiters.append((waiter, 1))
                yield waiter
                yield self.host.cpu.execute(self.host.cpu.costs.context_switch)
                self._check_sendable()
                continue
            chunk = remaining[: min(space, remaining.nbytes)]
            yield self.host.cpu.copy(chunk.nbytes)
            if COPYSTATS.enabled:
                COPYSTATS.copy(chunk.nbytes)
            self._send_queue.extend(chunk)
            self._kick_tx()
            remaining = remaining[chunk.nbytes :]
        return len(data)

    def write_some(self, data: "bytes | memoryview") -> "Event":
        """Non-blocking write; event value is the byte count admitted.

        ``data`` may be a view over the caller's buffer: only the
        admitted prefix is copied (into the kernel send queue), and the
        caller must keep the buffer unchanged until the event fires.
        """
        return self.env.process(self.write_some_gen(data), name="tcp.write")

    def write_some_gen(self, data):
        """The body of :meth:`write_some`, for ``yield from inline(...)``."""
        self._check_sendable()
        yield self.host.cpu.execute(self.host.cpu.costs.syscall)
        admitted = min(self.send_space, len(data))
        if admitted:
            yield self.host.cpu.copy(admitted)
            if COPYSTATS.enabled:
                COPYSTATS.copy(admitted)
            # The one user-to-kernel copy: straight from the caller's
            # memory into the send queue, no intermediate snapshot.
            self._send_queue.extend(memoryview(data)[:admitted])
            self._kick_tx()
        return admitted

    def _check_sendable(self) -> None:
        if self._reset_error is not None:
            raise self._reset_error
        if self.state == CLOSED:
            raise TcpError(f"{self}: connection is closed")
        if self._close_requested:
            raise TcpError(f"{self}: send after close()")

    # ------------------------------------------------------------------
    # application API — receive side
    # ------------------------------------------------------------------

    def receive(
        self, max_bytes: Optional[int] = None, min_bytes: int = 1
    ) -> "Event":
        """Read ``min_bytes``..``max_bytes``; value is the bytes read.

        Returns ``b""`` if the peer closed before ``min_bytes`` arrived.
        Charges the syscall, a wake-up context switch when it had to block,
        and the kernel-to-user copy of whatever is returned.
        """
        if min_bytes < 1:
            raise TcpError(f"min_bytes must be >= 1 ({min_bytes})")
        if max_bytes is not None and max_bytes < min_bytes:
            raise TcpError("max_bytes must be >= min_bytes")
        return self.env.process(
            self._receive_proc(max_bytes, min_bytes), name="tcp.receive"
        )

    def _receive_proc(self, max_bytes: Optional[int], min_bytes: int):
        if self._reset_error is not None:
            raise self._reset_error
        yield self.host.cpu.execute(self.host.cpu.costs.syscall)
        while len(self._recv_buffer) < min_bytes and not self._fin_received:
            waiter = self.env.event()
            self._recv_waiters.append((waiter, min_bytes, max_bytes))
            yield waiter
            if self._reset_error is not None:
                raise self._reset_error
            yield self.host.cpu.execute(self.host.cpu.costs.context_switch)
        return (yield from self._drain_recv_buffer(max_bytes))

    def read_some(self, max_bytes: int) -> "Event":
        """Non-blocking read: value is bytes (``b""`` if none, ``None`` EOF)."""
        return self.env.process(self.read_some_gen(max_bytes), name="tcp.read")

    def read_some_gen(self, max_bytes: int):
        """The body of :meth:`read_some`, for ``yield from inline(...)``."""
        if max_bytes < 1:
            raise TcpError(f"max_bytes must be >= 1 ({max_bytes})")
        return self._read_some(max_bytes)

    def _read_some(self, max_bytes: int):
        if self._reset_error is not None:
            raise self._reset_error
        yield self.host.cpu.execute(self.host.cpu.costs.syscall)
        if not self._recv_buffer:
            return None if self._fin_received else b""
        return (yield from self._drain_recv_buffer(max_bytes))

    def _drain_recv_buffer(self, max_bytes: Optional[int]):
        """Copy out of the kernel buffer, charging the copy cost."""
        take = len(self._recv_buffer)
        if max_bytes is not None:
            take = min(take, max_bytes)
        if take == 0:
            return b""
        yield self.host.cpu.copy(take)
        if COPYSTATS.enabled:
            COPYSTATS.copy(take)
        view = memoryview(self._recv_buffer)
        out = bytes(view[:take])
        view.release()  # before the resize below, or bytearray raises
        del self._recv_buffer[:take]
        if self._was_zero_window and self._recv_free_space() > 0:
            # Window reopened: tell the (possibly stalled) sender.
            self._was_zero_window = False
            self._send_ack()
        return out

    def _recv_free_space(self) -> int:
        free = self._recv_buffer_cap - len(self._recv_buffer) - self._rx_queued_bytes
        return free if free > 0 else 0

    # ------------------------------------------------------------------
    # application API — close
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Initiate an orderly close; pending sends drain first."""
        if self.state == CLOSED or self._close_requested:
            return
        self._close_requested = True
        self._kick_tx()

    def abort(self) -> None:
        """Hard reset: send RST and drop all state immediately."""
        if self.state == CLOSED:
            return
        self._transmit_segment(
            Segment(
                src_host=self.host.name,
                src_port=self.local_port,
                dst_host=self.remote_host,
                dst_port=self.remote_port,
                flags=RST,
                seq=self._snd_nxt,
            )
        )
        self._enter_closed(TcpError(f"{self}: connection aborted locally"))

    # ------------------------------------------------------------------
    # segment transmission helpers
    # ------------------------------------------------------------------

    def _segment(self, flags: int, seq: int, data: bytes = b"") -> Segment:
        # Positional construction: dataclass kwargs cost a measurable
        # amount per segment at sweep scale.
        return Segment(
            self.host.name,
            self.local_port,
            self.remote_host,
            self.remote_port,
            flags,
            seq,
            self._rcv_nxt,
            self._recv_free_space(),
            data,
        )

    def _transmit_segment(self, segment: Segment) -> None:
        self.host.nic.transmit(
            Frame(
                self.host.name,
                self.remote_host,
                self.stack.PROTOCOL,
                segment.wire_bytes,
                segment,
            )
        )

    def _transmit_entry(self, entry: _InFlight) -> None:
        flags = entry.flags | (ACK if self.state != SYN_SENT else 0)
        self._transmit_segment(self._segment(flags, entry.seq, entry.data))

    def _send_ack(self) -> None:
        """Emit a pure ACK carrying the current window."""
        self._transmit_segment(self._segment(ACK, self._snd_nxt))

    def _kick_tx(self) -> None:
        if self._tx_kick is not None and not self._tx_kick.triggered:
            self._tx_kick.succeed()

    # ------------------------------------------------------------------
    # transmit loop
    # ------------------------------------------------------------------

    def _should_send_fin(self) -> bool:
        return (
            self._close_requested
            and not self._fin_sent
            and not self._send_queue
            and self.state in (ESTABLISHED, CLOSE_WAIT, SYN_RCVD, SYN_SENT)
        )

    # The transmit loop is a callback state machine: every branch of the
    # old generator ended in a yield, so each branch becomes "schedule the
    # next event, append the continuation".  Events are created in exactly
    # the order the generator created them (segment mutations before the
    # CPU charge, TimedHold before the callback append, kick event only
    # when idle), keeping schedules bit-identical while removing the
    # generator ``send`` dispatch per segment.

    def _tx_step(self, _event: Optional[Event] = None) -> None:
        if self.state == CLOSED:
            # Drain: wake anyone still blocked on a closed connection.
            self._wake_send_waiters()
            return
        send_queue = self._send_queue
        if (
            send_queue
            and len(self._inflight) < self._tx_max_inflight
            and self._snd_nxt - self._snd_una < self._peer_window
            and self.state in _DATA_STATES
        ):
            window_left = self._peer_window - (self._snd_nxt - self._snd_una)
            size = min(len(send_queue), self._tx_mss, window_left)
            if COPYSTATS.enabled:
                COPYSTATS.copy(size)
            view = memoryview(send_queue)
            data = bytes(view[:size])
            view.release()  # before the resize below, or bytearray raises
            del send_queue[:size]
            entry = _InFlight(self._snd_nxt, data, 0, self.env._now)
            self._snd_nxt += size
            self._inflight.append(entry)
            self._tx_entry = entry
            # Protocol processing for this segment (header build,
            # checksum handoff); the NIC DMA overlaps with the next
            # segment's CPU work.  TimedHold directly when the cost is
            # non-zero; cpu.execute keeps its distinct zero-cost schedule.
            cost = self._cost_per_segment
            if cost > 0.0:
                charged = TimedHold(self._cpu_resource, cost, self._cpu_tracker)
            else:
                charged = self._cpu_execute(cost)
            charged.callbacks.append(self._tx_segment_charged)
            return
        if self._should_send_fin():
            self._fin_sent = True
            if self.state == ESTABLISHED:
                self.state = FIN_WAIT
            elif self.state == CLOSE_WAIT:
                self.state = LAST_ACK
            self._cpu_execute(self._cost_per_segment).callbacks.append(
                self._tx_fin_charged
            )
            return
        kick = Event(self.env)
        self._tx_kick = kick
        kick.callbacks.append(self._tx_step)

    def _tx_segment_charged(self, _event: Event) -> None:
        entry = self._tx_entry
        self._tx_entry = None
        entry.sent_at = self.env._now
        self._transmit_entry(entry)
        self._wake_send_waiters()
        self._tx_step(None)

    def _tx_fin_charged(self, _event: Event) -> None:
        self._queue_control(FIN)
        self._tx_step(None)

    def _wake_send_waiters(self) -> None:
        while self._send_waiters and (self.send_space > 0 or self.state == CLOSED):
            waiter, _needed = self._send_waiters.pop(0)
            if not waiter.triggered:
                waiter.succeed()
        self._notify()

    # ------------------------------------------------------------------
    # receive loop (all inbound protocol processing)
    # ------------------------------------------------------------------

    def enqueue_segment(self, segment: Segment) -> None:
        """Called by the stack's demux for every arriving segment.

        The private tail of a link arrival (Link._deliver, its last
        callback → Nic._on_frame → TcpStack._on_frame, which returns
        right after this call), so a parked receive loop takes the
        segment in place (DESIGN §11, rule 7).
        """
        self._rx_queued_bytes += len(segment.data)
        self._rx_queue.post_tail(segment)

    # The receive loop mirrors _tx_step: wait-for-segment -> charge CPU ->
    # handle, as callbacks with the same event order the generator had.

    def _rx_step(self, _event: Optional[Event] = None) -> None:
        """Wait for the next inbound segment."""
        rx_queue = self._rx_queue
        # NAPI-style interrupt coalescing: the first segment of a burst
        # raises a hardware interrupt; segments already queued when we
        # come back around are polled and pay only protocol processing.
        # (Computed before get(): an uncontended get pops the item.)
        self._rx_blocked = not rx_queue.items
        rx_queue.get_call(self._rx_dequeued)

    def _rx_dequeued(self, segment: Segment) -> None:
        if self.state == CLOSED:
            return
        self._rx_segment = segment
        cost = self._cost_rx_burst if self._rx_blocked else self._cost_per_segment
        if cost > 0.0:
            charged = TimedHold(self._cpu_resource, cost, self._cpu_tracker)
        else:
            charged = self._cpu_execute(cost)
        charged.callbacks.append(self._rx_charged)

    def _rx_charged(self, _event: Event) -> None:
        segment = self._rx_segment
        self._rx_segment = None
        self._rx_queued_bytes -= len(segment.data)
        self._handle_segment(segment)
        if self.state == CLOSED:
            return
        self._rx_step(None)

    def _handle_segment(self, segment: Segment) -> None:
        flags = segment.flags
        if flags & RST:
            self._enter_closed(TcpError(f"{self}: connection reset by peer"))
            return

        if flags & ACK:
            self._process_ack(segment)

        if self.state == SYN_SENT and flags & SYN and flags & ACK:
            self._rcv_nxt = segment.seq + 1
            self.state = ESTABLISHED
            self._send_ack()
            if not self.established.triggered:
                self.established.succeed(self)
            self._notify()
            self._kick_tx()
            return

        if flags & SYN and self.state not in (SYN_SENT, SYN_RCVD):
            # Duplicate SYN / SYN-ACK: our handshake ACK was lost.  Re-ACK
            # so the peer can leave SYN_RCVD.
            self._send_ack()
            return

        if self.state == SYN_RCVD and flags & ACK and self._snd_una >= 1:
            self.state = ESTABLISHED
            if not self.established.triggered:
                self.established.succeed(self)
            self.stack._connection_established(self)
            self._notify()
            self._kick_tx()
            # fall through: the establishing ACK may carry data.

        if segment.data or flags & FIN:
            self._process_data(segment)

    def _process_ack(self, segment: Segment) -> None:
        window_reopened = self._peer_window == 0 and segment.window > 0
        self._peer_window = segment.window
        advanced = False
        inflight = self._inflight
        ack = segment.ack
        while inflight:
            head = inflight[0]
            head_end = head.seq + head.seq_length()
            if head_end <= ack:
                inflight.pop(0)
                self._snd_una = head_end
                if head.flags & FIN:
                    self._fin_acked = True
                advanced = True
            else:
                break
        if advanced:
            self._wake_send_waiters()
            self._maybe_finish_close()
        if window_reopened and self._inflight:
            # The window just reopened and something is still unacked —
            # typically the zero-window probe the receiver had to drop.
            # Retransmit immediately instead of waiting out a backed-off
            # RTO, or every zero-window episode costs tens of ms.
            for entry in self._inflight:
                entry.sent_at = self.env.now
                self._transmit_entry(entry)
        # A window update may unblock the tx loop even without new ACKs.
        self._kick_tx()

    def _process_data(self, segment: Segment) -> None:
        if segment.seq != self._rcv_nxt:
            # Out-of-order (go-back-N): drop, re-ACK what we have.
            self._send_ack()
            return
        data = segment.data
        if data:
            size = len(data)
            if size > self._recv_free_space():
                # No buffer space: drop; sender's RTO/probe will retry.
                self._was_zero_window = True
                self._send_ack()
                return
            if COPYSTATS.enabled:
                COPYSTATS.copy(size)
            self._recv_buffer.extend(data)
            self._rcv_nxt += size
        if segment.flags & FIN:
            self._rcv_nxt += 1
            self._fin_received = True
            if self.state == ESTABLISHED:
                self.state = CLOSE_WAIT
            elif self.state == FIN_WAIT:
                self._maybe_finish_close(force_check=True)
        if self._recv_free_space() == 0:
            self._was_zero_window = True
        # Delayed ACKs (RFC 1122): acknowledge every second in-order data
        # segment, but never delay when the burst is over (no further
        # segments queued) or on FIN.
        self._segs_since_ack += 1
        if (
            self._segs_since_ack >= 2
            or len(self._rx_queue) == 0
            or segment.flags & FIN
        ):
            self._segs_since_ack = 0
            self._send_ack()
        self._wake_recv_waiters()
        self._notify()

    def _wake_recv_waiters(self) -> None:
        still_waiting: List[tuple["Event", int, Optional[int]]] = []
        for waiter, min_bytes, max_bytes in self._recv_waiters:
            ready = len(self._recv_buffer) >= min_bytes or self._fin_received
            if ready and not waiter.triggered:
                waiter.succeed()
            elif not waiter.triggered:
                still_waiting.append((waiter, min_bytes, max_bytes))
        self._recv_waiters = still_waiting

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _maybe_finish_close(self, force_check: bool = False) -> None:
        if self._fin_sent and self._fin_acked and self._fin_received:
            self._enter_closed(None)
        elif force_check and self._fin_sent and self._fin_received:
            # Our FIN crossed theirs; wait for our FIN's ACK via _process_ack.
            pass

    def _enter_closed(self, error: Optional[TcpError]) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        self._reset_error = error
        if not self.established.triggered:
            self.established.fail(
                error or TcpError(f"{self}: closed during handshake")
            ).defused()
        for waiter, _min, _max in self._recv_waiters:
            if not waiter.triggered:
                waiter.succeed()
        self._recv_waiters = []
        self._wake_send_waiters()
        self._kick_tx()
        self.stack._connection_closed(self)
        self._notify()

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------

    def _retransmit_loop(self):
        cpu = self.host.cpu
        base_rto = self.config.rto
        backoff = 0
        last_head_seq = -1
        while self.state != CLOSED:
            rto = base_rto * (2**backoff)
            yield self.env.timeout(base_rto / 2)
            if self.state == CLOSED:
                return
            now = self.env.now
            if self._inflight and now - self._inflight[0].sent_at >= rto:
                # Exponential backoff while the same head keeps timing out
                # (RFC 6298 style, capped), so repeated loss of the same
                # segment does not cause synchronized retransmission storms.
                head_seq = self._inflight[0].seq
                if head_seq == last_head_seq:
                    backoff = min(backoff + 1, 6)
                else:
                    backoff = 0
                    last_head_seq = head_seq
                # Go-back-N: resend everything outstanding.
                for entry in self._inflight:
                    yield cpu.execute(cpu.costs.per_segment)
                    entry.sent_at = self.env.now
                    self._transmit_entry(entry)
            elif (
                not self._inflight
                and self._send_queue
                and self._peer_window == 0
                and self.is_established
            ):
                backoff = 0
                last_head_seq = -1
                # Zero-window probe: send one byte past the window through
                # the normal reliable path.  It elicits an ACK carrying the
                # (possibly reopened) window; if the receiver had space it
                # is consumed like ordinary data.
                data = bytes(self._send_queue[:1])
                del self._send_queue[:1]
                entry = _InFlight(self._snd_nxt, data, 0, self.env.now)
                self._snd_nxt += 1
                self._inflight.append(entry)
                self._transmit_entry(entry)

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.host.name}:{self.local_port}->"
            f"{self.remote_host}:{self.remote_port} {self.state}>"
        )
