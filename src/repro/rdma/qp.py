"""Reliable-connection queue pairs.

"When communication is initiated, each side must create a queue pair of
send and receive queues for holding data transfer requests" (paper,
Section II-A).  This module implements the RC queue pair: the send-queue
pipeline (WQE fetch, gather DMA, MTU packetization), the receive path
(receive-WR matching, scatter DMA, completion generation), the
reliability machinery (PSNs, cumulative ACKs, go-back-N, RNR and retry
budgets) and the slot-accounting rules that make *selective signaling*
both a win and a foot-gun:

* an unsignaled send generates no CQE, but its send-queue slot is only
  recycled once a **later signaled** WR completes — post unsignaled
  forever and the queue wedges (the "ill-advised configuration" failure
  mode the paper warns about);
* completions are delivered strictly in post order, even when a READ
  overtakes a later SEND's ACK.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.errors import RdmaError
from repro.net.frame import Frame
from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.mr import (
    MemoryRegion,
    StalePermissionError,
    UnauthorizedAccessError,
)
from repro.rdma.transport import PacketType, RocePacket
from repro.rdma.verbs import Access, Opcode, QpState, WcStatus
from repro.rdma.wr import RecvWorkRequest, SendWorkRequest
from repro.sim import Store, Timeout
from repro.sim.copystats import COPYSTATS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import RdmaDevice
    from repro.sim import Environment, Event

__all__ = ["QueuePair", "QpCapabilities"]

_qp_numbers = itertools.count(100)
_read_ids = itertools.count(1)


@dataclass(frozen=True)
class QpCapabilities:
    """Sizing and retry parameters of a queue pair."""

    max_send_wr: int = 128
    max_recv_wr: int = 128
    max_inline: int = 256
    max_inflight_packets: int = 256
    #: Transport retry timer.  Generous by default: the simulated fabric
    #: is lossless unless a test injects drops, and deep responder queues
    #: under pipelined bulk traffic must not trigger spurious go-back-N.
    retry_timeout: float = 4e-3
    retry_count: int = 7
    rnr_retry: int = 7
    rnr_timer: float = 100e-6
    #: End-to-end credit flow control: the responder advertises its
    #: cumulative posted-receive count on ACKs/NAKs and the requester
    #: refuses to post two-sided SENDs past that window.  Off by default:
    #: raw-verbs users manage their own receive provisioning and the RNR
    #: machinery is the only safety net (as on a real NIC).
    flow_control: bool = False
    #: Credits the requester may assume before the first advertisement
    #: arrives (the peer's initially posted receive count).
    initial_credit: int = 0

    def __post_init__(self) -> None:
        if self.max_send_wr < 1 or self.max_recv_wr < 1:
            raise RdmaError("queue sizes must be >= 1")
        if self.max_inline < 0:
            raise RdmaError("max_inline must be >= 0")
        if self.retry_timeout <= 0 or self.rnr_timer <= 0:
            raise RdmaError("timers must be positive")
        if self.rnr_retry < 0:
            raise RdmaError("rnr_retry must be >= 0")
        if self.flow_control and self.initial_credit < 1:
            raise RdmaError("flow_control requires initial_credit >= 1")


class _PendingSend:
    """Send-queue bookkeeping for one posted WR."""

    __slots__ = ("wr", "last_psn", "done", "status", "byte_len", "read_id")

    def __init__(self, wr: SendWorkRequest):
        self.wr = wr
        self.last_psn: Optional[int] = None
        self.done = False
        self.status = WcStatus.SUCCESS
        self.byte_len = wr.length
        self.read_id = 0


class _ReadContext:
    """Requester-side reassembly state for one outstanding RDMA READ."""

    __slots__ = ("entry", "chunks_received", "chunk_count", "cursor")

    def __init__(self, entry: _PendingSend):
        self.entry = entry
        self.chunks_received = 0
        self.chunk_count = 0
        self.cursor = 0


class QueuePair:
    """One end of a reliable connection."""

    def __init__(
        self,
        device: "RdmaDevice",
        pd,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        caps: Optional[QpCapabilities] = None,
    ):
        if send_cq.env is not device.env or recv_cq.env is not device.env:
            raise RdmaError("CQs must belong to the same environment")
        if pd.device is not device:
            raise RdmaError("PD belongs to a different device")
        self.device = device
        self.env: "Environment" = device.env
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.caps = caps if caps is not None else QpCapabilities()
        self.qp_num = next(_qp_numbers)
        self.state = QpState.RESET
        self.remote_host: Optional[str] = None
        self.remote_qp: Optional[int] = None

        # --- send side ------------------------------------------------------
        self._pending: Deque[_PendingSend] = deque()
        self._sq_store: Store = Store(self.env)
        self._next_psn = 0
        #: (packet, sent at) of every unacknowledged packet, in PSN order.
        self._unacked: List[tuple[RocePacket, float]] = []
        self._space_event = None
        # The send pipeline's WR in progress: its entry and "qp.send"
        # span, the message's chunks (None for a READ request), the next
        # chunk's index, the first PSN and length, and a packet waiting
        # for in-flight room.
        self._sq_entry: Optional[_PendingSend] = None
        self._sq_span = None
        self._sq_chunks: Optional[list] = None
        self._sq_index = 0
        self._sq_first_psn = 0
        self._sq_length = 0
        self._sq_packet: Optional[RocePacket] = None
        self._retry_budget = self.caps.retry_count
        self._rnr_budget = self.caps.rnr_retry
        self._rnr_blocked_until = 0.0
        self._reads: Dict[int, _ReadContext] = {}
        # Requester-side credit state (meaningful when caps.flow_control):
        # cumulative SENDs posted vs. the peer's advertised cumulative
        # posted-receive count.
        self._sent_total = 0
        self._credit_limit = self.caps.initial_credit
        self._credit_watchers: List = []

        # --- receive side -----------------------------------------------------
        self._recv_queue: Deque[RecvWorkRequest] = deque()
        self._expected_psn = 0
        self._cur_recv: Optional[dict] = None
        self._cur_write: Optional[dict] = None
        #: (packet, reassembly context) of the packet whose payload DMA
        #: is in flight; the device's rx pipeline handles one at a time.
        self._landing: Optional[tuple] = None
        self._last_nak_sent = -1
        # Responder-side credit state: cumulative receives posted /
        # messages consumed / last advertisement sent.
        self._posted_recv_total = 0
        self._messages_received = 0
        self._last_advertised = self.caps.initial_credit

        self._error_watchers: List = []
        #: WcStatus value of the failure that errored this QP (None while
        #: healthy, or when the error came from the responder side).
        self.error_cause: Optional[str] = None
        device._register_qp(self)

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------

    def _set_state(self, new: QpState) -> None:
        """Transition the verbs state machine (audited)."""
        old, self.state = self.state, new
        audit = self.env.audit
        if audit is not None:
            audit.on_qp_transition(
                self.device.host.name, self.qp_num, old.value, new.value
            )

    def connect(self, remote_host: str, remote_qp_num: int) -> None:
        """Transition RESET -> RTS toward a peer QP.

        Real applications exchange QP numbers out of band (or via the
        connection manager, which calls this internally).
        """
        if self.state is not QpState.RESET:
            raise RdmaError(f"{self}: connect from state {self.state.value}")
        if remote_host == self.device.host.name:
            raise RdmaError(f"{self}: loopback QPs are not supported")
        self.remote_host = remote_host
        self.remote_qp = remote_qp_num
        # The CM handshake drives INIT/RTR internally; the simulator
        # collapses RESET->INIT->RTR->RTS into one audited transition.
        self._set_state(QpState.RTS)
        # The send pipeline starts where the generator loop it replaces
        # started: on the urgent lane.
        self.env._urgent.append(self._sq_next)
        self.env.process(self._retry_loop(), name=f"qp{self.qp_num}.retry")

    def add_error_watcher(self, watcher) -> None:
        """Invoke ``watcher(qp)`` when the QP transitions to ERROR."""
        self._error_watchers.append(watcher)

    def add_credit_watcher(self, watcher) -> None:
        """Invoke ``watcher(qp)`` when a credit update unblocks the send
        path (a sender that was out of credits may post again)."""
        self._credit_watchers.append(watcher)

    def destroy(self) -> None:
        """Tear the QP down: flush outstanding work, unregister from the
        device.

        Error watchers are detached first — destruction is a deliberate
        act by the owner, not a fault to react to.  After this the QP
        number is dead: stray packets for it are dropped by the device's
        rx loop, and a fresh QP (new number) must be provisioned to talk
        to the peer again.
        """
        self._error_watchers.clear()
        if self.state is not QpState.ERROR:
            self._set_state(QpState.ERROR)
            self._flush_queues()
        audit = self.env.audit
        if audit is not None:
            # Every posted receive WR must have completed (successfully
            # or flushed) by now; survivors were silently dropped.
            audit.on_qp_destroy(self.device.host.name, self.qp_num)
        self.device._unregister_qp(self)

    def _enter_error(self) -> None:
        if self.state is QpState.ERROR:
            return
        self._set_state(QpState.ERROR)
        self._flush_queues()
        for watcher in list(self._error_watchers):
            watcher(self)

    def _flush_queues(self) -> None:
        """Complete everything outstanding with flush errors."""
        if self._cur_recv is not None:
            # A message was mid-reassembly: close its trace span so the
            # failed delivery does not leak an open span.
            span = self._cur_recv.pop("span", None)
            if span is not None:
                span.end(aborted=True)
            # The WR was consumed from the receive queue but its flush
            # produces no CQE (the partial message is simply dropped);
            # settle the audit accounting without touching the CQ so an
            # audited run schedules identically to an unaudited one.
            audit = self.env.audit
            if audit is not None:
                audit.record(
                    "rdma", "recv-aborted-midstream",
                    self.device.host.name,
                    qp_num=self.qp_num,
                    wr_id=self._cur_recv["wr"].wr_id,
                )
                audit.on_recv_complete(self.qp_num, self._cur_recv["wr"].wr_id)
            self._cur_recv = None
        while self._pending:
            entry = self._pending.popleft()
            status = (
                entry.status
                if entry.status is not WcStatus.SUCCESS
                else WcStatus.WR_FLUSH_ERR
            )
            self.send_cq.push(
                WorkCompletion(
                    wr_id=entry.wr.wr_id,
                    status=status,
                    opcode=entry.wr.opcode,
                    byte_len=0,
                    qp_num=self.qp_num,
                    trace_ctx=entry.wr.trace_ctx,
                )
            )
        while self._recv_queue:
            wr = self._recv_queue.popleft()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    status=WcStatus.WR_FLUSH_ERR,
                    opcode=Opcode.RECV,
                    byte_len=0,
                    qp_num=self.qp_num,
                )
            )
        self._unacked.clear()
        self._reads.clear()
        self._grant_space()

    # ------------------------------------------------------------------
    # posting
    # ------------------------------------------------------------------

    @property
    def send_queue_free(self) -> int:
        """Free send-queue slots (driver view: freed by CQE generation)."""
        return self.caps.max_send_wr - len(self._pending)

    @property
    def recv_queue_depth(self) -> int:
        """Receive WRs currently posted."""
        return len(self._recv_queue)

    @property
    def send_credits_remaining(self) -> int:
        """Two-sided SENDs the peer's advertised window still allows.

        Without flow control the window is effectively unbounded (the RNR
        machinery is the only brake).
        """
        if not self.caps.flow_control:
            return 1 << 30
        return self._credit_limit - self._sent_total

    def post_send(self, wr: SendWorkRequest) -> None:
        """Post one WR to the send queue (non-blocking)."""
        self.post_send_batch([wr])

    def post_send_batch(self, wrs: List[SendWorkRequest]) -> None:
        """Post several WRs with one doorbell (the paper's batching)."""
        if self.state is not QpState.RTS:
            raise RdmaError(f"{self}: post_send in state {self.state.value}")
        if len(wrs) > self.send_queue_free:
            raise RdmaError(
                f"{self}: send queue full "
                f"({len(self._pending)}/{self.caps.max_send_wr} slots used; "
                "unsignaled slots recycle only when a later signaled WR "
                "completes)"
            )
        for wr in wrs:
            if wr.inline_data is not None and len(wr.inline_data) > self.caps.max_inline:
                raise RdmaError(
                    f"{self}: inline data {len(wr.inline_data)}B exceeds "
                    f"max_inline {self.caps.max_inline}B"
                )
            if wr.sge is not None:
                # Local protection check at post time (lkey validity).
                sge = wr.sge
                mr = sge.mr
                if mr.pd is not self.pd:
                    raise RdmaError(f"{self}: SGE memory region is in a foreign PD")
                if (
                    wr.opcode is not Opcode.RDMA_READ
                    and not mr.stable
                    and wr.snapshot is None
                    and not mr.invalidated
                    and 0 <= sge.offset
                    and sge.offset + sge.length <= mr.length
                ):
                    # The application owns this memory and may mutate it
                    # the moment we return; pin the gather source now (the
                    # send side's single owned copy).  Out-of-bounds SGEs
                    # are left alone so they still surface as a
                    # LOC_PROT_ERR completion at WQE fetch, not here.
                    wr.snapshot = mr.read_bytes(sge.offset, sge.length)
            if self.caps.flow_control and wr.opcode is Opcode.SEND:
                # Credit consumed at post time: every two-sided SEND will
                # occupy exactly one peer receive WR.
                self._sent_total += 1
                audit = self.env.audit
                if audit is not None:
                    audit.on_send_credit(
                        self.device.host.name,
                        self.qp_num,
                        self._sent_total,
                        self._credit_limit,
                    )
            entry = _PendingSend(wr)
            self._pending.append(entry)
            self._sq_store.post(entry)

    def post_recv(self, wr: RecvWorkRequest) -> None:
        """Post one receive WR (non-blocking)."""
        self.post_recv_batch([wr])

    def post_recv_batch(self, wrs: List[RecvWorkRequest]) -> None:
        """Post several receive WRs with one doorbell."""
        if self.state in (QpState.ERROR,):
            raise RdmaError(f"{self}: post_recv in state {self.state.value}")
        if len(self._recv_queue) + len(wrs) > self.caps.max_recv_wr:
            raise RdmaError(
                f"{self}: receive queue full ({len(self._recv_queue)}"
                f"/{self.caps.max_recv_wr})"
            )
        audit = self.env.audit
        for wr in wrs:
            if wr.sge.mr.pd is not self.pd:
                raise RdmaError(f"{self}: recv SGE memory region is in a foreign PD")
            wr.sge.mr.check_local_write(wr.sge.offset, wr.sge.length)
            self._recv_queue.append(wr)
            self._posted_recv_total += 1
            if audit is not None:
                audit.on_post_recv(self.qp_num, wr.wr_id)
        if (
            self.caps.flow_control
            and self.state is QpState.RTS
            and self._messages_received >= self._last_advertised
        ):
            # The peer has (nearly) consumed the advertised window and no
            # data-path ACK is due to carry the refresh — send an
            # unsolicited credit update (a duplicate cumulative ACK) so a
            # credit-stalled sender cannot deadlock.  The guard keeps this
            # off any schedule where the window is never approached.
            self._send_control(PacketType.ACK, self._expected_psn - 1)

    # ------------------------------------------------------------------
    # send-queue pipeline
    # ------------------------------------------------------------------

    # A callback machine, one WR at a time: wait for a WQE, charge its
    # fetch, gather the payload (set-up charge, then DMA) unless it is
    # inline, then per packet wait for in-flight room and charge the
    # packet.  It arms the entries the generator loop it replaces waited
    # on, in the same order and at the same statements.  The pipeline is
    # the only subscriber of its queue hand-over and of its three charges,
    # so those are bare entries (repro.sim.core); the gather DMA and the
    # wait for room stay events.  Once the QP has left RTS it arms nothing
    # more.

    def _sq_next(self, _event=None) -> None:
        """Wait for the next posted WR."""
        if self.state is QpState.RTS:
            self._sq_store.get_call(self._sq_fetch)

    def _sq_fetch(self, entry: _PendingSend) -> None:
        """Charge the WQE fetch."""
        if self.state is not QpState.RTS:
            return
        wr = entry.wr
        env = self.env
        tracer = env.tracer
        span = None
        if tracer is not None and tracer.enabled and wr.trace_ctx is not None:
            span = tracer.start_span(
                "qp.send",
                layer="qp",
                parent=wr.trace_ctx,
                track=self.device.host.name,
                wr_id=wr.wr_id,
                opcode=wr.opcode.value,
                nbytes=wr.length,
            )
        self._sq_span = span
        env._eid += 1
        done = env._now + self.device.attrs.wqe_fetch
        _heappush(env._far, (done, 1, env._eid, None, self._sq_fetched, entry))

    def _sq_fetched(self, entry: _PendingSend) -> None:
        """The WQE is on the RNIC: check it, then gather or packetize."""
        wr = entry.wr
        try:
            data = self._gather_payload_check(wr)
        except RdmaError:
            entry.status = WcStatus.LOC_PROT_ERR
            entry.done = True
            if self._sq_span is not None:
                self._sq_span.end(error=WcStatus.LOC_PROT_ERR.value)
            self._enter_error()
            return
        if wr.opcode is Opcode.RDMA_READ:
            self._issue_read(entry)
        elif data is None:
            # Gather DMA from host memory (zero-copy: the RNIC reads the
            # registered application buffer directly).  The set-up round
            # trip is what inline sends avoid.
            env = self.env
            env._eid += 1
            done = env._now + self.device.attrs.gather_setup
            _heappush(env._far, (done, 1, env._eid, None, self._sq_gather, entry))
        else:
            self._emit_message(entry, data)

    def _sq_gather(self, entry: _PendingSend) -> None:
        """Start the gather DMA."""
        wr = entry.wr
        assert wr.sge is not None
        self._sq_entry = entry
        self.device.host.nic.dma_transfer(
            wr.sge.length, trace_ctx=wr.trace_ctx
        ).callbacks.append(self._sq_gathered)

    def _sq_gathered(self, _event) -> None:
        """The payload is on the RNIC: packetize it."""
        entry = self._sq_entry
        wr = entry.wr
        mr = wr.sge.mr
        if wr.snapshot is not None:
            # Non-stable application memory: the owned copy was pinned at
            # post time, before the app could touch the buffer again, so
            # in-flight and retransmitted packets stay correct.
            data = wr.snapshot
        elif mr.stable:
            # The owner keeps these bytes unchanged until the WR's
            # completion (pool/staging memory recycled on CQE), so packets
            # may carry views of the registered buffer — the literal
            # zero-copy send of the paper.
            data = mr.read_view(wr.sge.offset, wr.sge.length)
        else:
            # Defensive fallback (post-time snapshot is skipped only for
            # SGEs that fail the protection check above).
            data = mr.read_bytes(wr.sge.offset, wr.sge.length)
        self._emit_message(entry, data)

    def _gather_payload_check(self, wr: SendWorkRequest) -> Optional[bytes]:
        """Inline payload, or None after validating the SGE for gather."""
        if wr.inline_data is not None:
            return wr.inline_data
        assert wr.sge is not None
        wr.sge.mr.check_local_read(wr.sge.offset, wr.sge.length)
        return None

    def _emit_message(self, entry: _PendingSend, data: bytes) -> None:
        """Packetize one SEND/WRITE message and transmit it."""
        mtu = self.device.attrs.mtu
        size = len(data)
        if size <= mtu:
            chunks = [data] if size else [b""]
        else:
            # Chunk through a memoryview: slicing a view never copies, so
            # packetization is copy-free for both owned snapshots and
            # stable-buffer views.
            view = data if isinstance(data, memoryview) else memoryview(data)
            chunks = [view[i : i + mtu] for i in range(0, size, mtu)]
        # Reserve the whole PSN range up front so a cumulative ACK of a
        # partial prefix can never mark the message complete early.
        first_psn = self._next_psn
        self._next_psn += len(chunks)
        entry.last_psn = first_psn + len(chunks) - 1
        self._sq_entry = entry
        self._sq_chunks = chunks
        self._sq_index = 0
        self._sq_first_psn = first_psn
        self._sq_length = size
        self._sq_packetize()

    def _sq_packetize(self) -> None:
        """Build the message's next packet and wait for room to send it."""
        wr = self._sq_entry.wr
        chunks = self._sq_chunks
        index = self._sq_index
        first = index == 0
        last = index == len(chunks) - 1
        is_write = wr.opcode is Opcode.RDMA_WRITE
        if first and last:
            kind = PacketType.WRITE_ONLY if is_write else PacketType.SEND_ONLY
        elif first:
            kind = PacketType.WRITE_FIRST if is_write else PacketType.SEND_FIRST
        elif last:
            kind = PacketType.WRITE_LAST if is_write else PacketType.SEND_LAST
        else:
            kind = PacketType.WRITE_MIDDLE if is_write else PacketType.SEND_MIDDLE
        self._sq_await_room(
            RocePacket(
                kind=kind,
                src_host=self.device.host.name,
                src_qp=self.qp_num,
                dst_host=self.remote_host,  # type: ignore[arg-type]
                dst_qp=self.remote_qp,  # type: ignore[arg-type]
                psn=self._sq_first_psn + index,
                payload=chunks[index],
                total_length=self._sq_length if first else 0,
                rkey=wr.remote.rkey if (is_write and first) else None,
                remote_offset=wr.remote.offset if (is_write and first) else 0,
                trace_ctx=wr.trace_ctx,
            )
        )

    def _issue_read(self, entry: _PendingSend) -> None:
        """Send a READ request and set up response reassembly."""
        wr = entry.wr
        assert wr.sge is not None and wr.remote is not None
        read_id = next(_read_ids)
        entry.read_id = read_id
        self._reads[read_id] = _ReadContext(entry)
        packet = RocePacket(
            kind=PacketType.READ_REQUEST,
            src_host=self.device.host.name,
            src_qp=self.qp_num,
            dst_host=self.remote_host,  # type: ignore[arg-type]
            dst_qp=self.remote_qp,  # type: ignore[arg-type]
            psn=self._next_psn,
            total_length=wr.sge.length,
            rkey=wr.remote.rkey,
            remote_offset=wr.remote.offset,
            read_id=read_id,
            trace_ctx=wr.trace_ctx,
        )
        self._next_psn += 1
        entry.last_psn = packet.psn
        # A one-packet message.
        self._sq_chunks = None
        self._sq_await_room(packet)

    def _sq_await_room(self, packet: RocePacket) -> None:
        """Charge ``packet`` once fewer than the in-flight limit are unacked."""
        if len(self._unacked) >= self.caps.max_inflight_packets:
            self._sq_packet = packet
            space = self._space_event = self.env.event()
            space.callbacks.append(self._sq_room_granted)
            return
        if self.state is not QpState.RTS:
            self._sq_message_done()
            return
        env = self.env
        env._eid += 1
        done = env._now + self.device.attrs.packet_process
        _heappush(env._far, (done, 1, env._eid, None, self._sq_send, packet))

    def _sq_room_granted(self, _event) -> None:
        self._space_event = None
        packet, self._sq_packet = self._sq_packet, None
        self._sq_await_room(packet)

    def _sq_send(self, packet: RocePacket) -> None:
        """Put the charged packet on the wire; go on with the next one."""
        self._unacked.append((packet, self.env._now))
        self._transmit(packet)
        chunks = self._sq_chunks
        if chunks is not None:
            index = self._sq_index + 1
            if index < len(chunks):
                self._sq_index = index
                self._sq_packetize()
                return
        self._sq_message_done()

    def _sq_message_done(self) -> None:
        """The WR is out (or the QP left RTS under it): take the next."""
        self._sq_entry = None
        self._sq_chunks = None
        span = self._sq_span
        if span is not None:
            self._sq_span = None
            span.end()
        self._sq_next()

    def _grant_space(self) -> None:
        if self._space_event is not None and not self._space_event.triggered:
            self._space_event.succeed()

    def _transmit(self, packet: RocePacket) -> None:
        self.device.host.nic.transmit(
            Frame(
                src=self.device.host.name,
                dst=packet.dst_host,
                protocol=self.device.PROTOCOL,
                wire_bytes=packet.wire_bytes,
                payload=packet,
                trace_ctx=packet.trace_ctx,
            )
        )

    # ------------------------------------------------------------------
    # reliability: ACK/NAK processing and retries
    # ------------------------------------------------------------------

    def _process_ack(self, psn: int) -> None:
        """Cumulative ACK: everything with PSN <= psn is delivered."""
        # _unacked is in PSN order, so what the ACK covers is a prefix.
        unacked = self._unacked
        covered = 0
        for packet, _sent in unacked:
            if packet.psn > psn:
                break
            covered += 1
        if covered:
            del unacked[:covered]
            self._retry_budget = self.caps.retry_count
            self._rnr_budget = self.caps.rnr_retry
            self._grant_space()
        for entry in self._pending:
            if (
                entry.wr.opcode is not Opcode.RDMA_READ
                and entry.last_psn is not None
                and entry.last_psn <= psn
            ):
                entry.done = True
        self._advance_completions()

    def _advance_completions(self) -> None:
        """Retire pending WRs in post order, honouring signaling rules."""
        while self._pending:
            # Find the first signaled entry; everything before it can only
            # be freed when that signaled entry completes (the driver
            # learns about slots exclusively through CQEs).
            first_signaled = None
            for i, entry in enumerate(self._pending):
                if entry.wr.signaled:
                    first_signaled = i
                    break
            if first_signaled is None:
                return
            prefix = list(itertools.islice(self._pending, first_signaled + 1))
            if not all(e.done for e in prefix):
                return
            for e in prefix:
                self._pending.popleft()
            signaled_entry = prefix[-1]
            self.send_cq.push(
                WorkCompletion(
                    wr_id=signaled_entry.wr.wr_id,
                    status=signaled_entry.status,
                    opcode=signaled_entry.wr.opcode,
                    byte_len=signaled_entry.byte_len,
                    qp_num=self.qp_num,
                    trace_ctx=signaled_entry.wr.trace_ctx,
                )
            )

    def _retransmit_from(self, psn: int) -> None:
        for packet, _t in self._unacked:
            if packet.psn >= psn:
                self._transmit(packet)
        self._unacked = [
            (p, self.env.now if p.psn >= psn else t) for (p, t) in self._unacked
        ]

    def _retry_loop(self):
        caps = self.caps
        backoff = 0
        last_head_psn = -1
        while self.state is QpState.RTS:
            yield self.env.timeout(caps.retry_timeout / 2)
            if self.state is not QpState.RTS or not self._unacked:
                backoff = 0
                last_head_psn = -1
                continue
            if self.env.now < self._rnr_blocked_until:
                continue
            oldest = self._unacked[0][1]
            timeout = caps.retry_timeout * (2**backoff)
            if self.env.now - oldest >= timeout:
                self._retry_budget -= 1
                if self._retry_budget < 0:
                    self._fail_head(WcStatus.RETRY_EXC_ERR)
                    return
                # Exponential backoff while the same head keeps timing
                # out, so transient responder-side queueing cannot spiral
                # into a self-sustaining retransmission avalanche.
                head = self._unacked[0][0]
                if head.psn == last_head_psn:
                    backoff = min(backoff + 1, 6)
                else:
                    backoff = 0
                    last_head_psn = head.psn
                # Re-issue any incomplete READ from scratch (idempotent).
                if head.kind == PacketType.READ_REQUEST:
                    ctx = self._reads.get(head.read_id)
                    if ctx is not None:
                        ctx.chunks_received = 0
                        ctx.cursor = 0
                self._retransmit_from(head.psn)

    def _fail_head(self, status: WcStatus) -> None:
        """The head-of-line WR failed fatally: error the QP."""
        self.error_cause = status.value
        if self._unacked:
            head_psn = self._unacked[0][0].psn
            for entry in self._pending:
                if entry.last_psn is not None and entry.last_psn >= head_psn:
                    entry.status = status
                    break
        self._enter_error()

    def _deny_remote_access(
        self, packet: RocePacket, error: RdmaError, write: bool
    ) -> None:
        """Refuse a one-sided access: classify, count, audit, NAK, error.

        Classification drives the counters and audit rules: a revoked
        grant epoch or a retired (deregistered) rkey is a *stale* access
        — the deterministic permission fence working as designed — while
        an access from a peer outside the grant table is *unauthorized*
        (a forged one-sided write).  Plain protection faults (bounds,
        access bits, foreign PD) keep their legacy record-only handling.
        """
        if isinstance(error, UnauthorizedAccessError):
            reason = "unauthorized"
        elif isinstance(error, StalePermissionError):
            reason = "stale-epoch"
        elif self.device.is_retired_rkey(packet.rkey):
            reason = "stale-rkey"
        else:
            reason = "protection-fault"
        if reason in ("stale-epoch", "stale-rkey"):
            self.device.host.nic.stale_access_denied.increment()
        audit = self.env.audit
        if audit is not None:
            audit.on_remote_access_denied(
                host=self.device.host.name,
                qp_num=self.qp_num,
                src_host=packet.src_host,
                rkey=packet.rkey,
                write=write,
                reason=reason,
            )
        self._send_control(PacketType.NAK_ACCESS, packet.psn)
        self._enter_error()

    # ------------------------------------------------------------------
    # inbound packet processing (called from the device's rx pipeline)
    # ------------------------------------------------------------------

    def handle_packet(self, packet: RocePacket) -> Optional[Event]:
        """Process one arriving packet.

        Returns None when the packet is done with, or the DMA that lands
        its payload: the QP has subscribed to it to finish the packet, and
        the device's rx pipeline waits for it before taking the next one.
        """
        kind = packet.kind
        if kind == PacketType.ACK:
            if packet.credit >= 0 and self.caps.flow_control:
                self._update_credit(packet.credit)
            self._process_ack(packet.psn)
            return None
        if kind == PacketType.NAK_SEQUENCE:
            if packet.credit >= 0 and self.caps.flow_control:
                self._update_credit(packet.credit)
            self._retransmit_from(packet.psn)
            return None
        if kind == PacketType.NAK_RNR:
            if packet.credit >= 0 and self.caps.flow_control:
                self._update_credit(packet.credit)
            self._handle_rnr(packet)
            return None
        if kind == PacketType.NAK_ACCESS:
            self._fail_head(WcStatus.REM_ACCESS_ERR)
            return None
        if kind == PacketType.READ_RESPONSE:
            return self._handle_read_response(packet)
        if self.state is QpState.ERROR:
            return None
        # Sequenced request packets.
        if packet.psn < self._expected_psn:
            if kind == PacketType.READ_REQUEST:
                # A retransmitted READ (lost or fenced response train):
                # re-validate and replay the stream.  Blind-ACKing the
                # duplicate would clear the requester's unacked queue and
                # orphan its READ WR forever — and a revocation between
                # the original and the retry must get the chance to deny
                # the re-presented rkey outright.
                self._handle_read_request(packet)
                return None
            self._send_control(PacketType.ACK, self._expected_psn - 1)
            return None
        if packet.psn > self._expected_psn:
            if self._last_nak_sent != self._expected_psn:
                self._last_nak_sent = self._expected_psn
                self._send_control(PacketType.NAK_SEQUENCE, self._expected_psn)
            return None
        self._last_nak_sent = -1
        if kind in (
            PacketType.SEND_FIRST,
            PacketType.SEND_MIDDLE,
            PacketType.SEND_LAST,
            PacketType.SEND_ONLY,
        ):
            return self._handle_send_packet(packet)
        if kind in (
            PacketType.WRITE_FIRST,
            PacketType.WRITE_MIDDLE,
            PacketType.WRITE_LAST,
            PacketType.WRITE_ONLY,
        ):
            return self._handle_write_packet(packet)
        if kind == PacketType.READ_REQUEST:
            self._handle_read_request(packet)
            return None
        raise RdmaError(f"unknown packet kind {kind!r}")  # pragma: no cover

    # -- two-sided receive path ---------------------------------------------

    def _handle_send_packet(self, packet: RocePacket) -> Optional[Event]:
        nic = self.device.host.nic
        if packet.kind in PacketType.STARTS_MESSAGE:
            if not self._recv_queue:
                # Receiver not ready: NAK without advancing the PSN.
                nic.rnr_naks.increment()
                audit = self.env.audit
                if audit is not None:
                    audit.on_rnr_nak(
                        self.device.host.name, self.qp_num, packet.psn
                    )
                self._send_control(
                    PacketType.NAK_RNR,
                    packet.psn,
                    rnr_timer=self.caps.rnr_timer,
                )
                return None
            wr = self._recv_queue[0]
            if packet.total_length > (wr.sge.length or 0):
                self._recv_queue.popleft()
                self.recv_cq.push(
                    WorkCompletion(
                        wr_id=wr.wr_id,
                        status=WcStatus.LOC_LEN_ERR,
                        opcode=Opcode.RECV,
                        byte_len=packet.total_length,
                        qp_num=self.qp_num,
                    )
                )
                self._send_control(PacketType.NAK_ACCESS, packet.psn)
                self._enter_error()
                return None
            self._recv_queue.popleft()
            self._cur_recv = {"wr": wr, "cursor": wr.sge.offset, "received": 0}
            if packet.trace_ctx is not None:
                tracer = self.env.tracer
                if tracer is not None and tracer.enabled:
                    self._cur_recv["span"] = tracer.start_span(
                        "qp.recv",
                        layer="qp",
                        parent=packet.trace_ctx,
                        track=self.device.host.name,
                        wr_id=wr.wr_id,
                        nbytes=packet.total_length,
                    )
        ctx = self._cur_recv
        if ctx is None:
            # Middle/last without a first: protocol violation.
            self._send_control(PacketType.NAK_ACCESS, packet.psn)
            self._enter_error()
            return None
        if packet.payload:
            # Scatter DMA into the posted receive buffer.
            landing = nic.dma_transfer(
                len(packet.payload), trace_ctx=packet.trace_ctx
            )
            self._landing = (packet, ctx)
            landing.callbacks.append(self._send_landed)
            return landing
        self._send_accepted(packet, ctx)
        return None

    def _send_landed(self, _event: Event) -> None:
        packet, ctx = self._landing
        self._landing = None
        wr = ctx["wr"]
        wr.sge.mr.write_bytes(ctx["cursor"], packet.payload)
        ctx["cursor"] += len(packet.payload)
        ctx["received"] += len(packet.payload)
        self._send_accepted(packet, ctx)

    def _send_accepted(self, packet: RocePacket, ctx: dict) -> None:
        self._expected_psn = packet.psn + 1
        if packet.kind in PacketType.ENDS_MESSAGE:
            self._messages_received += 1
            wr = ctx["wr"]
            span = ctx.pop("span", None)
            if span is not None:
                span.end()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    status=WcStatus.SUCCESS,
                    opcode=Opcode.RECV,
                    byte_len=ctx["received"],
                    qp_num=self.qp_num,
                    trace_ctx=packet.trace_ctx,
                )
            )
            self._cur_recv = None
            self._send_control(
                PacketType.ACK, packet.psn, trace_ctx=packet.trace_ctx
            )

    # -- one-sided write path ----------------------------------------------

    def _handle_write_packet(self, packet: RocePacket) -> Optional[Event]:
        nic = self.device.host.nic
        if packet.kind in PacketType.STARTS_MESSAGE:
            mr = self.device.find_mr(packet.rkey)
            try:
                if mr is None:
                    raise RdmaError("unknown rkey")
                if mr.pd is not self.pd:
                    raise RdmaError("rkey from a foreign protection domain")
                mr.check_remote(
                    packet.rkey,
                    packet.remote_offset,
                    packet.total_length,
                    write=True,
                    peer=packet.src_host,
                )
            except RdmaError as error:
                self._deny_remote_access(packet, error, write=True)
                return None
            self._cur_write = {
                "mr": mr,
                "cursor": packet.remote_offset,
                "start": packet.remote_offset,
                # Captured permission epoch: every later chunk of this
                # message re-verifies it, so a revocation between chunks
                # fences the in-flight WR mid-message.
                "epoch": mr.perm_epoch,
            }
        ctx = self._cur_write
        if ctx is None:
            self._send_control(PacketType.NAK_ACCESS, packet.psn)
            self._enter_error()
            return None
        if packet.kind not in PacketType.STARTS_MESSAGE:
            try:
                ctx["mr"].check_epoch(ctx["epoch"])
            except RdmaError as error:
                self._cur_write = None
                self._deny_remote_access(packet, error, write=True)
                return None
        if packet.payload:
            landing = nic.dma_transfer(
                len(packet.payload), trace_ctx=packet.trace_ctx
            )
            self._landing = (packet, ctx)
            landing.callbacks.append(self._write_landed)
            return landing
        self._write_accepted(packet, ctx)
        return None

    def _write_landed(self, _event: Event) -> None:
        packet, ctx = self._landing
        self._landing = None
        ctx["mr"].write_bytes(ctx["cursor"], packet.payload)
        ctx["cursor"] += len(packet.payload)
        self._write_accepted(packet, ctx)

    def _write_accepted(self, packet: RocePacket, ctx: dict) -> None:
        self._expected_psn = packet.psn + 1
        if packet.kind in PacketType.ENDS_MESSAGE:
            self._cur_write = None
            audit = self.env.audit
            if audit is not None:
                audit.on_remote_write_applied(
                    host=self.device.host.name,
                    src_host=packet.src_host,
                    rkey=packet.rkey if packet.rkey is not None else ctx["mr"].rkey,
                    offset=ctx["start"],
                    length=ctx["cursor"] - ctx["start"],
                )
            self._send_control(PacketType.ACK, packet.psn)
            # No CQE, no recv WR: the remote CPU stays unaware (paper
            # Section II-A) — that is both the perf win and the security
            # concern of one-sided operations.

    # -- one-sided read path --------------------------------------------------

    def _handle_read_request(self, packet: RocePacket) -> None:
        mr = self.device.find_mr(packet.rkey)
        try:
            if mr is None:
                raise RdmaError("unknown rkey")
            if mr.pd is not self.pd:
                raise RdmaError("rkey from a foreign protection domain")
            mr.check_remote(
                packet.rkey,
                packet.remote_offset,
                packet.total_length,
                write=False,
                peer=packet.src_host,
            )
        except RdmaError as error:
            self._deny_remote_access(packet, error, write=False)
            return
        # max(): a replayed (duplicate) request must not regress the
        # expected sequence past packets already accepted after it.
        self._expected_psn = max(self._expected_psn, packet.psn + 1)
        # Stream the response chunks from a dedicated process so a large
        # read does not stall the device's receive pipeline.
        self.env.process(
            self._stream_read_response(packet, mr),
            name=f"qp{self.qp_num}.read_resp",
        )

    def _stream_read_response(self, request: RocePacket, mr: MemoryRegion):
        attrs = self.device.attrs
        nic = self.device.host.nic
        mtu = attrs.mtu
        length = request.total_length
        chunk_count = max(1, -(-length // mtu))
        epoch = mr.perm_epoch
        for index in range(chunk_count):
            offset = index * mtu
            size = min(mtu, length - offset)
            yield Timeout(self.env, attrs.packet_process)
            try:
                # A revocation (or deregistration) mid-read fences the
                # remaining chunks: the requester's retry re-presents the
                # rkey and is then denied outright.
                mr.check_epoch(epoch)
            except RdmaError:
                nic.stale_access_denied.increment()
                audit = self.env.audit
                if audit is not None:
                    audit.on_remote_access_denied(
                        host=self.device.host.name,
                        qp_num=self.qp_num,
                        src_host=request.src_host,
                        rkey=request.rkey,
                        write=False,
                        reason="stale-epoch",
                    )
                return
            yield nic.dma_transfer(size)
            # Snapshot at DMA time: a concurrent writer produces torn data,
            # the read/write race of the paper's Section III-A.
            data = mr.read_bytes(request.remote_offset + offset, size)
            self._transmit(
                RocePacket(
                    kind=PacketType.READ_RESPONSE,
                    src_host=self.device.host.name,
                    src_qp=self.qp_num,
                    dst_host=request.src_host,
                    dst_qp=request.src_qp,
                    payload=data,
                    read_id=request.read_id,
                    chunk_index=index,
                    chunk_count=chunk_count,
                    trace_ctx=request.trace_ctx,
                )
            )

    def _handle_read_response(self, packet: RocePacket) -> Optional[Event]:
        ctx = self._reads.get(packet.read_id)
        if ctx is None:
            return None
        assert ctx.entry.wr.sge is not None
        if packet.chunk_index != ctx.chunks_received:
            # Out-of-order chunk (lost predecessor): drop; the retry timer
            # will re-issue the whole idempotent READ.
            return None
        if packet.payload:
            landing = self.device.host.nic.dma_transfer(
                len(packet.payload), trace_ctx=packet.trace_ctx
            )
            self._landing = (packet, ctx)
            landing.callbacks.append(self._read_landed)
            return landing
        self._read_chunk_accepted(packet, ctx)
        return None

    def _read_landed(self, _event: Event) -> None:
        packet, ctx = self._landing
        self._landing = None
        sge = ctx.entry.wr.sge
        sge.mr.write_bytes(sge.offset + ctx.cursor, packet.payload)
        ctx.cursor += len(packet.payload)
        self._read_chunk_accepted(packet, ctx)

    def _read_chunk_accepted(self, packet: RocePacket, ctx: _ReadContext) -> None:
        ctx.chunks_received += 1
        ctx.chunk_count = packet.chunk_count
        if ctx.chunks_received == packet.chunk_count:
            del self._reads[packet.read_id]
            entry = ctx.entry
            entry.done = True
            # The response train implicitly acknowledges the request PSN.
            self._unacked = [
                (p, t) for (p, t) in self._unacked if p.psn != entry.last_psn
            ]
            self._retry_budget = self.caps.retry_count
            self._grant_space()
            self._advance_completions()

    # -- RNR handling ------------------------------------------------------

    def _handle_rnr(self, packet: RocePacket) -> None:
        nic = self.device.host.nic
        audit = self.env.audit
        self._rnr_budget -= 1
        if self._rnr_budget < 0:
            nic.rnr_exhausted.increment()
            if audit is not None:
                audit.on_rnr_exhausted(self.device.host.name, self.qp_num)
            self._fail_head(WcStatus.RNR_RETRY_EXC_ERR)
            return
        nic.rnr_retries.increment()
        if audit is not None:
            audit.on_rnr_retry(
                self.device.host.name,
                self.qp_num,
                self.caps.rnr_retry - self._rnr_budget,
                self.caps.rnr_retry,
            )
        self._rnr_blocked_until = self.env.now + packet.rnr_timer

        def wait_and_retry():
            # Back off in a separate process so the device's receive
            # pipeline is not stalled for the RNR timer.
            yield self.env.timeout(packet.rnr_timer)
            if self.state is QpState.RTS:
                self._retransmit_from(packet.psn)

        self.env.process(wait_and_retry(), name=f"qp{self.qp_num}.rnr_wait")

    # -- credit flow control ------------------------------------------------

    def _update_credit(self, limit: int) -> None:
        """Requester-side: absorb an advertised cumulative receive count."""
        audit = self.env.audit
        if audit is not None:
            # Audited before the monotonic clamp so a regressing peer
            # advertisement is caught, not silently ignored.
            audit.on_credit_update(self.qp_num, limit, self._credit_limit)
        if limit <= self._credit_limit:
            # Cumulative counts only grow; stale/duplicate ACKs carry
            # older values.
            return
        was_blocked = self._sent_total >= self._credit_limit
        self._credit_limit = limit
        if was_blocked and self._sent_total < limit:
            for watcher in list(self._credit_watchers):
                watcher(self)

    # -- control packets ----------------------------------------------------

    def _send_control(
        self,
        kind: str,
        psn: int,
        rnr_timer: float = 0.0,
        trace_ctx=None,
    ) -> None:
        credit = -1
        if self.caps.flow_control and kind in (
            PacketType.ACK,
            PacketType.NAK_RNR,
            PacketType.NAK_SEQUENCE,
        ):
            credit = self._posted_recv_total
            self._last_advertised = credit
            audit = self.env.audit
            if audit is not None:
                audit.on_credit_advertised(self.qp_num, credit)
        self._transmit(
            RocePacket(
                kind=kind,
                src_host=self.device.host.name,
                src_qp=self.qp_num,
                dst_host=self.remote_host,  # type: ignore[arg-type]
                dst_qp=self.remote_qp,  # type: ignore[arg-type]
                psn=psn,
                rnr_timer=rnr_timer,
                credit=credit,
                trace_ctx=trace_ctx,
            )
        )

    def __repr__(self) -> str:
        return (
            f"<QueuePair qp{self.qp_num} on {self.device.host.name} "
            f"{self.state.value}>"
        )
