"""The PBFT replica.

Implements the three-phase agreement protocol of Castro & Liskov's PBFT —
the algorithm Reptor runs — on top of the Reptor communication stack:

* **pre-prepare / prepare / commit** with batching and watermarks;
* **execution** in strict total order with client reply deduplication;
* **checkpoints** every ``checkpoint_interval`` sequence numbers, with log
  truncation at 2f+1 matching votes;
* **view changes** on request timeout, carrying prepared certificates so
  ordered-but-unexecuted requests survive a leader failure;
* **handler pipelines** (Section II-C): protocol messages are sharded by
  sequence number onto parallel handler processes that contend for the
  host's cores, while execution remains totally ordered.

Two seams are chosen from :class:`~repro.bft.config.BftConfig` alone:

* **Pipeline count** (COP, PAPER.md §1.5).  With ``group_count > 1`` the
  replica hosts that many *consensus groups*, each an independent PBFT
  ordering pipeline over its own shard of the sequence space, all
  multiplexed over the replica's one set of Reptor connections.  The
  replica itself is group 0's pipeline *and* the coordinator: it owns
  the :class:`~repro.bft.cop.merge.MergeStage`, one process that executes
  the merged total order strictly serially (so application state, reply
  order and checkpoint digests are pure functions of the merged prefix),
  the merge-stall fill loop, coordinated state transfer and the frame
  mux.  Every replica-to-replica frame then carries one leading tag byte
  ``0x80 | group`` (message type ids are small, never >= 0x80); client
  traffic stays untagged, since the partitioner is a pure function of
  the request id and each replica derives the target group locally.
  Group ``g`` in view ``v`` is led by ``all_ids[(v + g) % n]``, so the
  group leaders spread across hosts.  With ``group_count == 1`` none of
  this exists: no coordinator, no tag, no partitioner, no extra process.
* **Proposal transport.**  With ``onesided`` the replica builds a
  :class:`~repro.bft.onesided.OneSidedPath` that carries pre-prepares,
  prepares and commits as one-sided RDMA WRITEs into the peers' memory.

Byzantine behaviours (:mod:`repro.bft.faults`) arm three hooks the
honest code consults — ``outbound_tamper``, ``reply_mute`` and
``new_view_intercept`` — all ``None`` on an honest pipeline.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.bft.config import BftConfig
from repro.bft.cop.batcher import AdaptiveBatcher
from repro.bft.cop.merge import MergeStage
from repro.bft.cop.partition import make_partitioner
from repro.bft.log import MessageLog
from repro.bft.messages import (
    Busy,
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StateTransferReply,
    StateTransferRequest,
    ViewChange,
    decode,
    encode,
)
from repro.bft.onesided import OneSidedPath
from repro.bft.statemachine import StateMachine
from repro.crypto import digest as sha256
from repro.errors import BftError
from repro.reptor import ReptorConnection, ReptorEndpoint
from repro.audit import get_audit
from repro.sim import Drive, Store, detach
from repro.sim.monitor import Counter, TimeSeries
from repro.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment

__all__ = ["Replica", "batch_digest"]

#: High bit of the first frame byte marks a group-tagged frame; the low
#: seven bits carry the group id.
GROUP_TAG = 0x80


def batch_digest(batch: Tuple[Request, ...]) -> bytes:
    """Deterministic digest of an ordered request batch."""
    blob = bytearray()
    for request in batch:
        blob.extend(encode(request))
    return sha256(bytes(blob))


class GroupConnection:
    """A per-group view of one shared replica-to-replica connection.

    Prepends the group tag byte on every send so the receiving replica
    can demultiplex the frame to the right ordering pipeline.  Reads
    never happen here — the owning replica runs one receive loop per
    underlying connection.
    """

    __slots__ = ("_inner", "_tag")

    def __init__(self, inner: ReptorConnection, group: int):
        self._inner = inner
        self._tag = bytes([GROUP_TAG | group])

    @property
    def closed(self) -> bool:
        return self._inner.closed

    @property
    def peer_name(self):
        return self._inner.peer_name

    @property
    def _above_high(self) -> bool:
        # Outbox watermark pressure of the shared connection: feeds the
        # adaptive batcher of every pipeline multiplexed over it.
        return getattr(self._inner, "_above_high", False)

    def send(self, payload: bytes, trace_ctx=None):
        return self._inner.send(self._tag + payload, trace_ctx=trace_ctx)

    def post(self, payload: bytes, trace_ctx=None) -> None:
        self._inner.post(self._tag + payload, trace_ctx=trace_ctx)

    def close(self) -> None:
        self._inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GroupConnection group={self._tag[0] & 0x7F} {self._inner!r}>"


class Replica:
    """One PBFT replica bound to a Reptor endpoint."""

    #: Consensus group this pipeline orders for (COP).  The replica is
    #: group 0; the pipelines of its other groups override this.
    group = 0

    def __init__(
        self,
        replica_id: str,
        endpoint: ReptorEndpoint,
        peer_ids: List[str],
        app: StateMachine,
        config: Optional[BftConfig] = None,
        recover: bool = False,
    ):
        self.config = config if config is not None else BftConfig()
        if len(peer_ids) != self.config.n:
            raise BftError(
                f"peer list has {len(peer_ids)} entries, config.n is "
                f"{self.config.n}"
            )
        if replica_id not in peer_ids:
            raise BftError(f"{replica_id!r} missing from peer list")
        self.replica_id = replica_id
        self.endpoint = endpoint
        self.env: "Environment" = endpoint.env
        self.all_ids = sorted(peer_ids)
        self.app = app

        # Per-replica state, shared by every ordering pipeline: clients
        # talk to the replica, not to a group.
        self._client_conns: Dict[str, ReptorConnection] = {}
        self.state_transfers_completed = 0
        self.state_transfers_served = Counter(f"{replica_id}.st_served")
        self.state_transfer_bytes = Counter(f"{replica_id}.st_bytes")
        self.shed_requests = Counter(f"{replica_id}.shed_requests")
        self.rejoin_latency = TimeSeries(self.env, f"{replica_id}.rejoin")

        endpoint.on_connection(self._on_inbound_connection)
        self._start_pipeline()

        #: The one-sided proposal transport, or None (message passing).
        self.onesided = OneSidedPath(self) if self.config.onesided else None
        # COP: every pipeline's coordinator (None at group_count == 1)
        # and, on the coordinator, all pipelines indexed by group.
        self._coordinator: Optional[Replica] = None
        self._groups: Optional[Tuple[Replica, ...]] = None
        if self.config.group_count > 1:
            self._start_coordinator()

        if recover:
            # A restarted replica starts from a blank state machine:
            # fetch the group's stable checkpoint before doing anything
            # else (the request loop retries until peers are reachable).
            self.begin_state_transfer()

    def _start_pipeline(self) -> None:
        """Create one ordering pipeline's state and start its processes."""
        self.view = 0
        self.log = MessageLog(self.config.f, window=self.config.log_window)
        self.executed_seq = 0
        self.next_seq = 1  # leader's sequence allocator

        self._replica_conns: Dict[str, ReptorConnection] = {}
        self._pending_requests: Deque[Request] = deque()
        self._batch_kick = None
        self._seen_requests: Set[Tuple[str, int]] = set()
        # Keys currently assigned to a live slot (proposed, unexecuted) and
        # keys waiting in the leader's batch queue.  Together with the
        # reply cache these decide whether a retransmission is a duplicate
        # or a request orphaned by a view change that must be re-proposed.
        self._proposed_keys: Set[Tuple[str, int]] = set()
        self._queued_keys: Set[Tuple[str, int]] = set()
        # Reply cache keyed by (client, timestamp): clients may pipeline
        # several outstanding requests (Reptor-style), so caching only the
        # latest reply per client would swallow retransmission answers.
        self._reply_cache: Dict[Tuple[str, int], Reply] = {}

        # View-change state.
        self.in_view_change = False
        self._voted_view = 0  # highest view this replica has voted for
        # Consecutive view changes without execution progress double the
        # timeout (capped), as in PBFT — without this, a view change that
        # takes longer than one timeout livelocks into endless churn.
        self._vc_backoff = 0
        self._view_change_votes: Dict[int, Dict[str, ViewChange]] = {}
        self._request_deadlines: Dict[Tuple[str, int], float] = {}

        # State-transfer state (crash recovery / lag catch-up).  The
        # snapshot table holds (state digest, snapshot blob) captured the
        # moment each checkpoint was taken; seq 0 holds the initial state
        # so a request can always be answered.  Machines without
        # snapshot support simply never serve (or install) checkpoints.
        self._st_active = False
        self._st_started = 0.0
        self._st_replies: Dict[str, StateTransferReply] = {}
        self._checkpoint_snapshots: Dict[int, Tuple[bytes, bytes]] = {}
        snapshot_fn = getattr(self.app, "snapshot", None)
        if snapshot_fn is not None:
            self._checkpoint_snapshots[0] = (self.app.digest(), snapshot_fn())

        # Tracing state: per-slot trace contexts (adopted from the first
        # traced request of the batch) and the open protocol-phase spans
        # keyed by sequence number, plus the leader's queue-to-propose
        # batching spans keyed by request key.
        self._slot_trace_ctx: Dict[int, object] = {}
        self._slot_spans: Dict[int, Dict[str, object]] = {}
        self._batch_spans: Dict[Tuple[str, int], object] = {}

        # Adaptive batching (COP): when enabled the proposer sizes each
        # batch from queue depth and outbox watermark pressure instead
        # of always filling to the fixed ceiling.
        self._batcher = None
        if self.config.adaptive_batching:
            self._batcher = AdaptiveBatcher(
                floor=self.config.batch_size_min,
                ceiling=self.config.batch_size,
                shrink_patience=self.config.batch_shrink_patience,
            )

        # Fault hooks armed by repro.bft.faults; None on an honest
        # pipeline.  ``outbound_tamper(message, raw, peer_id)`` returns the
        # bytes to send (None drops them), ``reply_mute(reply)`` is true to
        # suppress a client reply, ``new_view_intercept(new_view, votes)``
        # is true to swallow a NewView this pipeline would install.
        self.outbound_tamper = None
        self.reply_mute = None
        self.new_view_intercept = None

        # Handler pipelines: per-pipeline inbound queues and processes.
        self._pipelines: List[Store] = [
            Store(self.env) for _ in range(self.config.pipelines)
        ]
        self.running = True
        for index, queue in enumerate(self._pipelines):
            Drive(
                self.env,
                self._pipeline_loop(queue),
                name=f"{self.replica_id}.pipe{index}",
            )
        self.env.process(self._batch_loop(), name=f"{self.replica_id}.batcher")
        self.env.process(self._timer_loop(), name=f"{self.replica_id}.timer")

        # Metrics.
        self.committed_count = 0
        self.view_changes_completed = 0

    def _start_coordinator(self) -> None:
        """Start groups 1..G-1 and the merged executor (COP)."""
        config = self.config
        self._merge = MergeStage(config.group_count)
        self._partitioner = make_partitioner(
            config.partitioner, config.group_count
        )
        self._coordinator = self
        self._exec_kick = None
        self._st_attempted_slot = 0
        self._groups = (self,) + tuple(
            _GroupPipeline(self, group) for group in range(1, config.group_count)
        )
        self.env.process(
            self._cop_execute_loop(), name=f"{self.replica_id}.cop-exec"
        )
        self.env.process(
            self._merge_fill_loop(), name=f"{self.replica_id}.cop-fill"
        )

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Group size."""
        return self.config.n

    @property
    def f(self) -> int:
        """Faults tolerated."""
        return self.config.f

    def leader_of(self, view: int) -> str:
        """The leader (primary) of ``view`` in this pipeline's group:
        group-rotated, so distinct groups get distinct leaders."""
        return self.all_ids[(view + self.group) % self.n]

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.leader_of(self.view) == self.replica_id

    def _current_timeout(self) -> float:
        """View-change timeout with exponential backoff under churn."""
        return self.config.view_change_timeout * (2 ** self._vc_backoff)

    def group_pipelines(self) -> Tuple["Replica", ...]:
        """All ordering pipelines of this replica, indexed by group."""
        return (self,) if self._groups is None else self._groups

    @property
    def global_executed_seq(self) -> int:
        """Position in the merged total execution order (the sequence
        order itself when there is one group)."""
        if self._groups is None:
            return self.executed_seq
        return self._merge.position

    def _span_tags(self) -> Dict[str, int]:
        """Extra trace-span attributes (the group tag under COP)."""
        if self.config.group_count > 1:
            return {"group": self.group}
        return {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_peer(self, peer_id: str, connection: ReptorConnection) -> None:
        """Bind a connection to a peer replica (under COP, every pipeline
        gets a tagged view of it) and start its receive loop."""
        if self._groups is None:
            self._replica_conns[peer_id] = connection
        else:
            for pipeline in self._groups:
                pipeline._replica_conns[peer_id] = GroupConnection(
                    connection, pipeline.group
                )
        Drive(
            self.env,
            self._receive_loop(connection, peer_id),
            name=f"{self.replica_id}<-{peer_id}.rx",
        )

    def _on_inbound_connection(self, connection: ReptorConnection) -> None:
        peer = connection.peer_name
        if peer in self.all_ids:
            self.attach_peer(peer, connection)
        else:
            # Map the client connection immediately: every replica must be
            # able to send replies even if the client only addresses its
            # requests to the leader (PBFT replies come from all replicas).
            self._client_conns[peer] = connection
            Drive(
                self.env,
                self._client_receive_loop(connection),
                name=f"{self.replica_id}<-client.rx",
            )

    def _receive_loop(self, connection: ReptorConnection, peer: str):
        groups = self._groups
        pipeline = self
        while self.running and not connection.closed:
            try:
                raw = yield connection.receive()
            except BftError:
                return
            if groups is not None:
                group = 0
                if raw and raw[0] & GROUP_TAG:
                    group = raw[0] & 0x7F
                    raw = bytes(raw[1:])
                if group >= len(groups):
                    continue  # tag for a group we do not run: drop
                pipeline = groups[group]
            try:
                message = decode(raw)
            except BftError:
                # Malformed bytes from a peer: Byzantine; drop the link.
                connection.close()
                return
            pipeline._route(message, peer)

    def _client_receive_loop(self, connection: ReptorConnection):
        groups = self._groups
        while self.running and not connection.closed:
            try:
                raw = yield connection.receive()
            except BftError:
                return
            try:
                message = decode(raw)
            except BftError:
                connection.close()
                return
            if isinstance(message, Request):
                self._client_conns[message.client_id] = connection
                pipeline = self
                if groups is not None:
                    pipeline = groups[
                        self._partitioner.group_of(
                            message.client_id, message.timestamp
                        )
                    ]
                pipeline._route(message, message.client_id)
            # Anything else from a client is ignored.

    def _route(self, message, sender: str) -> None:
        """Shard protocol messages across the handler pipelines."""
        seq = getattr(message, "seq", None)
        if seq is None:
            index = 0
        else:
            index = seq % len(self._pipelines)
        self._pipelines[index].post((message, sender))

    def _pipeline_loop(self, queue: Store):
        cpu = self.endpoint.host.cpu
        while self.running:
            message, sender = yield queue.get()
            span = None
            tracer = get_tracer(self.env)
            if tracer.enabled:
                ctx = self._message_trace_ctx(message)
                if ctx is not None:
                    span = tracer.start_span(
                        "bft.handle",
                        layer="bft",
                        parent=ctx,
                        track=self.replica_id,
                        message=type(message).__name__,
                        **self._span_tags(),
                    )
            # Handler CPU cost (configurable: MAC-based deployments are
            # cheap, signature-based ones are where COP's parallel
            # pipelines earn their keep).
            yield cpu.execute(self.config.handler_cost)
            try:
                self._dispatch(message, sender)
            except BftError:
                # A protocol violation from a Byzantine peer is tolerated
                # by ignoring the offending message.
                continue
            finally:
                if span is not None:
                    span.end()

    # ------------------------------------------------------------------
    # broadcast helpers
    # ------------------------------------------------------------------

    def _broadcast(self, message, trace_ctx=None) -> None:
        raw = encode(message)
        tamper = self.outbound_tamper
        onesided = self.onesided
        for peer_id in self.all_ids:
            if peer_id == self.replica_id:
                continue
            payload = raw if tamper is None else tamper(message, raw, peer_id)
            if payload is None:
                continue
            if onesided is not None and onesided.send(peer_id, message, payload):
                continue
            connection = self._replica_conns.get(peer_id)
            if connection is not None and not connection.closed:
                connection.post(payload, trace_ctx=trace_ctx)

    def _send_to(self, peer_id: str, message, trace_ctx=None) -> None:
        raw = encode(message)
        tamper = self.outbound_tamper
        if tamper is not None:
            raw = tamper(message, raw, peer_id)
            if raw is None:
                return
        connection = self._replica_conns.get(peer_id)
        if connection is not None and not connection.closed:
            connection.post(raw, trace_ctx=trace_ctx)

    # ------------------------------------------------------------------
    # tracing helpers
    # ------------------------------------------------------------------

    def _message_trace_ctx(self, message):
        """Trace context of the request causally behind ``message``.

        Requests resolve through the client's correlation binding;
        seq-carrying protocol messages through the slot's adopted
        context (falling back to the batch for a pre-prepare whose slot
        has not adopted one yet)."""
        tracer = get_tracer(self.env)
        if not tracer.enabled:
            return None
        if isinstance(message, Request):
            return tracer.lookup(
                ("bft.request", message.client_id, message.timestamp)
            )
        seq = getattr(message, "seq", None)
        if seq is not None:
            ctx = self._slot_trace_ctx.get(seq)
            if ctx is not None:
                return ctx
        return self._batch_trace_ctx(getattr(message, "batch", ()))

    def _batch_trace_ctx(self, batch):
        """Context of the first traced request in ``batch`` (or None)."""
        tracer = get_tracer(self.env)
        if not tracer.enabled:
            return None
        for request in batch:
            ctx = tracer.lookup(
                ("bft.request", request.client_id, request.timestamp)
            )
            if ctx is not None:
                return ctx
        return None

    def _begin_phase(self, seq: int, phase: str, ctx) -> None:
        """Open a protocol-phase span for ``seq`` (no-op untraced)."""
        tracer = get_tracer(self.env)
        if not tracer.enabled or ctx is None:
            return
        spans = self._slot_spans.setdefault(seq, {})
        stale = spans.get(phase)
        if stale is not None:
            # A view change re-ran the phase for this slot; the old
            # window ended the moment it was superseded.
            stale.end(superseded=True)
        spans[phase] = tracer.start_span(
            f"bft.{phase}",
            layer="bft",
            parent=ctx,
            track=self.replica_id,
            seq=seq,
            **self._span_tags(),
        )

    def _end_phase(self, seq: int, phase: str, **attrs) -> None:
        spans = self._slot_spans.get(seq)
        if spans is None:
            return
        span = spans.pop(phase, None)
        if span is not None:
            span.end(**attrs)
        if not spans:
            self._slot_spans.pop(seq, None)

    def _finish_slot_trace(self, seq: int) -> None:
        """Close any phase spans still open for an executed slot."""
        for span in self._slot_spans.pop(seq, {}).values():
            span.end(aborted=True)
        self._slot_trace_ctx.pop(seq, None)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, message, sender: str) -> None:
        handler = _HANDLERS.get(message.__class__)
        if handler is None:
            raise BftError(f"unknown message {type(message).__name__}")
        handler(self, message, sender)

    # -- requests & batching -------------------------------------------------

    def _on_request(self, request: Request, _sender: str = "") -> None:
        key = request.key()
        cached = self._reply_cache.get(key)
        if cached is not None:
            # Duplicate of an executed request: re-send the cached reply.
            self._reply_to_client(cached)
            return
        budget = self.config.admission_budget
        if (
            budget
            and key not in self._seen_requests
            and len(self._request_deadlines) >= budget
        ):
            # Admission control: the outstanding-request budget is spent,
            # so shed this *new* request instead of queuing unboundedly.
            # Retransmissions of admitted requests always pass — shedding
            # them would stall work the group already owes an answer for.
            self._shed_request(request)
            return
        if key in self._seen_requests:
            # Retransmission.  If we are the leader and the request is not
            # assigned to any live slot (it was orphaned by a view change),
            # it must be (re-)proposed; otherwise it is a plain duplicate.
            orphaned = (
                self.is_leader
                and not self.in_view_change
                and key not in self._proposed_keys
                and key not in self._queued_keys
            )
            if not orphaned:
                return
        else:
            self._seen_requests.add(key)
        self._request_deadlines[key] = self.env.now + self._current_timeout()
        ctx = self._message_trace_ctx(request)
        if self.is_leader and not self.in_view_change:
            self._pending_requests.append(request)
            self._queued_keys.add(key)
            tracer = get_tracer(self.env)
            if ctx is not None and key not in self._batch_spans:
                # Queue-to-propose window: time the request spends
                # waiting for the leader's adaptive batcher.
                self._batch_spans[key] = tracer.start_span(
                    "bft.batching",
                    layer="bft",
                    parent=ctx,
                    track=self.replica_id,
                    **self._span_tags(),
                )
            self._kick_batcher()
        else:
            # Backups forward to the current leader (client may have sent
            # only to us, or to a stale leader).
            self._send_to(self.leader_of(self.view), request, trace_ctx=ctx)

    def _shed_request(self, request: Request) -> None:
        """Reject an over-budget request with a ``Busy`` reply.

        The client backs off and retries once f+1 replicas report busy;
        nothing is recorded locally (no deadline, no dedup entry), so a
        later retry is indistinguishable from a fresh request.
        """
        self.shed_requests.increment()
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_request_shed(
                self.replica_id,
                request.client_id,
                request.timestamp,
                outstanding=len(self._request_deadlines),
                budget=self.config.admission_budget,
            )
        connection = self._client_conns.get(request.client_id)
        if connection is not None and not connection.closed:
            busy = Busy(
                self.replica_id, request.client_id, request.timestamp, self.view
            )
            connection.post(encode(busy))

    def _kick_batcher(self) -> None:
        if self._batch_kick is not None and not self._batch_kick.triggered:
            self._batch_kick.succeed()

    def _batch_loop(self):
        while self.running:
            if not self._pending_requests or not self.is_leader or self.in_view_change:
                self._batch_kick = self.env.event()
                yield self._batch_kick
                continue
            limit = self._batch_limit()
            if (
                len(self._pending_requests) < limit
                and self.config.batch_delay > 0
            ):
                # Adaptive batching: wait briefly for more requests.
                yield self.env.timeout(self.config.batch_delay)
            if not self.is_leader or self.in_view_change:
                continue
            batch: List[Request] = []
            while self._pending_requests and len(batch) < limit:
                batch.append(self._pending_requests.popleft())
            if not batch:
                continue
            if not self.log.in_window(self.next_seq):
                # Watermark pressure: wait for a checkpoint to advance.
                self._pending_requests.extendleft(reversed(batch))
                yield self.env.timeout(self.config.batch_delay or 100e-6)
                continue
            try:
                self._propose(tuple(batch))
            except BftError:
                # A slot conflict (e.g. racing a concurrent view change)
                # must never kill the batcher; the requests return to the
                # queue and are re-proposed under the settled view.
                self._pending_requests.extendleft(reversed(batch))
                for request in batch:
                    self._queued_keys.add(request.key())
                    self._proposed_keys.discard(request.key())
                yield self.env.timeout(self.config.batch_delay or 100e-6)

    def _batch_limit(self) -> int:
        """Requests allowed in the next proposed batch.

        The fixed ``batch_size`` ceiling unless adaptive batching is on,
        in which case the controller grows the limit under queue-depth /
        outbox-watermark pressure and shrinks it when idle.
        """
        if self._batcher is None:
            return self.config.batch_size
        return self._batcher.observe(
            len(self._pending_requests), self._outbox_backpressure()
        )

    def _outbox_backpressure(self) -> bool:
        """Whether any replica connection sits above its high watermark."""
        for connection in self._replica_conns.values():
            if not connection.closed and getattr(
                connection, "_above_high", False
            ):
                return True
        return False

    def _propose(self, batch: Tuple[Request, ...]) -> None:
        # Skip sequence numbers already owned by this view or committed
        # (left behind by view changes); propose into the first free slot.
        while self.log.in_window(self.next_seq):
            existing = self.log.slots.get(self.next_seq)
            if existing is None or existing.pre_prepare is None:
                break
            if existing.committed or existing.pre_prepare.view >= self.view:
                self.next_seq += 1
                continue
            break
        if not self.log.in_window(self.next_seq):
            raise BftError("no free slot inside the watermarks")
        for request in batch:
            self._proposed_keys.add(request.key())
            self._queued_keys.discard(request.key())
            span = self._batch_spans.pop(request.key(), None)
            if span is not None:
                span.end(batch_size=len(batch))
        seq = self.next_seq
        self.next_seq += 1
        pre_prepare = PrePrepare(
            view=self.view,
            seq=seq,
            digest=batch_digest(batch),
            batch=batch,
            replica_id=self.replica_id,
        )
        slot = self.log.slot(seq)
        slot.record_pre_prepare(pre_prepare)
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_pre_prepare(
                self.replica_id, self.view, seq, pre_prepare.digest,
                self.replica_id, group=self.group,
            )
        self.log.batches[seq] = batch
        ctx = self._batch_trace_ctx(batch)
        if ctx is not None:
            self._slot_trace_ctx[seq] = ctx
            get_tracer(self.env).instant(
                "bft.pre_prepare",
                layer="bft",
                parent=ctx,
                track=self.replica_id,
                seq=seq,
                **self._span_tags(),
            )
            self._begin_phase(seq, "prepare", ctx)
        self._broadcast(pre_prepare, trace_ctx=ctx)
        # With f = 0 the pre-prepare alone is a prepared certificate.
        self._check_prepared(seq)

    # -- three-phase agreement ----------------------------------------------

    def _on_pre_prepare(self, message: PrePrepare, sender: str) -> None:
        if self.in_view_change or message.view != self.view:
            return
        if sender != self.leader_of(message.view):
            return  # only the leader may propose
        if not self.log.in_window(message.seq):
            return
        if batch_digest(message.batch) != message.digest:
            raise BftError("pre-prepare digest does not match batch")
        slot = self.log.slot(message.seq)
        slot.record_pre_prepare(message)  # raises on conflict
        audit = get_audit(self.env)
        if audit.enabled:
            # Report the digest *this* replica accepted: equivocation
            # surfaces when two correct replicas report different
            # digests for the same (view, seq) assignment.
            audit.on_pre_prepare(
                self.replica_id, message.view, message.seq, message.digest,
                sender, group=self.group,
            )
        self.log.batches[message.seq] = message.batch
        for request in message.batch:
            key = request.key()
            self._seen_requests.add(key)
            self._proposed_keys.add(key)
            self._request_deadlines.setdefault(
                key, self.env.now + self._current_timeout()
            )
        ctx = self._batch_trace_ctx(message.batch)
        if ctx is not None:
            self._slot_trace_ctx[message.seq] = ctx
            self._begin_phase(message.seq, "prepare", ctx)
        prepare = Prepare(
            view=message.view,
            seq=message.seq,
            digest=message.digest,
            replica_id=self.replica_id,
        )
        slot.record_prepare(prepare)
        self._broadcast(prepare, trace_ctx=ctx)
        self._check_prepared(message.seq)

    def _on_prepare(self, message: Prepare, sender: str) -> None:
        if message.replica_id != sender:
            return  # a replica may only vote as itself
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        self.log.slot(message.seq).record_prepare(message)
        self._check_prepared(message.seq)

    def _check_prepared(self, seq: int) -> None:
        slot = self.log.slots.get(seq)
        if slot is None or slot.prepared or slot.pre_prepare is None:
            return
        if slot.pre_prepare.view != self.view:
            return
        prepares = slot.matching_prepares(self.view, slot.pre_prepare.digest)
        # The leader's pre-prepare substitutes for its prepare; backups'
        # own prepares are recorded when sent.
        if prepares >= self.log.prepared_quorum():
            slot.prepared = True
            ctx = self._slot_trace_ctx.get(seq)
            self._end_phase(seq, "prepare")
            self._begin_phase(seq, "commit", ctx)
            commit = Commit(
                view=self.view,
                seq=seq,
                digest=slot.pre_prepare.digest,
                replica_id=self.replica_id,
            )
            slot.record_commit(commit)
            self._broadcast(commit, trace_ctx=ctx)
            self._check_committed(seq)

    def _on_commit(self, message: Commit, sender: str) -> None:
        if message.replica_id != sender:
            return
        if message.view != self.view or not self.log.in_window(message.seq):
            return
        self.log.slot(message.seq).record_commit(message)
        self._check_committed(message.seq)

    def _check_committed(self, seq: int) -> None:
        slot = self.log.slots.get(seq)
        if slot is None or slot.committed or not slot.prepared:
            return
        if slot.pre_prepare is None:
            return
        commits = slot.matching_commits(self.view, slot.pre_prepare.digest)
        if commits >= self.log.committed_quorum():
            slot.committed = True
            audit = get_audit(self.env)
            if audit.enabled:
                digest = slot.pre_prepare.digest
                audit.on_commit_quorum(
                    self.replica_id,
                    self.view,
                    seq,
                    digest,
                    [
                        c.replica_id
                        for c in slot.commits.values()
                        if c.view == self.view and c.digest == digest
                    ],
                    group=self.group,
                )
            self.committed_count += 1
            self._end_phase(seq, "commit")
            self._execute_ready()

    # -- execution ---------------------------------------------------------

    def _execute_ready(self) -> None:
        """Execute committed slots strictly in sequence order.

        Under COP each slot is buffered at its global merge slot instead,
        and the coordinator's executor runs it once every lower slot has
        merged.
        """
        coordinator = self._coordinator
        while True:
            next_seq = self.executed_seq + 1
            slot = self.log.slots.get(next_seq)
            if slot is None or not slot.committed or slot.executed:
                break
            batch = self.log.batches.get(next_seq, slot.pre_prepare.batch)
            if coordinator is not None:
                coordinator._merge.offer(
                    self.group, next_seq, (self, slot, batch)
                )
            else:
                audit = get_audit(self.env)
                if audit.enabled:
                    audit.on_execute(
                        self.replica_id, next_seq, batch_digest(batch),
                        group=self.group,
                    )
                detach(
                    self.env,
                    self._execute_batch(slot, batch),
                    f"{self.replica_id}.exec{next_seq}",
                )
            slot.executed = True
            self.executed_seq = next_seq
            self._vc_backoff = 0  # execution progress calms the timers
        if coordinator is not None:
            coordinator._kick_exec()

    def _execute_batch(self, slot, batch: Tuple[Request, ...]):
        cpu = self.endpoint.host.cpu
        tracer = get_tracer(self.env)
        span = None
        ctx = self._slot_trace_ctx.get(slot.seq)
        if tracer.enabled and ctx is not None:
            span = tracer.start_span(
                "bft.execute",
                layer="bft",
                parent=ctx,
                track=self.replica_id,
                seq=slot.seq,
                batch_size=len(batch),
                **self._span_tags(),
            )
        try:
            for request in batch:
                yield cpu.execute(self.config.execution_cost)
                result = self._apply(request.operation)
                reply = Reply(
                    replica_id=self.replica_id,
                    client_id=request.client_id,
                    timestamp=request.timestamp,
                    view=self.view,
                    result=result,
                )
                key = request.key()
                self._reply_cache[key] = reply
                self._request_deadlines.pop(key, None)
                self._proposed_keys.discard(key)
                self._reply_to_client(
                    reply, trace_ctx=self._message_trace_ctx(request)
                )
        finally:
            if span is not None:
                span.end()
            self._finish_slot_trace(slot.seq)
        if slot.seq % self.config.checkpoint_interval == 0:
            self._take_checkpoint(slot.seq)

    def _apply(self, operation: bytes) -> bytes:
        """Execute one ordered operation; a malformed one is answered.

        The application refuses an operation it cannot parse with a
        BftError.  Raised here it would escape the detached execution
        into the kernel, halting the run with some replicas past the
        slot and some not.  Every correct replica refuses the same
        operation with the same reason, so ``ERR <reason>`` is an
        ordinary deterministic result the client accepts on f+1
        matching replies.
        """
        try:
            return self.app.apply(operation)
        except BftError as exc:
            return b"ERR " + str(exc).encode()

    def _take_checkpoint(self, seq: int) -> None:
        """Snapshot the state machine, vote, and broadcast the checkpoint.

        Runs at the exact point in execution order where ``seq`` has just
        been applied, so the snapshot is consistent with the digest the
        vote advertises.  Only the two newest snapshots are retained —
        enough to serve the current stable checkpoint plus the one being
        voted on.
        """
        snapshot_fn = getattr(self.app, "snapshot", None)
        if snapshot_fn is None:
            state_digest = self.app.digest()
        else:
            # Snapshot first: an app that encodes both in one walk (the
            # KeyValueStore) then has the digest at hand.
            snapshot = snapshot_fn()
            state_digest = self.app.digest()
            self._checkpoint_snapshots[seq] = (state_digest, snapshot)
            for old in sorted(self._checkpoint_snapshots)[:-2]:
                del self._checkpoint_snapshots[old]
        checkpoint = Checkpoint(
            seq=seq, state_digest=state_digest, replica_id=self.replica_id
        )
        stable = self.log.record_checkpoint_vote(
            seq, state_digest, self.replica_id
        )
        if stable:
            audit = get_audit(self.env)
            if audit.enabled:
                audit.on_stable_checkpoint(
                    self.replica_id, seq, state_digest, group=self.group
                )
        self._broadcast(checkpoint)

    def _reply_to_client(self, reply: Reply, trace_ctx=None) -> None:
        mute = self.reply_mute
        if mute is not None and mute(reply):
            return
        connection = self._client_conns.get(reply.client_id)
        if connection is not None and not connection.closed:
            connection.post(encode(reply), trace_ctx=trace_ctx)

    def _on_checkpoint(self, message: Checkpoint, sender: str) -> None:
        if message.replica_id != sender:
            return
        stable = self.log.record_checkpoint_vote(
            message.seq, message.state_digest, sender
        )
        if stable:
            audit = get_audit(self.env)
            if audit.enabled:
                audit.on_stable_checkpoint(
                    self.replica_id, message.seq, message.state_digest,
                    group=self.group,
                )
        # A checkpoint that became stable past our execution point means
        # the group truncated slots we never executed — they are gone
        # from every log and can never be replayed.  Fetch the checkpoint
        # state itself instead of waiting forever.
        if self.log.stable_seq > self.executed_seq:
            self.begin_state_transfer()

    # -- merged execution (COP coordinator) --------------------------------

    def _kick_exec(self) -> None:
        if self._exec_kick is not None and not self._exec_kick.triggered:
            self._exec_kick.succeed()

    def _cop_execute_loop(self):
        """The merged executor: runs merged slots strictly one batch at
        a time, so every replica applies the identical operation stream
        and checkpoint digests are deterministic."""
        while self.running:
            if self._st_active:
                self._cop_install_now()
            item = None if self._st_active else self._merge.pop_ready()
            if item is None:
                self._exec_kick = self.env.event()
                yield self._exec_kick
                continue
            global_slot, (pipeline, slot, batch) = item
            audit = get_audit(self.env)
            if audit.enabled:
                audit.on_execute(
                    self.replica_id,
                    slot.seq,
                    batch_digest(batch),
                    group=pipeline.group,
                    global_seq=global_slot,
                )
            yield from pipeline._execute_batch(slot, batch)

    def _merge_fill_loop(self):
        """Close merge gaps left by idle or leaderless groups.

        A group with no client traffic never commits, which stalls the
        merged order for every other group.  The leader of the stalled
        group proposes an *empty* filler batch; if the stall persists
        (e.g. that leader crashed), every replica arms a synthetic
        deadline in the stalled group so its ordinary timers force a
        view change there.
        """
        interval = self.config.merge_fill_interval
        stall_timeout = (
            self.config.merge_stall_timeout or self.config.view_change_timeout
        )
        stalled_slot = None
        stalled_since = 0.0
        while self.running:
            yield self.env.timeout(interval)
            position = self._merge.position
            for pipeline in self._groups:
                stale = [
                    key
                    for key in pipeline._request_deadlines
                    if key[0] == "__merge__" and key[1] <= position
                ]
                for key in stale:
                    pipeline._request_deadlines.pop(key, None)
            if self._st_active:
                stalled_slot = None
                continue
            if self._merge.has_gap():
                slot_no = self._merge.next_slot
            else:
                slot_no = self._lost_tail_slot()
                if slot_no is None:
                    stalled_slot = None
                    continue
            if slot_no != stalled_slot:
                stalled_slot = slot_no
                stalled_since = self.env.now
            pipeline = self._groups[self._merge.group_of(slot_no)]
            seq = self._merge.group_seq(slot_no)
            slot_state = pipeline.log.slots.get(seq)
            unproposed = slot_state is None or (
                not slot_state.committed
                and (
                    slot_state.pre_prepare is None
                    or slot_state.pre_prepare.view < pipeline.view
                )
            )
            if (
                pipeline.is_leader
                and not pipeline.in_view_change
                and not pipeline._pending_requests
                and pipeline.next_seq <= seq
                and unproposed
                and pipeline.log.in_window(seq)
            ):
                try:
                    pipeline._propose(())
                except BftError:
                    pass
            elif self.env.now - stalled_since >= stall_timeout:
                # Already-past deadline: the stalled group's next timer
                # tick escalates into a view change.
                pipeline._request_deadlines.setdefault(
                    ("__merge__", slot_no), self.env.now
                )
                if slot_no != self._st_attempted_slot:
                    # The missing slot may be committed (even garbage-
                    # collected) everywhere else — e.g. this replica was
                    # healing when it went through.  No one retransmits
                    # old commits, but state transfer fetches executed
                    # slots directly.  Once per stalled slot; a genuine
                    # leader failure still recovers via the view change.
                    self._st_attempted_slot = slot_no
                    self.begin_state_transfer()

    def _lost_tail_slot(self):
        """Global slot whose pre-prepare this replica provably missed.

        With no merge gap the replica looks idle, yet a group's next
        sequence number may hold f+1 commit votes without the
        pre-prepare that carries the batch — the proposal was lost in
        flight (nobody retransmits it) while at least one correct peer
        committed and moved on.  Without traffic behind it, nothing
        would ever surface the loss; report it so the stall timer can
        escalate into a state transfer.
        """
        lost = None
        for pipeline in self._groups:
            seq = pipeline.executed_seq + 1
            slot = pipeline.log.slots.get(seq)
            if (
                slot is not None
                and slot.pre_prepare is None
                and not slot.committed
                and len(slot.commits) >= self.config.f + 1
            ):
                slot_no = self._merge.global_slot(pipeline.group, seq)
                if lost is None or slot_no < lost:
                    lost = slot_no
        return lost

    # -- state transfer --------------------------------------------------------

    def begin_state_transfer(self) -> None:
        """Fetch the latest stable checkpoint + log suffix from peers.

        Idempotent: a transfer already in flight keeps running.  The
        request is re-broadcast every ``state_transfer_timeout`` until
        f+1 peers agree on a checkpoint that verifies and installs —
        one of f+1 matching replies must come from an honest replica.
        Under COP one group lagging means the merged order is lagging,
        so the coordinator runs one transfer across all groups.
        """
        coordinator = self._coordinator
        if coordinator is not None and coordinator is not self:
            coordinator.begin_state_transfer()
            return
        if self._st_active:
            return
        self._st_active = True
        self._st_started = self.env.now
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_state_transfer(
                self.replica_id, "started", low_seq=self.global_executed_seq,
                group=self.group,
            )
        if self._groups is None:
            self._st_replies = {}
            self.env.process(
                self._state_transfer_loop(), name=f"{self.replica_id}.statex"
            )
            return
        for pipeline in self._groups:
            pipeline._st_active = True
            pipeline._st_replies = {}
            self.env.process(
                pipeline._state_transfer_loop(),
                name=f"{self.replica_id}.g{pipeline.group}.statex",
            )
        self._kick_exec()

    def _state_transfer_loop(self):
        while self.running and self._st_active:
            self._broadcast(
                StateTransferRequest(
                    low_seq=self.executed_seq, replica_id=self.replica_id
                )
            )
            yield self.env.timeout(self.config.state_transfer_timeout)

    def _on_state_transfer_request(
        self, message: StateTransferRequest, sender: str
    ) -> None:
        if message.replica_id != sender or sender not in self.all_ids:
            return
        seq = self.log.stable_seq
        entry = self._checkpoint_snapshots.get(seq)
        if entry is None:
            # Snapshots unsupported, or the stable checkpoint was itself
            # installed while we lagged: nothing trustworthy to serve.
            return
        state_digest, snapshot = entry
        suffix: List[Tuple[int, Tuple[Request, ...]]] = []
        for s in range(seq + 1, self.executed_seq + 1):
            batch = self.log.batches.get(s)
            if batch is None:
                break  # the suffix must stay contiguous
            suffix.append((s, batch))
        reply = StateTransferReply(
            checkpoint_seq=seq,
            state_digest=state_digest,
            snapshot=snapshot,
            suffix=tuple(suffix),
            view=self.view,
            replica_id=self.replica_id,
        )
        raw = encode(reply)
        tamper = self.outbound_tamper
        if tamper is not None:
            raw = tamper(reply, raw, sender)
            if raw is None:
                return
        connection = self._replica_conns.get(sender)
        if connection is not None and not connection.closed:
            self.state_transfers_served.increment()
            self.state_transfer_bytes.increment(len(raw))
            connection.post(raw)

    def _on_state_transfer_reply(
        self, message: StateTransferReply, sender: str
    ) -> None:
        if message.replica_id != sender or sender not in self.all_ids:
            return
        if not self._st_active:
            return
        self._st_replies[sender] = message
        self._try_install_state()

    def _st_candidate(
        self,
    ) -> Optional[Tuple[int, bytes, List[StateTransferReply]]]:
        """Highest f+1-agreed ``(checkpoint_seq, digest, replies)``.

        None until f+1 replies agree on a checkpoint at or past our own
        stable sequence number.
        """
        groups: Dict[
            Tuple[int, bytes], List[StateTransferReply]
        ] = {}
        for reply in self._st_replies.values():
            groups.setdefault(
                (reply.checkpoint_seq, reply.state_digest), []
            ).append(reply)
        candidates = [
            (seq, digest, replies)
            for (seq, digest), replies in groups.items()
            if len(replies) >= self.f + 1 and seq >= self.log.stable_seq
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda c: c[0])

    def _try_install_state(self) -> None:
        """Install a checkpoint once f+1 replies agree on its digest."""
        if self._coordinator is not None:
            # Installation decisions belong to the merged executor (and
            # must never run mid-batch), so a new reply just wakes it.
            self._coordinator._kick_exec()
            return
        candidate = self._st_candidate()
        if candidate is None:
            return
        seq, state_digest, replies = candidate
        if seq > self.executed_seq:
            if not self._install_checkpoint(seq, state_digest, replies):
                return
        self._apply_suffix(replies)
        if self.executed_seq < seq:
            return  # nothing verified; the retry loop keeps asking
        self._adopt_reported_view(replies)
        # Requests executed before the checkpoint were answered by the
        # replicas that stayed up; stale deadlines for them would only
        # feed spurious view changes.  Live requests re-arm through
        # client retransmission (and the other replicas' timers).
        self._request_deadlines.clear()
        self._st_active = False
        self._st_replies = {}
        self.state_transfers_completed += 1
        self.rejoin_latency.record(self.env.now - self._st_started)
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_state_transfer(
                self.replica_id, "completed",
                checkpoint_seq=seq,
                executed_seq=self.executed_seq,
                group=self.group,
            )
        self._execute_ready()
        if self.is_leader:
            self._kick_batcher()

    def _cop_install_now(self) -> bool:
        """Run the coordinated install from the merged executor.

        Picks the f+1-agreed per-group checkpoint covering the highest
        merged slot, installs it (the snapshot is global state at that
        merged point), aligns every other group's log to the merged
        prefix, then extends slot by slot with per-slot f+1-agreed
        suffix batches.  Returns True when the transfer completed.
        """
        best = None
        for pipeline in self._groups:
            candidate = pipeline._st_candidate()
            if candidate is None:
                # Until *every* group has an f+1-agreed checkpoint the
                # true merge target is unknown — a slot covered by a
                # missing group's checkpoint could never be filled from
                # suffixes alone.  The per-group retry loops keep
                # re-requesting until the stragglers answer.
                return False
            seq, digest, replies = candidate
            slot_no = (
                self._merge.global_slot(pipeline.group, seq) if seq else 0
            )
            if best is None or slot_no > best[0]:
                best = (slot_no, pipeline, seq, digest, replies)
        target_slot, pipeline, seq, digest, replies = best
        if target_slot > self._merge.position:
            if seq > pipeline.executed_seq:
                if not pipeline._install_checkpoint(seq, digest, replies):
                    return False
            group_count = self.config.group_count
            for other in self._groups:
                if other is pipeline:
                    continue
                j = other.group
                # Group j's share of the merged prefix [1..target_slot].
                covered = (
                    (target_slot - j - 1) // group_count + 1
                    if target_slot >= j + 1
                    else 0
                )
                if covered > other.executed_seq:
                    other.executed_seq = covered
                    other.next_seq = max(other.next_seq, covered + 1)
                    if covered > other.log.stable_seq:
                        other.log.install_stable(covered)
            self._merge.reset(target_slot)
        # Extend the merged order with f+1-agreed suffix batches.
        while True:
            slot_no = self._merge.next_slot
            target = self._groups[self._merge.group_of(slot_no)]
            seq_needed = self._merge.group_seq(slot_no)
            if seq_needed != target.executed_seq + 1:
                break
            chosen = target._st_suffix_batch(seq_needed)
            if chosen is None:
                break
            target._apply_transferred_batch(seq_needed, chosen)
            self._merge.reset(slot_no)
        if self._merge.position < target_slot:
            return False
        for p in self._groups:
            candidate = p._st_candidate()
            if candidate is not None:
                p._adopt_reported_view(candidate[2])
            elif p._st_replies:
                p._adopt_reported_view(list(p._st_replies.values()))
            p._request_deadlines.clear()
            p._st_active = False
            p._st_replies = {}
        self.state_transfers_completed += 1
        self.rejoin_latency.record(self.env.now - self._st_started)
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_state_transfer(
                self.replica_id,
                "completed",
                checkpoint_seq=self._merge.position,
                executed_seq=self._merge.position,
            )
        for p in self._groups:
            p._execute_ready()
            if p.is_leader:
                p._kick_batcher()
        return True

    def _install_checkpoint(
        self,
        seq: int,
        state_digest: bytes,
        replies: List[StateTransferReply],
    ) -> bool:
        """Verify one of the agreed snapshots and adopt it as our state."""
        restore = getattr(self.app, "restore", None)
        snapshot_fn = getattr(self.app, "snapshot", None)
        if restore is None or snapshot_fn is None:
            return False
        backup = snapshot_fn()
        for reply in replies:
            try:
                restore(reply.snapshot)
            except (BftError, ValueError):
                continue  # corrupt blob from one (Byzantine) sender
            if self.app.digest() == state_digest:
                break
        else:
            restore(backup)
            return False
        self.log.install_stable(seq)
        audit = get_audit(self.env)
        if audit.enabled:
            # An installed checkpoint joins the stability table too: it
            # must agree with what the voting replicas stabilised.
            audit.on_stable_checkpoint(
                self.replica_id, seq, state_digest, group=self.group
            )
        self.executed_seq = seq
        self.next_seq = max(self.next_seq, seq + 1)
        # The verified snapshot becomes servable: this replica can now
        # answer state-transfer requests for the checkpoint it installed.
        self._checkpoint_snapshots[seq] = (state_digest, self.app.snapshot())
        for old in sorted(self._checkpoint_snapshots)[:-2]:
            del self._checkpoint_snapshots[old]
        return True

    def _apply_suffix(self, replies: List[StateTransferReply]) -> None:
        """Apply post-checkpoint batches, each f+1-agreed per slot.

        The checkpoint digest quorum does not vouch for the suffixes, so
        every slot needs its own f+1 agreement on the batch digest;
        application stops at the first slot without one (anything beyond
        re-commits through the ordinary protocol).
        """
        while True:
            seq = self.executed_seq + 1
            chosen = self._st_suffix_batch(seq, replies)
            if chosen is None:
                return
            self._apply_transferred_batch(seq, chosen)

    def _st_suffix_batch(
        self,
        seq: int,
        replies: Optional[List[StateTransferReply]] = None,
    ) -> Optional[Tuple[Request, ...]]:
        """The f+1-agreed suffix batch for ``seq``, or None.

        Defaults to counting over every reply received so far (any f+1
        matching digests include one honest replica, independent of
        which checkpoint quorum they joined).
        """
        if replies is None:
            replies = list(self._st_replies.values())
        counts: Dict[bytes, int] = {}
        batches: Dict[bytes, Tuple[Request, ...]] = {}
        for reply in replies:
            for entry_seq, batch in reply.suffix:
                if entry_seq == seq:
                    d = batch_digest(batch)
                    counts[d] = counts.get(d, 0) + 1
                    batches[d] = batch
        for d, count in counts.items():
            if count >= self.f + 1:
                return batches[d]
        return None

    def _apply_transferred_batch(
        self, seq: int, batch: Tuple[Request, ...]
    ) -> None:
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_execute(
                self.replica_id, seq, batch_digest(batch), group=self.group
            )
        for request in batch:
            result = self._apply(request.operation)
            key = request.key()
            self._seen_requests.add(key)
            self._proposed_keys.discard(key)
            self._queued_keys.discard(key)
            self._request_deadlines.pop(key, None)
            # Cache but do not send the reply: the client already has
            # f+1 answers from the replicas that executed on time; the
            # cache only serves future retransmissions.
            self._reply_cache[key] = Reply(
                replica_id=self.replica_id,
                client_id=request.client_id,
                timestamp=request.timestamp,
                view=self.view,
                result=result,
            )
        self.log.batches[seq] = batch
        if self.log.in_window(seq):
            slot = self.log.slot(seq)
            slot.committed = True
            slot.executed = True
        self.executed_seq = seq
        self.next_seq = max(self.next_seq, seq + 1)
        if seq % self.config.checkpoint_interval == 0:
            self._take_checkpoint(seq)

    def _adopt_reported_view(
        self, replies: List[StateTransferReply]
    ) -> None:
        """Adopt the f+1-th highest reported view (one reporter of at
        least that view is honest), so the rejoined replica times out
        against the right leader."""
        views = sorted((reply.view for reply in replies), reverse=True)
        candidate = views[min(self.f, len(views) - 1)]
        if candidate > self.view:
            self.view = candidate
            self._voted_view = max(self._voted_view, candidate)
            self.in_view_change = False
            audit = get_audit(self.env)
            if audit.enabled:
                audit.on_view_adopted(
                    self.replica_id, candidate, group=self.group
                )

    # -- view changes ----------------------------------------------------------

    def _timer_loop(self):
        interval = self.config.view_change_timeout / 4
        while self.running:
            yield self.env.timeout(interval)
            now = self.env.now
            if any(deadline < now for deadline in self._request_deadlines.values()):
                # Escalate past views already voted for: the next view's
                # leader may itself be faulty, so repeated timeouts must
                # keep moving the target view forward or the group wedges.
                self._start_view_change(max(self.view, self._voted_view) + 1)

    def _start_view_change(self, new_view: int) -> None:
        if new_view <= self.view or new_view <= self._voted_view:
            return
        self._voted_view = new_view
        self._vc_backoff = min(self._vc_backoff + 1, 5)
        self.in_view_change = True
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_view_change_started(
                self.replica_id, new_view, group=self.group
            )
        vote = ViewChange(
            new_view=new_view,
            stable_seq=self.log.stable_seq,
            prepared=self.log.prepared_evidence(),
            replica_id=self.replica_id,
        )
        self._record_view_change_vote(vote)
        self._broadcast(vote)
        # Reset deadlines so the timer escalates further only after
        # another full (backed-off) timeout.
        now = self.env.now
        for key in self._request_deadlines:
            self._request_deadlines[key] = now + self._current_timeout()
        if self.onesided is not None:
            self.onesided.fence_leader()

    def _on_view_change(self, message: ViewChange, sender: str) -> None:
        if message.replica_id != sender or message.new_view <= self.view:
            return
        self._record_view_change_vote(message)

    def _record_view_change_vote(self, message: ViewChange) -> None:
        audit = get_audit(self.env)
        if audit.enabled:
            # Digest over the wire encoding: any semantic difference in
            # the vote (stable_seq, prepared evidence) changes it, which
            # is what the cross-replica equivocation check compares.
            audit.on_view_change_vote(
                self.replica_id,
                message.replica_id,
                message.new_view,
                sha256(encode(message)),
                group=self.group,
            )
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[message.replica_id] = message
        # Join the view change once f+1 replicas vote (we cannot all be
        # honest-and-late), even if our own timer has not fired.
        if (
            len(votes) > self.f
            and not self.in_view_change
            and message.new_view > self.view
            and message.replica_id != self.replica_id
        ):
            self._start_view_change(message.new_view)
            return
        if (
            len(votes) >= 2 * self.f + 1
            and self.leader_of(message.new_view) == self.replica_id
        ):
            self._install_new_view(message.new_view, votes)

    def _install_new_view(self, new_view: int, votes: Dict[str, ViewChange]) -> None:
        intercept = self.new_view_intercept
        if intercept is not None and intercept(new_view, votes):
            return
        if self.view >= new_view:
            return
        # Re-propose every prepared request from the union of the votes,
        # picking the highest-view certificate per sequence number.
        best: Dict[int, Tuple[int, bytes, Tuple[Request, ...]]] = {}
        max_stable = 0
        for vote in votes.values():
            max_stable = max(max_stable, vote.stable_seq)
            for seq, view, digest, batch in vote.prepared:
                current = best.get(seq)
                if current is None or view > current[0]:
                    best[seq] = (view, digest, batch)
        # Fill holes with null requests (PBFT): every sequence number up to
        # the highest re-proposed one must be assigned in the new view, or
        # in-order execution would stall at the gap forever.
        if best:
            for seq in range(max_stable + 1, max(best) + 1):
                if seq not in best:
                    best[seq] = (0, batch_digest(()), ())
        pre_prepares = tuple(
            PrePrepare(
                view=new_view,
                seq=seq,
                digest=batch_digest(batch),
                batch=batch,
                replica_id=self.replica_id,
            )
            for seq, (_view, _digest, batch) in sorted(best.items())
            if seq > max_stable
        )
        new_view_message = NewView(
            new_view=new_view,
            view_change_senders=tuple(sorted(votes)),
            pre_prepares=pre_prepares,
            replica_id=self.replica_id,
        )
        self._broadcast(new_view_message)
        self._adopt_new_view(new_view_message)

    def _on_new_view(self, message: NewView, sender: str) -> None:
        if message.replica_id != sender:
            return
        if sender != self.leader_of(message.new_view):
            return
        if message.new_view <= self.view:
            return
        if len(message.view_change_senders) < 2 * self.f + 1:
            return
        self._adopt_new_view(message)

    def _adopt_new_view(self, message: NewView) -> None:
        self.view = message.new_view
        self.in_view_change = False
        self._voted_view = max(self._voted_view, self.view)
        self.view_changes_completed += 1
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_view_adopted(
                self.replica_id, message.new_view, group=self.group
            )
        self._view_change_votes = {
            v: votes
            for v, votes in self._view_change_votes.items()
            if v > self.view
        }
        # Only requests re-proposed by the new leader remain assigned to a
        # live slot; anything else orphaned by the view change must be
        # proposable again when its retransmission arrives.
        self._proposed_keys = {
            request.key()
            for pre_prepare in message.pre_prepares
            for request in pre_prepare.batch
            if request.key() not in self._reply_cache
        }
        highest = self.executed_seq
        for pre_prepare in message.pre_prepares:
            highest = max(highest, pre_prepare.seq)
            if pre_prepare.seq <= self.executed_seq:
                continue
            if not self.log.in_window(pre_prepare.seq):
                continue
            slot = self.log.slot(pre_prepare.seq)
            # The new view's pre-prepare supersedes the old view's.
            slot.pre_prepare = pre_prepare
            slot.prepared = False
            slot.committed = slot.committed  # committed slots stay committed
            self.log.batches[pre_prepare.seq] = pre_prepare.batch
            if audit.enabled:
                # Report the adopted assignment like a direct pre-prepare
                # so a new leader sending conflicting NewView batches to
                # different replicas shows up as equivocation.
                audit.on_pre_prepare(
                    self.replica_id,
                    pre_prepare.view,
                    pre_prepare.seq,
                    pre_prepare.digest,
                    message.replica_id,
                    group=self.group,
                )
            if self.replica_id != message.replica_id:
                prepare = Prepare(
                    view=message.new_view,
                    seq=pre_prepare.seq,
                    digest=pre_prepare.digest,
                    replica_id=self.replica_id,
                )
                slot.record_prepare(prepare)
                self._broadcast(prepare)
            self._check_prepared(pre_prepare.seq)
        self.next_seq = max(self.next_seq, highest + 1)
        # Unexecuted requests we know about go back to the (new) leader.
        now = self.env.now
        for key in list(self._request_deadlines):
            self._request_deadlines[key] = now + self._current_timeout()
        if self.is_leader:
            self._kick_batcher()
        if self.onesided is not None:
            self.onesided.follow_leader()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop all replica processes (crash the replica)."""
        if self._groups is not None:
            for pipeline in self._groups[1:]:
                pipeline.running = False
                pipeline._kick_batcher()
            self._kick_exec()
        self.running = False
        self._kick_batcher()
        for connection in list(self._replica_conns.values()):
            connection.close()
        for connection in list(self._client_conns.values()):
            connection.close()
        self.endpoint.close()

    def __repr__(self) -> str:
        role = "leader" if self.is_leader else "backup"
        group = f" g{self.group}" if self.group else ""
        return (
            f"<Replica {self.replica_id}{group} view={self.view} {role} "
            f"executed={self.global_executed_seq}>"
        )


#: ``Replica._dispatch``'s handler per message class.  A reply or busy
#: signal sent to a replica has none: it is a protocol violation.
_HANDLERS = {
    Request: Replica._on_request,
    PrePrepare: Replica._on_pre_prepare,
    Prepare: Replica._on_prepare,
    Commit: Replica._on_commit,
    Checkpoint: Replica._on_checkpoint,
    ViewChange: Replica._on_view_change,
    NewView: Replica._on_new_view,
    StateTransferRequest: Replica._on_state_transfer_request,
    StateTransferReply: Replica._on_state_transfer_reply,
}


class _GroupPipeline(Replica):
    """Consensus group ``group`` >= 1 of a COP replica.

    A full PBFT ordering pipeline — its own log, view, timers, view
    changes and checkpoints — over its owner's endpoint, application,
    client connections and counters.  It never executes: committed slots
    go to the owner's merge stage, whose executor applies them in merged
    order (which is also when this pipeline's checkpoints are taken, so
    their digests cover the global state at the merged execution point).
    """

    def __init__(self, owner: Replica, group: int):
        # Not Replica.__init__, which builds a whole replica.
        self.config = owner.config
        self.replica_id = owner.replica_id
        self.endpoint = owner.endpoint
        self.env = owner.env
        self.all_ids = owner.all_ids
        self.app = owner.app
        self._client_conns = owner._client_conns
        self.state_transfers_served = owner.state_transfers_served
        self.state_transfer_bytes = owner.state_transfer_bytes
        self.shed_requests = owner.shed_requests
        self.onesided = None
        self._coordinator = owner
        self._groups = None
        self.group = group
        self._start_pipeline()
