"""Multi-group ordering pipelines and the merged execution coordinator.

The COP deployment model (PAPER.md §1.5): every replica hosts
``group_count`` *consensus groups*, each an independent PBFT ordering
pipeline over its own shard of the sequence space, all multiplexed over
the replica's single set of Reptor connections.  Committed per-group
entries flow into the :class:`~repro.bft.cop.merge.MergeStage`, and one
coordinator process per replica executes the merged total order strictly
serially — so application state, reply order, and checkpoint digests are
pure functions of the merged prefix, identical on every correct replica.

Wire format: when ``group_count > 1`` every replica-to-replica frame is
prefixed with one tag byte ``0x80 | group``.  Protocol message encodings
themselves are untouched (their first byte is a small type id, never >=
0x80), and client traffic stays untagged — the partitioner is a pure
function of the request id, so each replica derives the target group
locally.  With ``group_count == 1`` no tagging, no extra processes and
no extra simulation events exist: a :class:`CopReplica` is bit-identical
to the sequential :class:`~repro.bft.replica.Replica` (pinned by the
schedule-fingerprint tests).

Leadership is rotated per group — group ``g`` in view ``v`` is led by
``all_ids[(v + g) % n]`` — so at view 0 the ``n`` group leaders spread
across distinct hosts, which is exactly where the parallel pipelines
pay off once handler CPU (signatures) is the bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.audit import get_audit
from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.cop.merge import MergeStage
from repro.bft.cop.partition import make_partitioner
from repro.bft.messages import PrePrepare, Reply, Request, decode, encode
from repro.bft.replica import Replica, batch_digest
from repro.errors import BftError
from repro.reptor import ReptorConnection, ReptorEndpoint
from repro.bft.statemachine import StateMachine
from repro.sim import Drive
from repro.trace import get_tracer

__all__ = [
    "CopClient",
    "CopGroupEquivocator",
    "CopReplica",
    "GroupConnection",
    "GroupPipeline",
]

#: High bit of the first frame byte marks a group-tagged frame; the low
#: seven bits carry the group id.  Message type ids are tiny integers,
#: so an untagged frame can never be mistaken for a tagged one.
GROUP_TAG = 0x80


class GroupConnection:
    """A per-group view of one shared replica-to-replica connection.

    Prepends the group tag byte on every send so the receiving replica
    can demultiplex the frame to the right ordering pipeline.  Reads
    never happen here — the owning replica runs one mux receive loop
    per underlying connection.
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


class GroupPipeline(Replica):
    """One non-coordinator consensus group of a :class:`CopReplica`.

    A full PBFT pipeline (agreement, view changes, checkpoints) that
    shares its owner's endpoint, application and client connections.
    It never executes batches itself: committed slots are handed to the
    owner's merge stage, and the owner's coordinator process applies
    them in merged order (which is also when this pipeline's
    checkpoints are taken, so their digests cover the global state at
    the merged execution point).
    """

    def __init__(self, owner: "CopReplica", group: int):
        self.owner = owner
        self.group = group
        super().__init__(
            owner.replica_id,
            owner.endpoint,
            list(owner.all_ids),
            owner.app,
            config=owner.config,
            recover=False,
        )
        # Clients talk to the replica, not to a group: share the owner's
        # connection table so replies reach them from any pipeline.
        self._client_conns = owner._client_conns

    def leader_of(self, view: int) -> str:
        """Group-rotated leadership: distinct groups get distinct
        leaders in the same view (group 0 keeps the base formula)."""
        return self.all_ids[(view + self.group) % self.n]

    def _wire_endpoint(self) -> None:
        # The owner demultiplexes group-tagged traffic to this pipeline;
        # subscribing here would double-deliver every connection.
        pass

    def _execute_ready(self) -> None:
        self.owner._drain_group(self)

    def begin_state_transfer(self) -> None:
        # One group lagging means the merged order is lagging: recovery
        # is coordinated across all groups by the owner.
        self.owner.begin_state_transfer()

    def _try_install_state(self) -> None:
        # Installation decisions belong to the owner's coordinator (and
        # must never run mid-batch), so a new reply just wakes it.
        self.owner._kick_exec()

    def __repr__(self) -> str:
        return (
            f"<GroupPipeline {self.replica_id} g{self.group} "
            f"view={self.view} executed={self.executed_seq}>"
        )


class CopReplica(Replica):
    """A replica running ``group_count`` parallel ordering pipelines.

    The replica object itself is group 0's pipeline *and* the
    coordinator: it owns the merge stage, the serial merged-order
    executor, the merge-stall fill loop, and the frame mux over the
    shared connections.  With ``group_count == 1`` every override
    delegates straight to the base class and no COP process is spawned
    — the degenerate case schedules bit-identically.
    """

    def __init__(
        self,
        replica_id: str,
        endpoint: ReptorEndpoint,
        peer_ids: List[str],
        app: StateMachine,
        config: Optional[BftConfig] = None,
        recover: bool = False,
    ):
        cfg = config if config is not None else BftConfig()
        self._merge = MergeStage(cfg.group_count)
        self._partitioner = make_partitioner(cfg.partitioner, cfg.group_count)
        self._groups: List[Replica] = [self]
        self._exec_kick = None
        self._cop_st_active = False
        self._cop_st_started = 0.0
        self._st_attempted_slot = 0
        super().__init__(
            replica_id,
            endpoint,
            peer_ids,
            app,
            config=cfg,
            recover=recover if cfg.group_count == 1 else False,
        )
        if cfg.group_count > 1:
            for group in range(1, cfg.group_count):
                self._groups.append(self._make_group_pipeline(group))
            self.env.process(
                self._cop_execute_loop(), name=f"{replica_id}.cop-exec"
            )
            self.env.process(
                self._merge_fill_loop(), name=f"{replica_id}.cop-fill"
            )
            if recover:
                self.begin_state_transfer()

    def _make_group_pipeline(self, group: int) -> Replica:
        """Factory hook: Byzantine subclasses substitute faulty groups."""
        return GroupPipeline(self, group)

    # -- identity ------------------------------------------------------

    def group_children(self) -> Tuple[Replica, ...]:
        return tuple(self._groups[1:])

    @property
    def global_executed_seq(self) -> int:
        if self.config.group_count == 1:
            return self.executed_seq
        return self._merge.position

    # -- wiring & mux --------------------------------------------------

    def attach_peer(self, peer_id: str, connection: ReptorConnection) -> None:
        if self.config.group_count == 1:
            super().attach_peer(peer_id, connection)
            return
        self._bind_peer(peer_id, connection)

    def _on_inbound_connection(self, connection: ReptorConnection) -> None:
        if self.config.group_count == 1:
            super()._on_inbound_connection(connection)
            return
        peer = connection.peer_name
        if peer in self.all_ids:
            self._bind_peer(peer, connection)
        else:
            self._client_conns[peer] = connection
            Drive(
                self.env,
                self._cop_client_receive_loop(connection),
                name=f"{self.replica_id}<-client.rx",
            )

    def _bind_peer(self, peer_id: str, connection: ReptorConnection) -> None:
        """Give every pipeline a tagged view of the shared connection
        and start the single demux loop that feeds them all."""
        for pipeline in self._groups:
            pipeline._replica_conns[peer_id] = GroupConnection(
                connection, pipeline.group
            )
        Drive(
            self.env,
            self._mux_receive_loop(connection, peer_id),
            name=f"{self.replica_id}<-{peer_id}.rx",
        )

    def _mux_receive_loop(self, connection: ReptorConnection, peer: str):
        while self.running and not connection.closed:
            try:
                raw = yield connection.receive()
            except BftError:
                return
            if raw and raw[0] & GROUP_TAG:
                group = raw[0] & 0x7F
                payload = bytes(raw[1:])
            else:
                group, payload = 0, raw
            if group >= len(self._groups):
                continue  # tag for a group we do not run: drop
            try:
                message = decode(payload)
            except BftError:
                connection.close()
                return
            self._groups[group]._route(message, peer)

    def _cop_client_receive_loop(self, connection: ReptorConnection):
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
                group = self._partitioner.group_of(
                    message.client_id, message.timestamp
                )
                self._groups[group]._route(message, message.client_id)
            # Anything else from a client is ignored.

    # -- merged execution ----------------------------------------------

    def _execute_ready(self) -> None:
        if self.config.group_count == 1:
            super()._execute_ready()
            return
        self._drain_group(self)

    def _drain_group(self, pipeline: Replica) -> None:
        """Hand a pipeline's contiguous committed slots to the merge.

        Mirrors the base execute-ready scan, but instead of executing,
        each slot is buffered at its global merge slot; the coordinator
        executes it once every lower slot has merged.
        """
        while True:
            next_seq = pipeline.executed_seq + 1
            slot = pipeline.log.slots.get(next_seq)
            if slot is None or not slot.committed or slot.executed:
                break
            batch = pipeline._request_batches.get(
                next_seq, slot.pre_prepare.batch
            )
            slot.executed = True
            pipeline.executed_seq = next_seq
            pipeline._vc_backoff = 0
            self._merge.offer(pipeline.group, next_seq, (pipeline, slot, batch))
        self._kick_exec()

    def _kick_exec(self) -> None:
        if self._exec_kick is not None and not self._exec_kick.triggered:
            self._exec_kick.succeed()

    def _cop_execute_loop(self):
        """The coordinator: executes merged slots strictly one batch at
        a time, so every replica applies the identical operation stream
        and checkpoint digests are deterministic."""
        while self.running:
            if self._cop_st_active:
                self._cop_install_now()
            item = None if self._cop_st_active else self._merge.pop_ready()
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
            yield from self._cop_execute_batch(pipeline, slot, batch)
            if slot.seq % self.config.checkpoint_interval == 0:
                pipeline._take_checkpoint(slot.seq)

    def _cop_execute_batch(self, pipeline: Replica, slot, batch):
        cpu = self.endpoint.host.cpu
        tracer = get_tracer(self.env)
        span = None
        ctx = pipeline._slot_trace_ctx.get(slot.seq)
        if tracer.enabled and ctx is not None:
            span = tracer.start_span(
                "bft.execute",
                layer="bft",
                parent=ctx,
                track=self.replica_id,
                seq=slot.seq,
                batch_size=len(batch),
                group=pipeline.group,
            )
        try:
            for request in batch:
                yield cpu.execute(self.config.execution_cost)
                result = self.app.apply(request.operation)
                reply = Reply(
                    replica_id=self.replica_id,
                    client_id=request.client_id,
                    timestamp=request.timestamp,
                    view=pipeline.view,
                    result=result,
                )
                pipeline._reply_cache[request.key()] = reply
                pipeline._request_deadlines.pop(request.key(), None)
                pipeline._proposed_keys.discard(request.key())
                pipeline._reply_to_client(
                    reply, trace_ctx=pipeline._message_trace_ctx(request)
                )
        finally:
            if span is not None:
                span.end()
            pipeline._finish_slot_trace(slot.seq)

    # -- merge-stall liveness ------------------------------------------

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
            if self._cop_st_active:
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

    # -- coordinated state transfer ------------------------------------

    def begin_state_transfer(self) -> None:
        if self.config.group_count == 1:
            super().begin_state_transfer()
            return
        if self._cop_st_active:
            return
        self._cop_st_active = True
        self._cop_st_started = self.env.now
        audit = get_audit(self.env)
        if audit.enabled:
            audit.on_state_transfer(
                self.replica_id, "started", low_seq=self._merge.position
            )
        for pipeline in self._groups:
            pipeline._st_active = True
            pipeline._st_replies = {}
            self.env.process(
                pipeline._state_transfer_loop(),
                name=f"{self.replica_id}.g{pipeline.group}.statex",
            )
        self._kick_exec()

    def _try_install_state(self) -> None:
        if self.config.group_count == 1:
            super()._try_install_state()
            return
        self._kick_exec()

    def _cop_install_now(self) -> bool:
        """Run the coordinated install from the executor's context.

        Picks the f+1-agreed per-group checkpoint covering the highest
        merged slot, installs it (the snapshot is global state at that
        merged point), aligns every other group's log to the merged
        prefix, then extends slot by slot with per-slot f+1-agreed
        suffix batches.  Returns True when the transfer completed.
        """
        if not self._cop_st_active:
            return False
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
        self._cop_st_active = False
        self.state_transfers_completed += 1
        self.rejoin_latency.record(self.env.now - self._cop_st_started)
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

    # -- lifecycle -----------------------------------------------------

    def stop(self) -> None:
        for pipeline in self._groups[1:]:
            pipeline.running = False
            pipeline._kick_batcher()
        self._kick_exec()
        super().stop()

    def __repr__(self) -> str:
        return (
            f"<CopReplica {self.replica_id} groups={self.config.group_count} "
            f"merged={self.global_executed_seq}>"
        )


class CopClient(BftClient):
    """Client aware of the group partition and per-group leaders.

    Derives the target group of each request with the same partitioner
    the replicas use and addresses the *group's* suspected leader
    first; replies teach it per-group views.  With ``group_count == 1``
    it is bit-identical to :class:`~repro.bft.client.BftClient`.
    """

    def __init__(
        self,
        client_id: str,
        endpoint: ReptorEndpoint,
        replica_ids: List[str],
        f: int,
        group_count: int = 1,
        partitioner: str = "hash",
        **kwargs,
    ):
        super().__init__(client_id, endpoint, replica_ids, f, **kwargs)
        self.group_count = group_count
        self._partitioner = make_partitioner(partitioner, group_count)
        self._group_views: Dict[int, int] = {}

    def _leader_hint(self, timestamp: int) -> str:
        if self.group_count == 1:
            return super()._leader_hint(timestamp)
        group = self._partitioner.group_of(self.client_id, timestamp)
        view = self._group_views.get(group, 0)
        return self.replica_ids[(view + group) % len(self.replica_ids)]

    def _on_reply(self, reply: Reply) -> None:
        if self.group_count > 1 and reply.client_id == self.client_id:
            group = self._partitioner.group_of(self.client_id, reply.timestamp)
            self._group_views[group] = max(
                self._group_views.get(group, 0), reply.view
            )
        super()._on_reply(reply)


class _GroupEquivocationMixin:
    """Equivocating pre-prepare behaviour shared by the Byzantine COP
    classes (same attack as
    :class:`repro.bft.byzantine.EquivocatingLeader`)."""

    def _init_equivocation(self) -> None:
        self.equivocate = False
        self._victims: Set[str] = set()

    def start_equivocating(self, victims: Optional[Set[str]] = None) -> None:
        """Send forged pre-prepares to ``victims`` (default: half the
        other replicas) from now on."""
        self.equivocate = True
        if victims is None:
            others = [p for p in self.all_ids if p != self.replica_id]
            victims = set(others[: len(others) // 2])
        self._victims = victims

    def _outbound_filter(self, message, raw: bytes, peer_id: str):
        if (
            self.equivocate
            and isinstance(message, PrePrepare)
            and peer_id in self._victims
        ):
            forged_batch = tuple(
                type(request)(
                    client_id=request.client_id,
                    timestamp=request.timestamp,
                    operation=b"FORGED:" + request.operation,
                )
                for request in message.batch
            )
            forged = PrePrepare(
                view=message.view,
                seq=message.seq,
                digest=batch_digest(forged_batch),
                batch=forged_batch,
                replica_id=self.replica_id,
            )
            return encode(forged)
        return super()._outbound_filter(message, raw, peer_id)


class _EquivocatingGroupPipeline(_GroupEquivocationMixin, GroupPipeline):
    """A single Byzantine consensus group inside an otherwise honest
    replica host."""

    BYZANTINE = True

    def __init__(self, owner: "CopReplica", group: int):
        super().__init__(owner, group)
        self._init_equivocation()


class CopGroupEquivocator(_GroupEquivocationMixin, CopReplica):
    """COP replica whose ``byzantine_group`` pipeline equivocates.

    Models the COP-specific fault surface: one consensus group turns
    Byzantine while the host's other groups keep behaving — the audit
    invariants must localise the violation to that group while the
    merged order stays safe.
    """

    BYZANTINE = True

    def __init__(self, *args, byzantine_group: int = 1, **kwargs):
        self.byzantine_group = byzantine_group
        self._init_equivocation()
        super().__init__(*args, **kwargs)

    def _make_group_pipeline(self, group: int) -> Replica:
        if group == self.byzantine_group:
            return _EquivocatingGroupPipeline(self, group)
        return super()._make_group_pipeline(group)

    def arm_group_equivocation(
        self,
        victims: Optional[Set[str]] = None,
        group: Optional[int] = None,
    ) -> None:
        """Start equivocating in ``group`` (default the configured
        Byzantine group; group 0 is the coordinator itself)."""
        target = self.byzantine_group if group is None else group
        self._groups[target].start_equivocating(victims)
