"""Online invariant auditors for the BFT protocol and the RDMA stack.

Both auditors are pure observers fed by hook calls from the audited
subsystems (routed through :class:`~repro.audit.core.AuditManager`).
They keep tiny cross-replica tables and report violations back to the
manager, which records them and dumps a flight-recorder post-mortem.

Invariant catalogue
-------------------

PBFT safety (:class:`BftSafetyAuditor`):

* ``bft.pre-prepare-equivocation`` — two replicas accepted different
  request digests for the same ``(view, seq)`` assignment;
* ``bft.execution-divergence`` — two replicas executed different batch
  digests at the same sequence number (the core safety property);
* ``bft.commit-quorum`` — a commit certificate held fewer than
  ``2f + 1`` distinct signers;
* ``bft.view-regression`` — a replica's view number moved backwards
  within one incarnation;
* ``bft.view-change-equivocation`` — two replicas observed different
  encodings of the same voter's ViewChange vote for one new view (a
  Byzantine voter told different peers different stories);
* ``bft.checkpoint-divergence`` — two replicas stabilised the same
  checkpoint sequence with different state digests (stability must
  imply log-prefix agreement);
* ``bft.consensus-stall`` — raised by the watchdog: requests
  outstanding but no execution progress for longer than the configured
  stall timeout.

COP (multi-group) safety, degenerate at ``group_count=1``:

* ``bft.merge-slot-conflict`` — per-group sequence disjointness: two
  different ``(group, seq)`` identities claimed the same global merge
  slot, or a replica reported a merged position that contradicts the
  round-robin slot arithmetic;
* ``bft.merge-premature-execution`` — a replica executed a global merge
  slot before every lower slot was executed (or installed via a stable
  checkpoint): merged execution must advance one slot at a time, which
  together with ``bft.execution-divergence`` keyed by the *global* slot
  is merge-order determinism.

RDMA / RUBIN resources (:class:`ResourceAuditor`):

* ``rdma.qp-state`` — a queue pair left the verbs state machine
  (INIT→RTR→RTS→ERROR, with the simulator's collapsed RESET→RTS
  connect accepted as the CM shortcut);
* ``rdma.recv-wr-dropped`` — a QP was destroyed while posted receive
  WRs had produced no completion (every posted WR must complete,
  successfully or flushed);
* ``rdma.recv-not-posted`` — a receive completion surfaced for a WR
  the auditor never saw posted;
* ``rdma.cq-overrun`` — a completion push would exceed CQ capacity;
* ``rdma.rnr-budget-exceeded`` — a requester performed more RNR retry
  rounds than its configured ``rnr_retry`` budget allows;
* ``rdma.send-without-credit`` — a two-sided SEND was posted past the
  peer's advertised receive window (flow control must gate the post);
* ``rdma.credit-overadvertised`` — a responder advertised more credits
  than receives it ever posted (credits must be conserved);
* ``rdma.credit-regression`` — a responder's advertised cumulative
  credit moved backwards (advertisements are monotonic);
* ``rubin.pool-double-return`` — a pooled buffer was returned while
  already free (checkout/return must balance);
* ``rubin.pool-overflow`` — a pool's free list exceeded its capacity;
* ``rubin.selector-starvation`` — a selection key stayed ready for
  more consecutive select passes than the configured tick budget
  without ever going unready (its events are never being consumed).

One-sided agreement (dynamic permissions + slot arrays):

* ``rdma.stale-permission-access`` — a one-sided access was denied
  because its permission epoch was revoked under the in-flight WR or
  its rkey belongs to a deregistered region: the deterministic
  permission fence observed working (fires on the *offending* peer);
* ``rdma.unauthorized-write`` — a one-sided write from a peer outside
  the region's grant table was denied, or (guarding off) a write from
  someone other than the region's declared writer *landed* — the forged
  write the compromised-rkey fault family injects;
* ``rdma.unauthorized-read`` — the read-side counterpart of the above
  denial;
* ``bft.onesided-slot-overwrite`` — reported by the one-sided protocol
  poller: a proposal/ack slot's bytes were overwritten with something
  that is not a legitimate successor record (corrupted seal/CRC, wrong
  lane identity, or a non-record scribble over a consumed slot).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.core import AuditManager

__all__ = ["BftSafetyAuditor", "ResourceAuditor"]

#: The streak table of a host with no previous select pass.
_NO_STREAKS: Dict[int, Tuple[int, int]] = {}


class BftSafetyAuditor:
    """Cross-replica safety checks over the PBFT hook stream."""

    def __init__(self, manager: "AuditManager"):
        self.manager = manager
        self.f: Optional[int] = None
        #: Consensus groups (COP); 1 keeps the historical single-group
        #: keying where the global merge slot equals the sequence number.
        self.group_count = 1
        #: (group, view, seq) -> (digest, first reporter)
        self._proposals: Dict[Tuple[int, int, int], Tuple[bytes, str]] = {}
        #: global merge slot -> (digest, first executor)
        self._executions: Dict[int, Tuple[bytes, str]] = {}
        #: global merge slot -> ((group, seq), first reporter) —
        #: per-group sequence disjointness over the merged order.
        self._slot_claims: Dict[int, Tuple[Tuple[int, int], str]] = {}
        #: replica -> last executed global merge slot this incarnation.
        self._exec_frontier: Dict[str, int] = {}
        #: replica -> highest stable-checkpoint slot this incarnation.
        #: A checkpoint can stabilise *ahead* of a lagging replica's own
        #: execution (2f+1 faster peers voted), so it is tracked apart
        #: from the execution frontier: it only legitimises resuming at
        #: ``checkpoint + 1`` after a state-transfer install, it does
        #: not mean the replica executed the covered prefix itself.
        self._ckpt_frontier: Dict[str, int] = {}
        #: (group, seq) -> (state digest, first stabiliser)
        self._checkpoints: Dict[Tuple[int, int], Tuple[bytes, str]] = {}
        #: (replica, group) -> highest view adopted this incarnation
        self._views: Dict[Tuple[str, int], int] = {}
        #: (group, voter, new_view) -> (vote encoding digest, first
        #: observer)
        self._vc_votes: Dict[Tuple[int, str, int], Tuple[bytes, str]] = {}

    def configure(self, f: int, group_count: int = 1) -> None:
        """Learn the fault threshold (enables the quorum-size check) and
        the consensus-group count (enables merge-slot arithmetic)."""
        self.f = f
        self.group_count = max(1, group_count)

    def _global_slot(self, group: int, seq: int) -> Optional[int]:
        """Merged global slot of ``(group, seq)``, or None if the group
        is outside the configured shard space (nothing to derive)."""
        if not 0 <= group < self.group_count or seq < 1:
            return None
        return (seq - 1) * self.group_count + group + 1

    # -- hooks ----------------------------------------------------------

    def on_pre_prepare(
        self, replica: str, view: int, seq: int, digest: bytes,
        group: int = 0,
    ) -> None:
        key = (group, view, seq)
        known = self._proposals.get(key)
        if known is None:
            self._proposals[key] = (digest, replica)
            self._prune(self._proposals, by_seq=lambda k: k[2])
            return
        if known[0] != digest:
            detail = dict(
                view=view,
                seq=seq,
                digest=digest.hex()[:16],
                conflicting_digest=known[0].hex()[:16],
                first_reporter=known[1],
            )
            if group:
                detail["group"] = group
            self.manager.violation(
                "bft.pre-prepare-equivocation",
                layer="bft",
                subject=replica,
                **detail,
            )

    def on_commit_quorum(
        self, replica: str, view: int, seq: int, signers: Iterable[str],
        group: int = 0,
    ) -> None:
        distinct = set(signers)
        if self.f is not None and len(distinct) < 2 * self.f + 1:
            detail = dict(
                view=view,
                seq=seq,
                signers=sorted(distinct),
                required=2 * self.f + 1,
            )
            if group:
                detail["group"] = group
            self.manager.violation(
                "bft.commit-quorum",
                layer="bft",
                subject=replica,
                **detail,
            )

    def on_execute(
        self,
        replica: str,
        seq: int,
        digest: bytes,
        group: int = 0,
        global_seq: Optional[int] = None,
    ) -> None:
        derived = self._global_slot(group, seq)
        slot = global_seq if global_seq is not None else derived
        if (
            derived is not None
            and global_seq is not None
            and global_seq != derived
        ):
            # The replica's reported merge position contradicts the
            # round-robin slot arithmetic for (group, seq).
            self.manager.violation(
                "bft.merge-slot-conflict",
                layer="bft",
                subject=replica,
                group=group,
                seq=seq,
                reported_global_seq=global_seq,
                derived_global_seq=derived,
            )
        if slot is None:
            return
        claim = self._slot_claims.get(slot)
        if claim is None:
            self._slot_claims[slot] = ((group, seq), replica)
            self._prune(self._slot_claims, by_seq=lambda k: k)
        elif claim[0] != (group, seq):
            self.manager.violation(
                "bft.merge-slot-conflict",
                layer="bft",
                subject=replica,
                global_seq=slot,
                group=group,
                seq=seq,
                first_claim=f"group={claim[0][0]} seq={claim[0][1]}",
                first_reporter=claim[1],
            )
        frontier = self._exec_frontier.get(replica)
        if frontier is not None:
            allowed = {frontier + 1}
            ckpt = self._ckpt_frontier.get(replica, 0)
            if ckpt > frontier:
                # A state-transfer install may legitimately jump the
                # execution stream to just past the stable checkpoint.
                allowed.add(ckpt + 1)
            if slot not in allowed:
                self.manager.violation(
                    "bft.merge-premature-execution",
                    layer="bft",
                    subject=replica,
                    global_seq=slot,
                    frontier=frontier,
                    group=group,
                    seq=seq,
                )
        if frontier is None or slot > frontier:
            self._exec_frontier[replica] = slot
        known = self._executions.get(slot)
        if known is None:
            self._executions[slot] = (digest, replica)
            self._prune(self._executions, by_seq=lambda k: k)
            return
        if known[0] != digest:
            detail = dict(
                seq=seq,
                digest=digest.hex()[:16],
                conflicting_digest=known[0].hex()[:16],
                first_executor=known[1],
            )
            if group or slot != seq:
                detail["group"] = group
                detail["global_seq"] = slot
            self.manager.violation(
                "bft.execution-divergence",
                layer="bft",
                subject=replica,
                **detail,
            )

    def on_view_adopted(
        self, replica: str, view: int, group: int = 0
    ) -> None:
        key = (replica, group)
        last = self._views.get(key)
        if last is not None and view < last:
            detail = dict(view=view, previous_view=last)
            if group:
                detail["group"] = group
            self.manager.violation(
                "bft.view-regression",
                layer="bft",
                subject=replica,
                **detail,
            )
            return
        self._views[key] = view

    def on_view_change_vote(
        self, replica: str, voter: str, new_view: int, digest: bytes,
        group: int = 0,
    ) -> None:
        key = (group, voter, new_view)
        known = self._vc_votes.get(key)
        if known is None:
            self._vc_votes[key] = (digest, replica)
            self._prune(self._vc_votes, by_seq=lambda k: k[2])
            return
        if known[0] != digest and replica != known[1]:
            detail = dict(
                new_view=new_view,
                observer=replica,
                digest=digest.hex()[:16],
                conflicting_digest=known[0].hex()[:16],
                first_observer=known[1],
            )
            if group:
                detail["group"] = group
            self.manager.violation(
                "bft.view-change-equivocation",
                layer="bft",
                subject=voter,
                **detail,
            )

    def on_stable_checkpoint(
        self, replica: str, seq: int, digest: bytes, group: int = 0
    ) -> None:
        key = (group, seq)
        known = self._checkpoints.get(key)
        if known is None:
            self._checkpoints[key] = (digest, replica)
            self._prune(self._checkpoints, by_seq=lambda k: k[1])
        elif known[0] != digest:
            detail = dict(
                seq=seq,
                digest=digest.hex()[:16],
                conflicting_digest=known[0].hex()[:16],
                first_stabiliser=known[1],
            )
            if group:
                detail["group"] = group
            self.manager.violation(
                "bft.checkpoint-divergence",
                layer="bft",
                subject=replica,
                **detail,
            )
        # A stable checkpoint vouches for the merged prefix up to its
        # slot: remember it so a state-transfer install resuming at
        # ``slot + 1`` is not read as a merge-order jump.
        slot = self._global_slot(group, seq)
        if slot is not None:
            frontier = self._ckpt_frontier.get(replica)
            if frontier is None or slot > frontier:
                self._ckpt_frontier[replica] = slot

    def on_replica_restart(self, replica: str) -> None:
        # A fresh incarnation legitimately restarts at view 0 and works
        # its way back up; monotonicity holds per incarnation only.
        for key in [k for k in self._views if k[0] == replica]:
            del self._views[key]
        # Likewise it may re-vote for a view its previous incarnation
        # already voted for, with a different (post-recovery) log.
        for key in [k for k in self._vc_votes if k[1] == replica]:
            del self._vc_votes[key]
        # And its merged execution restarts from whatever checkpoint it
        # recovers to; the frontiers re-baseline on the next execution.
        self._exec_frontier.pop(replica, None)
        self._ckpt_frontier.pop(replica, None)

    # -- bookkeeping ----------------------------------------------------

    def _prune(self, table: Dict, by_seq) -> None:
        """Keep the tables bounded: drop the oldest sequence numbers."""
        limit = self.manager.config.max_tracked_seqs
        while len(table) > limit:
            oldest = min(table, key=by_seq)
            del table[oldest]


class ResourceAuditor:
    """RDMA/RUBIN accounting checks over the resource hook stream."""

    #: Legal queue-pair transitions.  INIT→RTR→RTS is the verbs ladder;
    #: RESET→RTS is the simulator's collapsed CM connect; anything may
    #: fall to ERROR.
    LEGAL_QP_TRANSITIONS = {
        ("RESET", "INIT"),
        ("RESET", "RTS"),
        ("INIT", "RTR"),
        ("RTR", "RTS"),
    }

    def __init__(self, manager: "AuditManager"):
        self.manager = manager
        #: qp_num -> wr_ids posted but not yet completed
        self._posted_recvs: Dict[int, Set[int]] = {}
        #: qp_num -> cumulative receives ever posted (credit conservation)
        self._posted_total: Dict[int, int] = {}
        #: qp_num -> highest credit a requester has seen advertised
        self._seen_credit: Dict[int, int] = {}
        #: host -> {channel_id -> (consecutive no-progress ready passes,
        #: last observed progress marker)}, keys of the host's last pass
        self._ready_streaks: Dict[str, Dict[int, Tuple[int, int]]] = {}
        #: (host, rkey) -> the only peer allowed to one-sided-write it
        #: (declared protocol intent; see :meth:`declare_region_writer`).
        self._declared_writers: Dict[Tuple[str, int], str] = {}
        self.max_cq_depth = 0

    # -- queue pairs ----------------------------------------------------

    def on_qp_transition(
        self, host: str, qp_num: int, old: str, new: str
    ) -> None:
        if new != "ERROR" and (old, new) not in self.LEGAL_QP_TRANSITIONS:
            self.manager.violation(
                "rdma.qp-state",
                layer="rdma",
                subject=host,
                qp_num=qp_num,
                transition=f"{old}->{new}",
            )

    def on_post_recv(self, qp_num: int, wr_id: int) -> None:
        self._posted_recvs.setdefault(qp_num, set()).add(wr_id)
        self._posted_total[qp_num] = self._posted_total.get(qp_num, 0) + 1

    def on_recv_complete(self, qp_num: int, wr_id: int) -> None:
        outstanding = self._posted_recvs.get(qp_num)
        if outstanding is None or wr_id not in outstanding:
            self.manager.violation(
                "rdma.recv-not-posted",
                layer="rdma",
                subject=f"qp{qp_num}",
                wr_id=wr_id,
            )
            return
        outstanding.discard(wr_id)
        if not outstanding:
            del self._posted_recvs[qp_num]

    def on_qp_destroy(self, host: str, qp_num: int) -> None:
        self._posted_total.pop(qp_num, None)
        self._seen_credit.pop(qp_num, None)
        dropped = self._posted_recvs.pop(qp_num, None)
        if dropped:
            self.manager.violation(
                "rdma.recv-wr-dropped",
                layer="rdma",
                subject=host,
                qp_num=qp_num,
                dropped_wr_ids=sorted(dropped),
            )

    # -- dynamic permissions / one-sided writes --------------------------

    def declare_region_writer(self, host: str, rkey: int, writer: str) -> None:
        """Record that only ``writer`` may one-sided-write ``rkey`` on
        ``host``.  Declared by the protocol layer regardless of whether
        NIC-level guarding is on — the auditor then detects forged writes
        even when the NIC would have let them land."""
        self._declared_writers[(host, rkey)] = writer

    def on_remote_access_denied(
        self,
        host: str,
        qp_num: int,
        src_host: "Optional[str]",
        rkey: "Optional[int]",
        write: bool,
        reason: str,
    ) -> None:
        if reason in ("stale-epoch", "stale-rkey"):
            self.manager.violation(
                "rdma.stale-permission-access",
                layer="rdma",
                subject=src_host or "?",
                host=host,
                qp_num=qp_num,
                rkey=rkey,
                write=write,
                reason=reason,
            )
        elif reason == "unauthorized":
            self.manager.violation(
                "rdma.unauthorized-write" if write
                else "rdma.unauthorized-read",
                layer="rdma",
                subject=src_host or "?",
                host=host,
                qp_num=qp_num,
                rkey=rkey,
                reason=reason,
            )
        # Plain protection faults (bounds, access bits, foreign PD) stay
        # record-only: they are application errors, not attacks.

    def on_remote_write_applied(
        self,
        host: str,
        src_host: "Optional[str]",
        rkey: "Optional[int]",
        offset: int,
        length: int,
    ) -> None:
        declared = self._declared_writers.get((host, rkey))
        if declared is not None and src_host != declared:
            self.manager.violation(
                "rdma.unauthorized-write",
                layer="rdma",
                subject=src_host or "?",
                host=host,
                rkey=rkey,
                offset=offset,
                length=length,
                declared_writer=declared,
            )

    # -- completion queues ----------------------------------------------

    def on_cq_push(self, cq_name: str, depth: int, capacity: int) -> None:
        if depth > self.max_cq_depth:
            self.max_cq_depth = depth
        if depth > capacity:
            self.manager.violation(
                "rdma.cq-overrun",
                layer="rdma",
                subject=cq_name,
                depth=depth,
                capacity=capacity,
            )

    # -- flow control -----------------------------------------------------

    def on_rnr_retry(
        self, host: str, qp_num: int, used: int, budget: int
    ) -> None:
        if used > budget:
            self.manager.violation(
                "rdma.rnr-budget-exceeded",
                layer="rdma",
                subject=host,
                qp_num=qp_num,
                used=used,
                budget=budget,
            )

    def on_send_credit(
        self, host: str, qp_num: int, sent_total: int, credit_limit: int
    ) -> None:
        if sent_total > credit_limit:
            self.manager.violation(
                "rdma.send-without-credit",
                layer="rdma",
                subject=host,
                qp_num=qp_num,
                sent_total=sent_total,
                credit_limit=credit_limit,
            )

    def on_credit_advertised(self, qp_num: int, credit: int) -> None:
        posted = self._posted_total.get(qp_num, 0)
        if credit > posted:
            self.manager.violation(
                "rdma.credit-overadvertised",
                layer="rdma",
                subject=f"qp{qp_num}",
                credit=credit,
                posted=posted,
            )

    def on_credit_update(
        self, qp_num: int, credit: int, previous: int
    ) -> None:
        # Tracked against the auditor's own high-water mark, not the
        # requester's local limit, so an asymmetric initial_credit does
        # not read as a regression.
        seen = self._seen_credit.get(qp_num)
        if seen is not None and credit < seen:
            self.manager.violation(
                "rdma.credit-regression",
                layer="rdma",
                subject=f"qp{qp_num}",
                credit=credit,
                previous=seen,
            )
            return
        if seen is None or credit > seen:
            self._seen_credit[qp_num] = credit

    # -- buffer pools ----------------------------------------------------

    def on_buffer_acquire(
        self, pool: str, available: int, capacity: int
    ) -> None:
        if available < 0 or available > capacity:
            self.manager.violation(
                "rubin.pool-overflow",
                layer="rubin",
                subject=pool,
                available=available,
                capacity=capacity,
            )

    def on_buffer_release(
        self,
        pool: str,
        index: int,
        was_free: bool,
        available: int,
        capacity: int,
    ) -> None:
        if was_free:
            self.manager.violation(
                "rubin.pool-double-return",
                layer="rubin",
                subject=pool,
                buffer_index=index,
            )
            return
        if available + 1 > capacity:
            self.manager.violation(
                "rubin.pool-overflow",
                layer="rubin",
                subject=pool,
                available=available + 1,
                capacity=capacity,
            )

    # -- selector ---------------------------------------------------------

    def on_select_pass(
        self, host: str, ready: Sequence[Tuple[int, int]]
    ) -> None:
        """One completed select pass on ``host``.

        ``ready`` carries ``(channel_id, progress_marker)`` per ready
        key, where the marker is a per-channel counter of application
        I/O calls (read/write/accept/finish_connect).  A key is only
        *starving* if it stays ready across many passes while its
        marker never moves — a busy channel that the application keeps
        draining resets its streak on every serviced pass.
        """
        threshold = self.manager.config.starvation_ticks
        # This pass's table replaces the host's last one: a key missing
        # from it went unready, which ends its streak.
        last = self._ready_streaks.get(host, _NO_STREAKS)
        streaks = self._ready_streaks[host] = {}
        for channel_id, marker in ready:
            streak, last_marker = last.get(channel_id, (0, marker))
            if marker != last_marker:
                streak = 0  # the application serviced this key
            streak += 1
            streaks[channel_id] = (streak, marker)
            if streak == threshold:
                self.manager.violation(
                    "rubin.selector-starvation",
                    layer="rubin",
                    subject=host,
                    channel_id=channel_id,
                    consecutive_ready_passes=streak,
                )
