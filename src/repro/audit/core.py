"""The audit manager: hook fan-in, violation handling, and installation.

One :class:`AuditManager` per :class:`~repro.sim.Environment` (mirroring
the one-tracer-per-environment rule of :mod:`repro.trace`).  Audited
subsystems fetch it with :func:`get_audit` and guard every hook call on
``audit.enabled``, so the disabled default — :data:`NULL_AUDIT` — costs
one attribute read per hook site and nothing else::

    audit = get_audit(self.env)
    if audit.enabled:
        audit.on_view_adopted(self.replica_id, view)

The per-message sites (QP, CQ, buffer pool, selector) read the slot
itself, ``None`` while no manager is installed, and skip the call::

    audit = self.env.audit
    if audit is not None:
        audit.on_buffer_release(self.name, pooled.index, ...)

Everything the manager does is pure observation: hooks update auditor
tables, append to the flight recorder, and (on a violation) snapshot a
post-mortem — none of which schedules events or charges simulated time,
so an audited run makes byte-identical scheduling decisions for every
non-audit process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.audit.invariants import BftSafetyAuditor, ResourceAuditor
from repro.audit.recorder import (
    AuditError,
    FlightRecorder,
    postmortem_document,
    write_postmortem,
)

__all__ = [
    "AuditError",
    "AuditConfig",
    "Violation",
    "AuditManager",
    "NullAudit",
    "NULL_AUDIT",
    "get_audit",
    "install_audit",
    "active_audits",
    "drain_active_audits",
    "release_audit",
    "unexpected_violations",
]


@dataclass(frozen=True)
class AuditConfig:
    """Tunables for one audit manager."""

    #: Flight-recorder ring capacity (events).
    ring_size: int = 4096
    #: Consecutive no-progress select passes before a ready selection
    #: key is declared starved.
    starvation_ticks: int = 512
    #: Outstanding requests with no execution progress for this many
    #: simulated seconds raises ``bft.consensus-stall``.
    stall_timeout: float = 1.0
    #: Watchdog polling period (simulated seconds).
    watchdog_interval: float = 25e-3
    #: Cross-replica tables keep at most this many sequence numbers.
    max_tracked_seqs: int = 4096
    #: Directory post-mortems are written to (None keeps them in memory
    #: only, on ``AuditManager.postmortems``).
    dump_dir: Optional[str] = None
    #: In-memory violation list cap; older entries are dropped (and
    #: counted) once exceeded, so a pathological sweep cannot grow a
    #: manager without bound.
    max_violations: int = 4096
    #: In-memory post-mortem document cap (same drop-oldest scheme).
    #: Documents embed a full ring snapshot, so this cap dominates the
    #: manager's worst-case footprint during long exploration sweeps.
    max_postmortems: int = 64

    def __post_init__(self) -> None:
        if self.ring_size < 1:
            raise AuditError("ring_size must be >= 1")
        if self.starvation_ticks < 2:
            raise AuditError("starvation_ticks must be >= 2")
        if self.stall_timeout <= 0 or self.watchdog_interval <= 0:
            raise AuditError("watchdog timings must be positive")
        if self.max_tracked_seqs < 1:
            raise AuditError("max_tracked_seqs must be >= 1")
        if self.max_violations < 1:
            raise AuditError("max_violations must be >= 1")
        if self.max_postmortems < 1:
            raise AuditError("max_postmortems must be >= 1")


@dataclass(frozen=True)
class Violation:
    """One invariant failure, self-describing and JSON-ready."""

    rule: str
    layer: str
    subject: str
    time: float
    detail: Tuple[Tuple[str, Any], ...]

    def to_dict(self) -> Dict[str, Any]:
        from repro.audit.recorder import _jsonable

        return {
            "rule": self.rule,
            "layer": self.layer,
            "subject": self.subject,
            "time": self.time,
            "detail": {key: _jsonable(value) for key, value in self.detail},
        }

    def __str__(self) -> str:
        detail = ", ".join(f"{k}={v!r}" for k, v in self.detail)
        return (
            f"[{self.rule}] {self.subject} at t={self.time:.6f}"
            + (f" ({detail})" if detail else "")
        )


class AuditManager:
    """Fan-in point for every audit hook on one environment."""

    #: Hot paths check this before building hook arguments.
    enabled = True

    def __init__(
        self,
        env: Any = None,
        config: Optional[AuditConfig] = None,
        name: str = "audit",
        expect_violations: bool = False,
    ):
        self.env = env
        self.config = config if config is not None else AuditConfig()
        self.name = name
        #: Tests covering deliberately Byzantine/broken components set
        #: this so the conformance fixture skips the zero-violation
        #: assertion for this manager.
        self.expect_violations = expect_violations
        self.recorder = FlightRecorder(self.config.ring_size)
        self.violations: List[Violation] = []
        self.postmortems: List[Dict[str, Any]] = []
        self.postmortem_paths: List[str] = []
        #: Entries evicted from the capped lists above (never reset).
        self.violations_dropped = 0
        self.postmortems_dropped = 0
        self._postmortem_total = 0
        #: Passive observers notified after each BFT hook with the same
        #: arguments the hook received.  An observer implements any
        #: subset of the hook names (``on_execute``, ``on_commit_quorum``,
        #: ...); missing methods are skipped.  Observation only — an
        #: observer must never schedule events or mutate protocol state.
        self.observers: List[Any] = []
        self.bft = BftSafetyAuditor(self)
        self.resources = ResourceAuditor(self)
        #: Simulated time of the last execution progress (watchdog input).
        self.last_progress = 0.0
        # The per-message resource hooks record nothing (they would
        # flood the ring) and notify no observer: each *is* the
        # auditor's check, bound here so that a hook site reaches it in
        # one dispatch.
        resources = self.resources
        self.on_post_recv = resources.on_post_recv
        self.on_recv_complete = resources.on_recv_complete
        self.on_cq_push = resources.on_cq_push
        self.on_send_credit = resources.on_send_credit
        self.on_credit_advertised = resources.on_credit_advertised
        self.on_credit_update = resources.on_credit_update
        self.on_buffer_acquire = resources.on_buffer_acquire
        self.on_buffer_release = resources.on_buffer_release
        self.on_select_pass = resources.on_select_pass
        #: A one-sided WRITE landed (no CQE, no recv WR): checked against
        #: the declared-writer table (:meth:`declare_region_writer`), the
        #: memory-level detector for forged writes when guarding is off.
        self.on_remote_write_applied = resources.on_remote_write_applied

    def add_observer(self, observer: Any) -> Any:
        """Register a passive observer for BFT hook fan-out."""
        self.observers.append(observer)
        return observer

    def _notify(self, hook: str, *args: Any) -> None:
        for observer in self.observers:
            method = getattr(observer, hook, None)
            if method is not None:
                method(*args)

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    # -- recording and violations ---------------------------------------

    def record(
        self,
        layer: str,
        event: str,
        subject: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Append one flight-recorder event."""
        self.recorder.record(self.now(), layer, event, subject, **fields)

    def violation(
        self, rule: str, layer: str, subject: str, **detail: Any
    ) -> Violation:
        """Report an invariant failure: record it and dump a post-mortem."""
        entry = Violation(
            rule=rule,
            layer=layer,
            subject=str(subject),
            time=self.now(),
            detail=tuple(sorted(detail.items())),
        )
        self.violations.append(entry)
        if len(self.violations) > self.config.max_violations:
            overflow = len(self.violations) - self.config.max_violations
            del self.violations[:overflow]
            self.violations_dropped += overflow
        self.record(layer, "violation", entry.subject, rule=rule, **detail)
        self.dump_postmortem(f"violation:{rule}", violation=entry)
        self._notify("violation", entry)
        return entry

    def dump_postmortem(
        self, reason: str, violation: Optional[Violation] = None
    ) -> Dict[str, Any]:
        """Snapshot the flight recorder into a post-mortem document."""
        document = postmortem_document(
            self.recorder,
            reason=reason,
            time=self.now(),
            audit_name=self.name,
            violation=violation.to_dict() if violation is not None else None,
            violations=[v.to_dict() for v in self.violations],
        )
        self.postmortems.append(document)
        self._postmortem_total += 1
        if len(self.postmortems) > self.config.max_postmortems:
            overflow = len(self.postmortems) - self.config.max_postmortems
            del self.postmortems[:overflow]
            self.postmortems_dropped += overflow
        if self.config.dump_dir is not None:
            path = (
                f"{self.config.dump_dir}/{self.name}-postmortem-"
                f"{self._postmortem_total:03d}.json"
            )
            self.postmortem_paths.append(write_postmortem(document, path))
        return document

    # -- BFT hooks -------------------------------------------------------

    def on_pre_prepare(
        self,
        replica: str,
        view: int,
        seq: int,
        digest: bytes,
        leader: str,
        group: int = 0,
    ) -> None:
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        self.record(
            "bft", "pre-prepare", replica, view=view, seq=seq,
            digest=digest, leader=leader, **fields,
        )
        self.bft.on_pre_prepare(replica, view, seq, digest, group)
        self._notify(
            "on_pre_prepare", replica, view, seq, digest, leader, group
        )

    def on_commit_quorum(
        self,
        replica: str,
        view: int,
        seq: int,
        digest: bytes,
        signers: Iterable[str],
        group: int = 0,
    ) -> None:
        signers = sorted(signers)
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        self.record(
            "bft", "commit-quorum", replica, view=view, seq=seq,
            digest=digest, signers=signers, **fields,
        )
        self.bft.on_commit_quorum(replica, view, seq, signers, group)
        self._notify(
            "on_commit_quorum", replica, view, seq, digest, signers, group
        )

    def on_execute(
        self,
        replica: str,
        seq: int,
        digest: bytes,
        group: int = 0,
        global_seq: Optional[int] = None,
    ) -> None:
        """``replica`` executed per-group sequence ``seq`` of ``group``.

        ``global_seq`` is the slot in the merged total execution order;
        COP replicas report it explicitly, the sequential pipeline (and
        single-group runs) leave it to be derived from ``(group, seq)``.
        """
        self.last_progress = self.now()
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        if global_seq is not None and global_seq != seq:
            fields["global_seq"] = global_seq
        self.record("bft", "execute", replica, seq=seq, digest=digest, **fields)
        self.bft.on_execute(replica, seq, digest, group, global_seq)
        self._notify("on_execute", replica, seq, digest, group, global_seq)

    def on_view_adopted(
        self, replica: str, view: int, group: int = 0
    ) -> None:
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        self.record("bft", "view-adopted", replica, view=view, **fields)
        self.bft.on_view_adopted(replica, view, group)
        self._notify("on_view_adopted", replica, view, group)

    def on_view_change_started(
        self, replica: str, new_view: int, group: int = 0
    ) -> None:
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        self.record(
            "bft", "view-change-started", replica, new_view=new_view, **fields
        )
        self._notify("on_view_change_started", replica, new_view, group)

    def on_view_change_vote(
        self,
        replica: str,
        voter: str,
        new_view: int,
        digest: bytes,
        group: int = 0,
    ) -> None:
        """``replica`` observed ``voter``'s ViewChange vote for
        ``new_view`` with the given encoding digest.  Conflicting digests
        for one ``(voter, new_view)`` across observers is equivocation."""
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        self.record(
            "bft", "view-change-vote", replica,
            voter=voter, new_view=new_view, digest=digest, **fields,
        )
        self.bft.on_view_change_vote(replica, voter, new_view, digest, group)
        self._notify(
            "on_view_change_vote", replica, voter, new_view, digest, group
        )

    def on_stable_checkpoint(
        self, replica: str, seq: int, digest: bytes, group: int = 0
    ) -> None:
        self.last_progress = self.now()
        fields: Dict[str, Any] = {}
        if group:
            fields["group"] = group
        self.record(
            "bft", "stable-checkpoint", replica, seq=seq, digest=digest,
            **fields,
        )
        self.bft.on_stable_checkpoint(replica, seq, digest, group)
        self._notify("on_stable_checkpoint", replica, seq, digest, group)

    def on_state_transfer(
        self, replica: str, event: str, group: int = 0, **fields: Any
    ) -> None:
        if group:
            fields["group"] = group
        self.record("bft", f"state-transfer-{event}", replica, **fields)

    def on_replica_crash(self, replica: str) -> None:
        self.record("bft", "replica-crash", replica)
        self._notify("on_replica_crash", replica)

    def on_replica_restart(self, replica: str) -> None:
        self.record("bft", "replica-restart", replica)
        self.bft.on_replica_restart(replica)
        self._notify("on_replica_restart", replica)

    # -- RDMA hooks ------------------------------------------------------

    def on_qp_transition(
        self, host: str, qp_num: int, old: str, new: str
    ) -> None:
        self.record("rdma", "qp-transition", host, qp_num=qp_num,
                    transition=f"{old}->{new}")
        self.resources.on_qp_transition(host, qp_num, old, new)

    def on_qp_destroy(self, host: str, qp_num: int) -> None:
        self.record("rdma", "qp-destroy", host, qp_num=qp_num)
        self.resources.on_qp_destroy(host, qp_num)

    def on_rnr_nak(self, host: str, qp_num: int, psn: int) -> None:
        self.record("rdma", "rnr-nak", host, qp_num=qp_num, psn=psn)

    def on_rnr_retry(
        self, host: str, qp_num: int, used: int, budget: int
    ) -> None:
        self.record(
            "rdma", "rnr-retry", host, qp_num=qp_num, used=used, budget=budget
        )
        self.resources.on_rnr_retry(host, qp_num, used, budget)

    def on_rnr_exhausted(self, host: str, qp_num: int) -> None:
        self.record("rdma", "rnr-exhausted", host, qp_num=qp_num)

    def on_perm_change(
        self, kind: str, host: str, rkey: int, peer: str, epoch: int
    ) -> None:
        """A memory region's grant table changed (``grant`` or ``revoke``)."""
        self.record(
            "rdma", f"perm-{kind}", host, rkey=rkey, peer=peer, epoch=epoch
        )

    def on_remote_access_denied(
        self,
        host: str,
        qp_num: int,
        src_host: Optional[str],
        rkey: Optional[int],
        write: bool,
        reason: str,
    ) -> None:
        """The RNIC refused a one-sided access; ``reason`` classifies it.

        ``stale-epoch`` / ``stale-rkey`` denials are the dynamic-permission
        fence doing its job and fire ``rdma.stale-permission-access``;
        ``unauthorized`` means a peer outside the grant table presented a
        (necessarily leaked) rkey and fires ``rdma.unauthorized-write``.
        Plain protection faults are recorded but are not violations — the
        legacy NAK_ACCESS behaviour tests depend on.
        """
        self.record(
            "rdma", "remote-access-denied", host,
            qp_num=qp_num, src_host=src_host, rkey=rkey,
            write=write, reason=reason,
        )
        self.resources.on_remote_access_denied(
            host, qp_num, src_host, rkey, write, reason
        )
        self._notify(
            "on_remote_access_denied", host, qp_num, src_host, rkey,
            write, reason,
        )

    def declare_region_writer(
        self, host: str, rkey: int, writer: str
    ) -> None:
        """Declare that only ``writer`` may one-sided-write ``rkey`` on
        ``host`` (protocol intent, independent of NIC-level guarding)."""
        self.record(
            "rdma", "declare-writer", host, rkey=rkey, writer=writer
        )
        self.resources.declare_region_writer(host, rkey, writer)

    def on_onesided_corruption(
        self, replica: str, region: str, slot: int, kind: str, writer: str
    ) -> None:
        """A one-sided consensus slot was overwritten illegitimately."""
        self.record(
            "bft", "onesided-corruption", replica,
            region=region, slot=slot, kind=kind, writer=writer,
        )
        self.violation(
            "bft.onesided-slot-overwrite",
            layer="bft",
            subject=replica,
            region=region,
            slot=slot,
            kind=kind,
            writer=writer,
        )

    # -- RUBIN hooks -----------------------------------------------------

    def on_pool_exhausted(self, pool: str) -> None:
        self.record("rubin", "pool-exhausted", pool)

    def on_reconnect(self, supervisor: str, event: str, **fields: Any) -> None:
        self.record("rubin", f"reconnect-{event}", supervisor, **fields)

    # -- BFT hooks -------------------------------------------------------

    def on_request_shed(
        self,
        replica: str,
        client_id: str,
        timestamp: int,
        outstanding: int,
        budget: int,
    ) -> None:
        self.record(
            "bft",
            "request-shed",
            replica,
            client_id=client_id,
            timestamp=timestamp,
            outstanding=outstanding,
            budget=budget,
        )

    def __repr__(self) -> str:
        return (
            f"<AuditManager {self.name!r} violations={len(self.violations)} "
            f"events={self.recorder.total}>"
        )


class NullAudit:
    """The zero-overhead default: ``enabled`` is False, hooks are no-ops.

    Instrumented hot paths never call a method on it (they check
    ``enabled`` first); code that does anyway gets inert results.
    """

    enabled = False
    expect_violations = False
    violations: Tuple[()] = ()
    postmortems: Tuple[()] = ()
    observers: Tuple[()] = ()
    violations_dropped = 0
    postmortems_dropped = 0
    last_progress = 0.0

    def __getattr__(self, name: str):
        if name.startswith("on_") or name in (
            "record",
            "violation",
            "dump_postmortem",
            "add_observer",
        ):
            return self._noop
        raise AttributeError(name)

    @staticmethod
    def _noop(*args: Any, **kwargs: Any) -> None:
        return None

    def now(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "<NullAudit>"


#: Module-level singleton — identity comparisons are safe.
NULL_AUDIT = NullAudit()

#: Managers installed since the last drain; the test suite's conformance
#: fixture drains this after every test and asserts zero unexpected
#: violations, turning every audited test into an invariant check.
_ACTIVE: List[AuditManager] = []


def get_audit(env: Any) -> Union[AuditManager, NullAudit]:
    """The audit manager installed on ``env``, or :data:`NULL_AUDIT`."""
    audit = getattr(env, "audit", None)
    return audit if audit is not None else NULL_AUDIT


def install_audit(env: Any, manager: AuditManager) -> AuditManager:
    """Attach ``manager`` to ``env`` so :func:`get_audit` finds it."""
    if getattr(manager, "env", None) is None:
        manager.env = env
    env.audit = manager
    _ACTIVE.append(manager)
    return manager


def active_audits() -> List[AuditManager]:
    """Managers installed since the last drain (undrained view)."""
    return list(_ACTIVE)


def drain_active_audits() -> List[AuditManager]:
    """Return and forget the managers installed since the last drain."""
    drained, _ACTIVE[:] = list(_ACTIVE), []
    return drained


def release_audit(manager: AuditManager) -> None:
    """Forget one manager without draining the rest.

    Long exploration sweeps install thousands of short-lived managers;
    releasing each one when its run is scored keeps the active list (and
    the rings it pins) from growing with the sweep, without disturbing
    managers other code installed.
    """
    try:
        _ACTIVE.remove(manager)
    except ValueError:
        pass


def unexpected_violations(manager: AuditManager) -> List[Violation]:
    """Violations that should fail a conformance run (none if the
    manager was marked ``expect_violations``)."""
    if manager.expect_violations:
        return []
    return list(manager.violations)
