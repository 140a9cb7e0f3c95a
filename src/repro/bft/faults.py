"""Byzantine and crash fault behaviours, armed on live replicas.

A group of ``3f + 1`` replicas "can tolerate up to f faulty nodes" (paper,
Section I).  Each function here turns an honest, already built
:class:`~repro.bft.replica.Replica` faulty from the moment it is called —
or just one of its COP consensus groups, when handed
``replica.group_pipelines()[g]``.  Message-path behaviours act through
the three hooks the honest code consults:

* ``outbound_tamper(message, raw, peer_id)`` returns the bytes to send
  instead of ``raw`` (None drops them): silence, equivocation, vote
  corruption, view-change and new-view equivocation;
* ``reply_mute(reply)`` is true to suppress a client reply: silence;
* ``new_view_intercept(new_view, votes)`` is true to swallow the NewView
  a new leader would install: the view-change stall.

The memory attacks on the one-sided fast path (:mod:`repro.bft.onesided`)
run as processes that write through the replica's own one-sided links.
Everything else — quorums, timers, view changes, execution — is the
honest code, which is exactly how a faulty node looks to the rest of the
group, and why every behaviour works at any ``group_count`` and over
either proposal transport.  Arming replaces whatever the hook held.

Arming a Byzantine behaviour marks the audit manager
``expect_violations``: the member is *supposed* to trip the auditors, so
the conformance fixture must not fail the test.  Going silent is a crash
fault and marks nothing — silence must not trip any invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Set, Tuple

from repro.audit import get_audit
from repro.bft.messages import NewView, PrePrepare, Request, ViewChange, encode
from repro.bft.onesided import OneSidedLink, pack_record
from repro.bft.replica import batch_digest
from repro.errors import BftError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bft.replica import Replica

__all__ = [
    "RkeyCompromise",
    "compromise_rkey",
    "corrupt",
    "equivocate",
    "equivocate_new_view",
    "equivocate_view_change",
    "go_silent",
    "permission_race",
    "rogue_overwrite",
    "stall_view_change",
]


def _mark_byzantine(replica: "Replica") -> None:
    audit = get_audit(replica.env)
    if audit.enabled:
        audit.expect_violations = True


def _others(replica: "Replica") -> Tuple[str, ...]:
    return tuple(p for p in replica.all_ids if p != replica.replica_id)


def _victims(replica: "Replica", victims: Optional[Set[str]]) -> Set[str]:
    """``victims``, by default the first half of the other replicas."""
    if victims is not None:
        return set(victims)
    others = _others(replica)
    return set(others[: len(others) // 2])


def _forged(pre_prepare: PrePrepare) -> PrePrepare:
    """The same assignment carrying a different, self-consistent batch."""
    batch = tuple(
        Request(
            client_id=request.client_id,
            timestamp=request.timestamp,
            operation=b"FORGED:" + request.operation,
        )
        for request in pre_prepare.batch
    )
    return PrePrepare(
        view=pre_prepare.view,
        seq=pre_prepare.seq,
        digest=batch_digest(batch),
        batch=batch,
        replica_id=pre_prepare.replica_id,
    )


# ----------------------------------------------------------------------
# message-path behaviours
# ----------------------------------------------------------------------


def _drop(message, raw: bytes, peer_id: str) -> None:
    return None


def _mute(reply) -> bool:
    return True


def go_silent(replica: "Replica") -> None:
    """Fail-silent crash: send nothing and answer no client from now on.

    Before the call the replica behaves honestly, which lets tests crash
    the leader mid-run and watch the view change recover the service.
    """
    replica.outbound_tamper = _drop
    replica.reply_mute = _mute


def equivocate(replica: "Replica", victims: Optional[Set[str]] = None) -> None:
    """Byzantine leader: proposes *different* batches to different backups
    for the same sequence number — forged pre-prepares to ``victims`` —
    the classic safety attack the prepare quorum intersection defeats."""
    victims = _victims(replica, victims)

    def tamper(message, raw, peer_id):
        if isinstance(message, PrePrepare) and peer_id in victims:
            return encode(_forged(message))
        return raw

    replica.outbound_tamper = tamper
    _mark_byzantine(replica)


def corrupt(replica: "Replica") -> None:
    """Byzantine voter: every outbound digest is zeroed, so honest
    replicas must never count its votes toward quorums."""

    def tamper(message, raw, peer_id):
        if hasattr(message, "digest"):
            return encode(type(message)(**{**message.__dict__, "digest": bytes(32)}))
        return raw

    replica.outbound_tamper = tamper
    _mark_byzantine(replica)


def stall_view_change(
    replica: "Replica", crash_on_new_view: bool = False
) -> List[int]:
    """Faulty next leader: collects a ViewChange quorum, then goes quiet
    instead of broadcasting NewView — the mid-view-change omission that
    forces honest replicas to escalate to the view after it.

    With ``crash_on_new_view`` the replica also crashes at that exact
    point.  Returns the (growing) list of views whose NewView it
    swallowed.
    """
    stalled: List[int] = []

    def intercept(new_view, votes):
        stalled.append(new_view)
        if crash_on_new_view:
            (replica._coordinator or replica).stop()
        return True

    replica.new_view_intercept = intercept
    _mark_byzantine(replica)
    return stalled


def _padded_view_change(message: ViewChange) -> ViewChange:
    """A semantically inert but byte-different copy of a ViewChange vote.

    The extra prepared entry sits at ``seq == stable_seq``, which every
    honest new leader discards (re-proposals only cover sequences above
    the highest stable checkpoint in the quorum), so the forgery can
    never change what gets re-proposed — it only makes the vote's
    encoding digest differ between recipients.
    """
    filler = (message.stable_seq, 0, batch_digest(()), ())
    return ViewChange(
        new_view=message.new_view,
        stable_seq=message.stable_seq,
        prepared=message.prepared + (filler,),
        replica_id=message.replica_id,
    )


def equivocate_view_change(
    replica: "Replica", victims: Optional[Set[str]] = None
) -> None:
    """Byzantine voter whose ViewChange votes tell ``victims`` a different
    story (tampered prepared evidence) than everyone else; the
    cross-replica vote-digest check (``bft.view-change-equivocation``)
    must flag it."""
    victims = _victims(replica, victims)

    def tamper(message, raw, peer_id):
        if isinstance(message, ViewChange) and peer_id in victims:
            return encode(_padded_view_change(message))
        return raw

    replica.outbound_tamper = tamper
    _mark_byzantine(replica)


def equivocate_new_view(
    replica: "Replica", victims: Optional[Set[str]] = None
) -> None:
    """Byzantine new leader whose NewView re-proposes forged batches to
    ``victims``; honest replicas adopting conflicting assignments for the
    same ``(view, seq)`` trip ``bft.pre-prepare-equivocation``."""
    victims = _victims(replica, victims)

    def tamper(message, raw, peer_id):
        if (
            isinstance(message, NewView)
            and peer_id in victims
            and any(pp.batch for pp in message.pre_prepares)
        ):
            forged = NewView(
                new_view=message.new_view,
                view_change_senders=message.view_change_senders,
                pre_prepares=tuple(
                    _forged(pp) if pp.batch else pp
                    for pp in message.pre_prepares
                ),
                replica_id=message.replica_id,
            )
            return encode(forged)
        return raw

    replica.outbound_tamper = tamper
    _mark_byzantine(replica)


# ----------------------------------------------------------------------
# memory attacks against the one-sided fast path
# ----------------------------------------------------------------------
#
# The paper's Section III-C observes that an rkey is a bearer capability:
# "anyone who learns it can reach the buffer".  In a one-sided agreement
# deployment every replica learns every region's rkey during setup, so a
# *Byzantine replica* is exactly the adversary that concern describes.
# These attack consensus state through memory, not messages: with dynamic
# permission guarding on, the NIC denies them (QP errors,
# ``rdma.unauthorized-write`` / ``rdma.stale-permission-access``); with
# it off, their writes land and only the audit layer's declared-writer
# table and the pollers' overwrite detection call them out.


def _require_onesided(replica: "Replica") -> None:
    if replica.onesided is None:
        raise BftError(
            f"{replica.replica_id}: memory attacks need BftConfig(onesided=True)"
        )


def _live_links(
    replica: "Replica", victims: Sequence[str]
) -> Iterator[OneSidedLink]:
    links = replica.onesided.links
    for victim in victims:
        link = links.get(victim)
        if link is not None and not link.dead:
            yield link


class RkeyCompromise:
    """An armed :func:`compromise_rkey` attack."""

    def __init__(self) -> None:
        #: Forged records the attacker attempted to place.
        self.forged_attempts = 0


def compromise_rkey(
    replica: "Replica",
    delay: float,
    victims: Optional[Sequence[str]] = None,
    forgeries: int = 3,
    seq_offset: int = 16,
    spacing: float = 20e-6,
) -> RkeyCompromise:
    """Forge leader proposals with stolen rkeys after ``delay`` seconds.

    The replica writes ``forgeries`` well-formed, sealed pre-prepare
    records — claiming the current leader's identity — into the
    ``victims``' proposal rings (default: every other replica) at
    sequence numbers ``seq_offset`` past its own executed position: far
    enough ahead that the real leader will not propose them during a
    short run (keeping the corruption in *uncommitted* slots), close
    enough to stay inside the ring.  Guarded regions deny the writes
    (the attacker holds only its own lane grants, so the blast radius is
    zero and its own links die); unguarded regions accept them, and the
    forged proposal is consumed as if the leader sent it.
    """
    _require_onesided(replica)
    victims = _others(replica) if victims is None else tuple(victims)
    attack = RkeyCompromise()
    replica.env.process(
        _compromise_loop(
            replica, attack, delay, victims, forgeries, seq_offset, spacing
        ),
        name=f"{replica.replica_id}.compromise",
    )
    _mark_byzantine(replica)
    return attack


def _compromise_loop(
    replica, attack, delay, victims, forgeries, seq_offset, spacing
):
    env = replica.env
    yield env.timeout(delay)
    for k in range(forgeries):
        seq = replica.executed_seq + seq_offset + k
        batch = (
            Request(
                client_id="attacker", timestamp=k, operation=b"PUT stolen=rkey"
            ),
        )
        forged = PrePrepare(
            view=replica.view,
            seq=seq,
            digest=batch_digest(batch),
            batch=batch,
            replica_id=replica.leader_of(replica.view),
        )
        record = pack_record(seq, encode(forged))
        for link in _live_links(replica, victims):
            link.write_proposal(seq, record)
            attack.forged_attempts += 1
        yield env.timeout(spacing)


def rogue_overwrite(
    replica: "Replica",
    delay: float,
    victims: Optional[Sequence[str]] = None,
    slots: Tuple[int, ...] = (0, 1),
    scribble: bytes = b"\xde\xad\xbe\xef" * 16,
) -> None:
    """Scribble garbage over ``slots`` of every victim's ring after ``delay``.

    Where :func:`compromise_rkey` forges protocol-shaped records, this
    simply destroys committed consensus state: raw bytes with an invalid
    record magic over the victims' low proposal-ring slots (the ones a
    running workload has already consumed).  The poller's shadow copies
    make the detection unambiguous — ``bft.onesided-slot-overwrite`` —
    because a legitimate writer always lands a parsable header first.
    """
    _require_onesided(replica)
    victims = _others(replica) if victims is None else tuple(victims)
    replica.env.process(
        _overwrite_loop(replica, delay, victims, slots, scribble),
        name=f"{replica.replica_id}.rogue",
    )
    _mark_byzantine(replica)


def _overwrite_loop(replica, delay, victims, slots, scribble):
    env = replica.env
    yield env.timeout(delay)
    slot_bytes = replica.config.onesided_slot_bytes
    for slot in slots:
        for link in _live_links(replica, victims):
            link.write_raw(link.proposal_rkey, slot * slot_bytes, scribble)
        yield env.timeout(10e-6)


def permission_race(
    replica: "Replica",
    delay: float,
    interval: float = 50e-6,
    duration: float = 0.2,
    payload_bytes: int = 1800,
) -> None:
    """A deposed leader writing through the revocation window.

    After ``delay`` the replica goes silent on the message path
    (provoking a view change) while it keeps streaming multi-chunk
    proposal writes at its peers' rings for ``duration`` seconds.  Until
    the backups vote, the writes are authorized (it *is* still the
    granted leader) — but they carry no seal, so pollers treat them as
    in-progress and ignore them.  The moment a backup starts the view
    change it revokes the grant, and the epoch bump fences the stream:
    writes in flight die with ``rdma.stale-permission-access``, later
    ones with ``rdma.unauthorized-write`` — the permission race the
    guard exists to win.
    """
    _require_onesided(replica)
    replica.env.process(
        _race_loop(replica, delay, interval, duration, payload_bytes),
        name=f"{replica.replica_id}.race",
    )
    _mark_byzantine(replica)


def _race_loop(replica, delay, interval, duration, payload_bytes):
    env = replica.env
    yield env.timeout(delay)
    go_silent(replica)
    deadline = env.now + duration
    seq = replica.next_seq + 8
    while env.now < deadline:
        # A sealed-off (never-completing) record: header is valid so
        # honest pollers wait forever; only the *denial* is visible.
        record = pack_record(seq, bytes(payload_bytes))[:-4] + bytes(4)
        for link in _live_links(replica, _others(replica)):
            link.write_proposal(seq, record)
        seq += 1
        yield env.timeout(interval)
