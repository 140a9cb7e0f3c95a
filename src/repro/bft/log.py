"""The PBFT message log: slots, certificates, and garbage collection.

One :class:`Slot` per sequence number accumulates the pre-prepare and the
prepare/commit votes; :class:`MessageLog` tracks the watermark window and
truncates below the stable checkpoint, request batches included.  Quorum
sizes follow PBFT: with ``n = 3f + 1`` replicas a *prepared certificate*
is the pre-prepare plus ``2f`` matching prepares from distinct backups,
and a *committed certificate* is ``2f + 1`` matching commits (the
replica's own included).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.bft.messages import Commit, PrePrepare, Prepare, Request
from repro.errors import BftError

__all__ = ["Slot", "MessageLog"]


class Slot:
    """Protocol state for one (view, sequence) assignment."""

    def __init__(self, seq: int):
        self.seq = seq
        self.pre_prepare: Optional[PrePrepare] = None
        self.prepares: Dict[str, Prepare] = {}
        self.commits: Dict[str, Commit] = {}
        self.prepared = False
        self.committed = False
        self.executed = False

    def record_pre_prepare(self, message: PrePrepare) -> None:
        """Accept the leader's proposal.

        A pre-prepare from a *newer* view supersedes one left behind by an
        older view (the slot restarts its certificates); a conflicting
        digest within the *same* view is equivocation and is rejected; a
        committed slot can never change its digest.
        """
        if self.pre_prepare is None:
            self.pre_prepare = message
            return
        if self.committed and message.digest != self.pre_prepare.digest:
            raise BftError(
                f"slot {self.seq}: committed digest cannot be replaced"
            )
        if message.view > self.pre_prepare.view:
            self.pre_prepare = message
            self.prepared = self.prepared and self.committed
            return
        if (
            message.view == self.pre_prepare.view
            and message.digest != self.pre_prepare.digest
        ):
            raise BftError(
                f"slot {self.seq}: conflicting pre-prepare in view "
                f"{message.view} (equivocation)"
            )
        # Same view and digest, or a stale older view: keep what we have.

    def record_prepare(self, message: Prepare) -> None:
        """Record a backup's prepare vote (one per replica)."""
        self.prepares[message.replica_id] = message

    def record_commit(self, message: Commit) -> None:
        """Record a commit vote (one per replica)."""
        self.commits[message.replica_id] = message

    def matching_prepares(self, view: int, digest: bytes) -> int:
        """Prepare votes matching (view, digest)."""
        return sum(
            1
            for p in self.prepares.values()
            if p.view == view and p.digest == digest
        )

    def matching_commits(self, view: int, digest: bytes) -> int:
        """Commit votes matching (view, digest)."""
        return sum(
            1
            for c in self.commits.values()
            if c.view == view and c.digest == digest
        )

    def __repr__(self) -> str:
        flags = "".join(
            flag
            for flag, on in (
                ("P", self.prepared),
                ("C", self.committed),
                ("X", self.executed),
            )
            if on
        )
        return f"<Slot {self.seq} [{flags or '-'}]>"


class MessageLog:
    """All slots between the watermarks, plus checkpoint bookkeeping."""

    def __init__(self, f: int, window: int = 256):
        if window < 1:
            raise BftError("log window must be >= 1")
        self.f = f
        self.window = window
        self.slots: Dict[int, Slot] = {}
        #: Highest sequence number covered by a stable checkpoint.
        self.stable_seq = 0
        #: Checkpoint votes: seq -> digest -> set of replica ids.
        self.checkpoint_votes: Dict[int, Dict[bytes, Set[str]]] = {}
        #: The request batch each sequence number carries (proposed,
        #: accepted, re-proposed by a NewView or installed by state
        #: transfer); the suffix a state transfer serves is read here.
        self.batches: Dict[int, Tuple[Request, ...]] = {}

    @property
    def low_watermark(self) -> int:
        """Sequence numbers at or below this are garbage-collected."""
        return self.stable_seq

    @property
    def high_watermark(self) -> int:
        """Highest sequence number currently accepted."""
        return self.stable_seq + self.window

    def in_window(self, seq: int) -> bool:
        """Whether ``seq`` is between the watermarks."""
        return self.low_watermark < seq <= self.high_watermark

    def slot(self, seq: int) -> Slot:
        """Get (or create) the slot for ``seq``."""
        if not self.in_window(seq):
            raise BftError(
                f"seq {seq} outside watermarks "
                f"({self.low_watermark}, {self.high_watermark}]"
            )
        existing = self.slots.get(seq)
        if existing is None:
            existing = Slot(seq)
            self.slots[seq] = existing
        return existing

    # -- quorum checks ---------------------------------------------------

    def prepared_quorum(self) -> int:
        """Prepares needed besides the pre-prepare (2f)."""
        return 2 * self.f

    def committed_quorum(self) -> int:
        """Total matching commits needed (2f + 1)."""
        return 2 * self.f + 1

    def check_prepared(self, seq: int, view: int) -> bool:
        """Does ``seq`` hold a prepared certificate in ``view``?"""
        slot = self.slots.get(seq)
        if slot is None or slot.pre_prepare is None:
            return False
        if slot.pre_prepare.view != view:
            return False
        return (
            slot.matching_prepares(view, slot.pre_prepare.digest)
            >= self.prepared_quorum()
        )

    def check_committed(self, seq: int, view: int) -> bool:
        """Does ``seq`` hold a committed certificate in ``view``?"""
        slot = self.slots.get(seq)
        if slot is None or slot.pre_prepare is None:
            return False
        return (
            slot.matching_commits(view, slot.pre_prepare.digest)
            >= self.committed_quorum()
        )

    def prepared_evidence(self) -> Tuple[Tuple[int, int, bytes, tuple], ...]:
        """(seq, view, digest, batch) for every prepared slot above the
        stable checkpoint — the payload of a VIEW-CHANGE message."""
        evidence = []
        for seq in sorted(self.slots):
            slot = self.slots[seq]
            if slot.pre_prepare is None or seq <= self.stable_seq:
                continue
            view = slot.pre_prepare.view
            if slot.prepared or self.check_prepared(seq, view):
                evidence.append(
                    (seq, view, slot.pre_prepare.digest, slot.pre_prepare.batch)
                )
        return tuple(evidence)

    # -- checkpoints ---------------------------------------------------------

    def record_checkpoint_vote(
        self, seq: int, state_digest: bytes, replica_id: str
    ) -> bool:
        """Record a checkpoint vote; True once it becomes *stable*
        (2f + 1 matching votes) and the log was truncated."""
        votes = self.checkpoint_votes.setdefault(seq, {}).setdefault(
            state_digest, set()
        )
        votes.add(replica_id)
        if len(votes) >= self.committed_quorum() and seq > self.stable_seq:
            self._truncate(seq)
            return True
        return False

    def _truncate(self, stable_seq: int) -> None:
        self.stable_seq = stable_seq
        self.slots = {s: slot for s, slot in self.slots.items() if s > stable_seq}
        self.checkpoint_votes = {
            s: votes for s, votes in self.checkpoint_votes.items() if s > stable_seq
        }
        self.batches = {
            s: batch for s, batch in self.batches.items() if s > stable_seq
        }

    def install_stable(self, seq: int) -> None:
        """Adopt ``seq`` as the stable checkpoint (state transfer).

        Used when a restarted or lagging replica installs a verified
        checkpoint fetched from peers rather than one it voted for; the
        watermarks jump forward and everything at or below ``seq`` is
        garbage-collected.
        """
        if seq < self.stable_seq:
            raise BftError(
                f"cannot move stable checkpoint backwards "
                f"({self.stable_seq} -> {seq})"
            )
        if seq > self.stable_seq:
            self._truncate(seq)

    def __repr__(self) -> str:
        return (
            f"<MessageLog stable={self.stable_seq} slots={len(self.slots)} "
            f"window={self.window}>"
        )
