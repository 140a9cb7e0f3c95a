"""One-sided RDMA agreement fast path.

The paper's Section IV observes that one-sided RDMA WRITE removes the
receiver CPU from the critical path — but also removes the receiver's
*authentication* of the sender: bytes simply appear in memory, and anyone
who knows an rkey can put them there.  This module reproduces both sides
of that trade-off:

* The leader writes its pre-prepares straight into a **proposal ring**
  registered by every backup, and every replica writes its prepare/commit
  acks into per-writer **ack lanes** on its peers.  A polling process on
  each replica discovers sealed records and feeds them into the ordinary
  PBFT pipeline — no receive WRs, no transport layer, no receiver CPU
  until the record is complete.

* With :attr:`~repro.bft.config.BftConfig.onesided_guard` enabled, the
  regions run in *guarded* mode (dynamic permissions,
  :meth:`repro.rdma.mr.MemoryRegion.grant`): only the current leader may
  write proposal rings — re-granted on every view change, with permission
  epochs fencing the deposed leader's in-flight WRs — and each ack lane
  admits only its owner.  With the guard off, the region accepts any
  write that quotes the rkey: the paper's security concern, which the
  memory-corruption faults in :mod:`repro.bft.faults` exploit and
  ``python -m repro.bench --fig onesided`` quantifies as blast radius.

The fast path is a *transport* for the unchanged protocol, not a
different replica: :class:`OneSidedPath` is a component the
:class:`~repro.bft.replica.Replica` builds when ``BftConfig.onesided`` is
set.  The replica's broadcast offers it every outgoing message (it takes
the agreement messages), and its view-change steps call it to switch
the ring grants.

Record framing
--------------

A record is written with a single RDMA WRITE whose chunks apply in PSN
order, so the layout puts everything needed to *reject* a partial record
before the payload and a seal after it::

    magic u32 | index u64 | length u32 | crc u32 | payload | seal u32

``crc`` covers payload and index (``zlib.crc32`` — content hashing must
not depend on ``PYTHONHASHSEED``); the seal is ``magic ^ crc``.  A header
without its seal is an in-progress write and is skipped silently; the
poller never times out on it, because a crashed writer legitimately
leaves partial records behind forever.  Anything else that cannot parse —
bad magic over non-zero bytes, a sealed record whose index does not map
to its slot, a tampered record under a consumed slot's shadow copy — is
*corruption*: counted, reported through
``AuditManager.on_onesided_corruption`` (rule
``bft.onesided-slot-overwrite``) and answered by falling back to the
message-passing path.

Everything here is strictly opt-in (``BftConfig.onesided``); with the
default configuration no object in this module is ever constructed and
historical schedules stay bit-identical.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.audit import get_audit
from repro.bft.config import BftConfig
from repro.bft.messages import Commit, PrePrepare, Prepare, decode
from repro.errors import BftError, RdmaError
from repro.rdma import (
    Access,
    MemoryRegion,
    Opcode,
    QueuePair,
    RemoteAddress,
    SendWorkRequest,
    Sge,
    alloc_registered,
)
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bft.cluster import BftCluster
    from repro.bft.replica import Replica

__all__ = [
    "MAGIC",
    "OneSidedLink",
    "OneSidedPath",
    "pack_record",
    "proposal_slot_count",
    "lane_slot_count",
    "unpack_record",
    "wire_onesided",
]

#: Record magic ("1S" + version); also the first bytes a scribbling
#: attacker must reproduce before garbage even parses as in-progress.
MAGIC = 0x31534401
_HEADER = struct.Struct(">IQII")  # magic, index, length, crc
_SEAL = struct.Struct(">I")
#: Fixed framing overhead of a record.
RECORD_OVERHEAD = _HEADER.size + _SEAL.size


def _crc(index: int, payload: bytes) -> int:
    return zlib.crc32(payload + index.to_bytes(8, "big")) & 0xFFFFFFFF


def pack_record(index: int, payload: bytes) -> bytes:
    """Frame ``payload`` as slot record number ``index``."""
    crc = _crc(index, payload)
    return (
        _HEADER.pack(MAGIC, index, len(payload), crc)
        + payload
        + _SEAL.pack(MAGIC ^ crc)
    )


def unpack_record(buf) -> Optional[Tuple[int, bytes]]:
    """Parse a *complete* record out of a slot, else ``None``.

    ``None`` covers both an empty/garbage slot and an in-progress write;
    :func:`peek_header` distinguishes those for the corruption rules.
    """
    view = memoryview(buf)
    if len(view) < RECORD_OVERHEAD:
        return None
    magic, index, length, crc = _HEADER.unpack_from(view, 0)
    if magic != MAGIC or length > len(view) - RECORD_OVERHEAD:
        return None
    payload = bytes(view[_HEADER.size : _HEADER.size + length])
    if _crc(index, payload) != crc:
        return None
    (seal,) = _SEAL.unpack_from(view, _HEADER.size + length)
    if seal != (MAGIC ^ crc):
        return None
    return index, payload


def peek_header(buf) -> Optional[Tuple[int, int]]:
    """(index, length) of a well-formed record header, else ``None``.

    Chunks of one WRITE apply in order and the header is far smaller than
    one MTU, so any record that has landed *anything* has landed a parsable
    header — which makes "bad magic over non-zero bytes" an unambiguous
    corruption signal rather than a torn write.
    """
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        return None
    magic, index, length, _crc_ = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        return None
    return index, length


def proposal_slot_count(config: BftConfig) -> int:
    """Slots in a proposal ring (auto: one per watermark-window seq)."""
    return config.onesided_slots or config.log_window


def lane_slot_count(config: BftConfig) -> int:
    """Slots in an ack lane (auto: prepare+commit per window seq, plus
    headroom so a briefly lagging poller is not overrun)."""
    return config.onesided_slots or (2 * config.log_window + 64)


def _record_len(buf) -> int:
    """Byte length of the (syntactically plausible) record in a slot."""
    header = peek_header(buf)
    if header is None:
        return RECORD_OVERHEAD
    return min(len(buf), header[1] + RECORD_OVERHEAD)


# ----------------------------------------------------------------------
# writer side: one link per (writer, target) pair
# ----------------------------------------------------------------------


class OneSidedLink:
    """One replica's WRITE channel into one peer's inbound regions.

    Owns a connected QP, a staging region for outbound records (the WR
    snapshot is taken at post time, so one staging buffer can be reused
    immediately), and the per-lane monotonic record index.  A QP error —
    permission denial, retry exhaustion against a crashed peer — marks
    the link dead; the owning replica then routes this peer's protocol
    messages over the ordinary message-passing path instead.
    """

    def __init__(
        self,
        owner: "OneSidedPath",
        target: str,
        qp: QueuePair,
        staging: MemoryRegion,
        proposal_rkey: int,
        lane_rkey: int,
        config: BftConfig,
    ):
        self.owner = owner
        self.target = target
        self.qp = qp
        self.cq = qp.send_cq
        self.staging = staging
        self.proposal_rkey = proposal_rkey
        self.lane_rkey = lane_rkey
        self.slot_bytes = config.onesided_slot_bytes
        self.proposal_slots = proposal_slot_count(config)
        self.lane_slots = lane_slot_count(config)
        #: Next record index for the ack lane this link owns on ``target``.
        self.lane_next = 1
        self.dead = False
        self._inflight = 0
        self._limit = max(1, qp.caps.max_send_wr - 4)
        self._wr_ids = iter(range(1, 1 << 62))
        qp.add_error_watcher(self._on_qp_error)

    def _on_qp_error(self, _qp) -> None:
        if not self.dead:
            self.dead = True
            self.owner.link_down(self.target)

    def drain(self) -> None:
        """Reap send completions; a failed WRITE kills the link."""
        while True:
            completions = self.cq.poll(max_entries=64)
            if not completions:
                return
            for wc in completions:
                self._inflight -= 1
                if not wc.ok and not self.dead:
                    self.dead = True
                    self.owner.link_down(self.target)

    def write_raw(self, rkey: int, offset: int, record: bytes) -> bool:
        """Post one record as a single RDMA WRITE (non-blocking)."""
        if self.dead:
            return False
        if self._inflight >= self._limit:
            self.drain()
            if self._inflight >= self._limit:
                return False
        if len(record) > self.staging.length:
            return False
        # Post-time snapshot semantics (non-stable staging region) make
        # the buffer reusable the moment post_send returns.
        self.staging.buffer[: len(record)] = record
        wr = SendWorkRequest(
            wr_id=next(self._wr_ids),
            opcode=Opcode.RDMA_WRITE,
            sge=Sge(self.staging, 0, len(record)),
            remote=RemoteAddress(rkey, offset),
        )
        try:
            self.qp.post_send(wr)
        except RdmaError:
            if not self.dead:
                self.dead = True
                self.owner.link_down(self.target)
            return False
        self._inflight += 1
        self.owner.writes.increment()
        return True

    def write_proposal(self, seq: int, record: bytes) -> bool:
        """Write proposal record ``seq`` into the target's ring slot."""
        slot = (seq - 1) % self.proposal_slots
        return self.write_raw(
            self.proposal_rkey, slot * self.slot_bytes, record
        )

    def write_lane(self, payload: bytes) -> bool:
        """Append an ack record to this link's lane on the target."""
        record = pack_record(self.lane_next, payload)
        if len(record) > self.slot_bytes:
            return False
        slot = (self.lane_next - 1) % self.lane_slots
        if self.write_raw(self.lane_rkey, slot * self.slot_bytes, record):
            self.lane_next += 1
            return True
        return False


# ----------------------------------------------------------------------
# reader side: pollers over the inbound regions
# ----------------------------------------------------------------------


class _ProposalReader:
    """Scans the local proposal ring for sealed leader records.

    Consumption is per-slot and index-monotonic: slot ``(seq-1) % N``
    accepts record index ``seq`` only if it exceeds the last index
    consumed from that slot (ring reuse moves strictly forward).  A
    consumed slot keeps a shadow copy of its record bytes; any later
    mutation that is not a well-formed *newer* record for the same slot
    is corruption.
    """

    region = "proposal"

    def __init__(self, path: "OneSidedPath", mr: MemoryRegion):
        self.path = path
        self.mr = mr
        self.slot_bytes = path.replica.config.onesided_slot_bytes
        self.slots = proposal_slot_count(path.replica.config)
        self.consumed = [0] * self.slots
        self.shadow: List[bytes] = [b""] * self.slots
        self.poisoned = [False] * self.slots
        mr.track_writes()

    def _dirty_slots(self) -> List[int]:
        writes = self.mr.drain_writes()
        if not writes:
            return []
        dirty: Set[int] = set()
        for offset, length in writes:
            first = offset // self.slot_bytes
            last = (offset + max(length, 1) - 1) // self.slot_bytes
            dirty.update(range(first, min(last, self.slots - 1) + 1))
        return sorted(dirty)

    def poll(self) -> None:
        for slot in self._dirty_slots():
            if not self.poisoned[slot]:
                self._scan(slot)

    def _scan(self, slot: int) -> None:
        view = memoryview(self.mr.buffer)[
            slot * self.slot_bytes : (slot + 1) * self.slot_bytes
        ]
        shadow = self.shadow[slot]
        if shadow and bytes(view[: len(shadow)]) == shadow:
            return  # unchanged (write touched only trailing slack)
        header = peek_header(view)
        if header is None:
            # Bad magic.  A fresh, untouched slot is all zeroes; a legit
            # write lands its header with its first chunk — so non-zero
            # bytes that do not even parse as a header were scribbled.
            if shadow or any(view[: _HEADER.size]):
                self._corrupt(slot, "garbage")
            return
        index, _length = header
        if index <= self.consumed[slot] or (index - 1) % self.slots != slot:
            # Sealed-or-not, this header can never become a legitimate
            # new record for this slot: replay of a consumed index or a
            # record steered into the wrong slot.
            self._corrupt(slot, "misdirected")
            return
        record = unpack_record(view)
        if record is None:
            return  # in-progress write of a plausible record: wait
        _index, payload = record
        try:
            message = decode(payload)
        except BftError:
            self._corrupt(slot, "undecodable")
            return
        if not isinstance(message, PrePrepare) or message.seq != index:
            self._corrupt(slot, "forged-framing")
            return
        self.consumed[slot] = index
        self.shadow[slot] = bytes(view[: _record_len(view)])
        self.path.deliver(message, self.path.replica.leader_of(message.view))

    def _corrupt(self, slot: int, kind: str) -> None:
        self.poisoned[slot] = True
        self.path.corruption(self.region, slot, kind, writer=None)


class _LaneReader:
    """Scans one peer's ack lane for sequential sealed records.

    Lane records carry a writer-owned monotonic index consumed strictly
    in order; every decoded message must claim the lane owner's identity
    (the one authentication one-sided delivery still has, because the
    guarded region only admits that host)."""

    region = "lane"

    def __init__(self, path: "OneSidedPath", owner_id: str, mr: MemoryRegion):
        self.path = path
        self.owner_id = owner_id
        self.mr = mr
        self.slot_bytes = path.replica.config.onesided_slot_bytes
        self.slots = lane_slot_count(path.replica.config)
        self.next_index = 1
        self.shadow: List[bytes] = [b""] * self.slots
        self.poisoned = [False] * self.slots
        mr.track_writes()

    def poll(self) -> None:
        if not self.mr.drain_writes():
            return
        self._advance()

    def _slot_view(self, slot: int):
        return memoryview(self.mr.buffer)[
            slot * self.slot_bytes : (slot + 1) * self.slot_bytes
        ]

    def _advance(self) -> None:
        while True:
            slot = (self.next_index - 1) % self.slots
            if self.poisoned[slot]:
                return
            view = self._slot_view(slot)
            header = peek_header(view)
            if header is None:
                shadow = self.shadow[slot]
                if any(view[: _HEADER.size]) and not (
                    shadow and bytes(view[: len(shadow)]) == shadow
                ):
                    self._corrupt(slot, "garbage")
                return
            index, _length = header
            if index < self.next_index:
                # Still the previous wrap's record: nothing new yet —
                # unless it was tampered under its shadow copy.
                shadow = self.shadow[slot]
                if shadow and bytes(view[: len(shadow)]) != shadow:
                    self._corrupt(slot, "tampered")
                return
            if index > self.next_index:
                # The writer lapped the poller: records were overwritten
                # before consumption.  Not Byzantine — but this lane can
                # no longer be trusted for gap-free delivery.
                self.path.fallback("lane-overrun")
                self.next_index = index
                continue
            record = unpack_record(view)
            if record is None:
                return  # expected record still in flight
            _index, payload = record
            try:
                message = decode(payload)
            except BftError:
                self._corrupt(slot, "undecodable")
                return
            if (
                not isinstance(message, (Prepare, Commit))
                or message.replica_id != self.owner_id
            ):
                self._corrupt(slot, "forged-identity")
                return
            self.shadow[slot] = bytes(view[: _record_len(view)])
            self.next_index += 1
            self.path.deliver(message, self.owner_id)

    def _corrupt(self, slot: int, kind: str) -> None:
        self.poisoned[slot] = True
        self.path.corruption(self.region, slot, kind, writer=self.owner_id)


# ----------------------------------------------------------------------
# the component
# ----------------------------------------------------------------------


class OneSidedPath:
    """A replica's one-sided proposal transport.

    Pre-prepare, prepare and commit divert to the peers' inbound regions
    while the fast path is up; view changes, checkpoints, state transfer
    and client traffic always use the message-passing stack (they are
    rare, large, or need connection semantics).  Any per-peer link death
    falls that peer back to messages; detected memory corruption turns
    the whole outbound fast path off (``fallbacks`` counts both).  The
    replica keeps committing either way — the fast path is an
    optimization, never a safety dependency.
    """

    def __init__(self, replica: "Replica"):
        self.replica = replica
        rid = replica.replica_id
        self.writes = Counter(f"{rid}.onesided_writes")
        self.records = Counter(f"{rid}.onesided_records")
        self.corrupted_slots = Counter(f"{rid}.onesided_corrupted")
        self.fallbacks = Counter(f"{rid}.onesided_fallbacks")
        #: Outbound WRITE channel per peer (set by :func:`wire_onesided`).
        self.links: Dict[str, OneSidedLink] = {}
        self.pd = None
        self.proposal_mr: Optional[MemoryRegion] = None
        self.lane_mrs: Dict[str, MemoryRegion] = {}
        self._proposal_reader: Optional[_ProposalReader] = None
        self._lane_readers: Dict[str, _LaneReader] = {}
        self._outbound = False

    def grants(self) -> Tuple[str, ...]:
        """Peers currently granted write access to the proposal ring."""
        if self.proposal_mr is None:
            return ()
        return tuple(sorted(self.proposal_mr.grants()))

    # -- region setup (called by wire_onesided) -------------------------

    def setup_regions(self) -> None:
        """Register this replica's inbound proposal ring and ack lanes."""
        replica = self.replica
        config = replica.config
        device = replica.endpoint.host.stack("rdma")
        self.pd = device.alloc_pd()
        slot_bytes = config.onesided_slot_bytes
        access = Access.LOCAL_WRITE | Access.REMOTE_WRITE
        self.proposal_mr = device.reg_mr(
            self.pd,
            alloc_registered(proposal_slot_count(config) * slot_bytes),
            access,
        )
        self._proposal_reader = _ProposalReader(self, self.proposal_mr)
        for peer_id in replica.all_ids:
            if peer_id == replica.replica_id:
                continue
            mr = device.reg_mr(
                self.pd,
                alloc_registered(lane_slot_count(config) * slot_bytes),
                access,
            )
            self.lane_mrs[peer_id] = mr
            self._lane_readers[peer_id] = _LaneReader(self, peer_id, mr)
        if config.onesided_guard:
            leader = replica.leader_of(replica.view)
            self.proposal_mr.grant(leader, Access.REMOTE_WRITE)
            for peer_id, mr in self.lane_mrs.items():
                mr.grant(peer_id, Access.REMOTE_WRITE)
        self._declare_writers()

    def _declare_writers(self) -> None:
        """Tell the audit layer who is *supposed* to write each region.

        Declared regardless of guard mode: with the guard off a forged
        write lands, and this table is what lets the auditor still call
        it out (rule ``rdma.unauthorized-write``)."""
        replica = self.replica
        audit = get_audit(replica.env)
        if not audit.enabled or self.proposal_mr is None:
            return
        audit.declare_region_writer(
            replica.replica_id,
            self.proposal_mr.rkey,
            replica.leader_of(replica.view),
        )
        for peer_id, mr in self.lane_mrs.items():
            audit.declare_region_writer(replica.replica_id, mr.rkey, peer_id)

    def activate(self) -> None:
        """Start the poller once links and regions are wired."""
        self._outbound = True
        self.replica.env.process(
            self._poll_loop(), name=f"{self.replica.replica_id}.onesided"
        )

    # -- outbound fast path ---------------------------------------------

    def send(self, peer_id: str, message, raw: bytes) -> bool:
        """WRITE agreement message ``raw`` into ``peer_id``'s region;
        False if it must go over the message path instead."""
        if not self._outbound or not isinstance(
            message, (PrePrepare, Prepare, Commit)
        ):
            return False
        link = self.links.get(peer_id)
        if link is None or link.dead:
            return False
        if isinstance(message, PrePrepare):
            record = pack_record(message.seq, raw)
            if len(record) > link.slot_bytes:
                return False
            return link.write_proposal(message.seq, record)
        return link.write_lane(raw)

    # -- inbound delivery / poller --------------------------------------

    def _poll_loop(self):
        """Busy-poll the inbound regions (models a dedicated polling
        core: the poll itself charges no shared CPU; routed messages
        still pay ``handler_cost`` in the ordinary pipeline)."""
        replica = self.replica
        interval = replica.config.onesided_poll_interval
        while replica.running:
            yield replica.env.timeout(interval)
            for link in self.links.values():
                if not link.dead:
                    link.drain()
            if self._proposal_reader is not None:
                self._proposal_reader.poll()
            for reader in self._lane_readers.values():
                reader.poll()

    def deliver(self, message, sender: str) -> None:
        self.records.increment()
        self.replica._route(message, sender)

    # -- failure handling ------------------------------------------------

    def link_down(self, target: str) -> None:
        """A link died (permission denial, crashed peer, queue error):
        that peer falls back to the message-passing path."""
        self.fallbacks.increment()

    def fallback(self, reason: str) -> None:
        """Turn the whole outbound fast path off (corruption, overrun)."""
        if self._outbound:
            self._outbound = False
            self.fallbacks.increment()

    def corruption(
        self, region: str, slot: int, kind: str, writer: Optional[str]
    ) -> None:
        self.corrupted_slots.increment()
        audit = get_audit(self.replica.env)
        if audit.enabled:
            audit.on_onesided_corruption(
                self.replica.replica_id, region, slot, kind, writer
            )
        self.fallback("corruption")

    # -- dynamic permission switching on view changes --------------------

    def fence_leader(self) -> None:
        """The replica just voted against its leader: revoke the leader's
        ring grant, whose epoch bump kills even in-flight proposal WRs."""
        replica = self.replica
        if self.proposal_mr is not None and replica.config.onesided_guard:
            self.proposal_mr.revoke(replica.leader_of(replica.view))

    def follow_leader(self) -> None:
        """The replica adopted a new view: only its leader may write."""
        mr = self.proposal_mr
        if mr is None:
            return
        replica = self.replica
        if replica.config.onesided_guard:
            leader = replica.leader_of(replica.view)
            for peer in list(mr.grants()):
                if peer != leader:
                    mr.revoke(peer)
            # Granting the leader on its own ring is harmless (hosts
            # cannot spoof src_host) and keeps the grant-table shape
            # uniform across replicas.
            mr.grant(leader, Access.REMOTE_WRITE)
        self._declare_writers()


# ----------------------------------------------------------------------
# cluster wiring
# ----------------------------------------------------------------------


def wire_onesided(cluster: "BftCluster") -> None:
    """Build the one-sided overlay over a started cluster.

    For every ordered replica pair (writer, target) this registers the
    target's inbound regions (once), creates a connected QP pair, hands
    the writer a :class:`OneSidedLink` with the target's rkeys — the
    out-of-band rkey exchange a real deployment does during setup — and
    finally starts every replica's poller.
    """
    paths = {
        rid: replica.onesided
        for rid, replica in cluster.replicas.items()
        if replica.onesided is not None
    }
    for path in paths.values():
        path.setup_regions()
    for writer_id, writer in paths.items():
        writer_device = cluster.fabric.host(writer_id).stack("rdma")
        for target_id, target in paths.items():
            if target_id == writer_id:
                continue
            target_device = cluster.fabric.host(target_id).stack("rdma")
            send_cq = writer_device.create_cq(
                name=f"{writer_id}->{target_id}.os"
            )
            writer_pd = writer_device.alloc_pd()
            writer_qp = writer_device.create_qp(writer_pd, send_cq, send_cq)
            # The responder QP must share the PD of the target's regions
            # or every WRITE faults on PD containment.
            target_cq = target_device.create_cq(
                name=f"{target_id}<-{writer_id}.os"
            )
            target_qp = target_device.create_qp(target.pd, target_cq, target_cq)
            writer_qp.connect(target_id, target_qp.qp_num)
            target_qp.connect(writer_id, writer_qp.qp_num)
            staging = writer_device.reg_mr(
                writer_pd,
                alloc_registered(cluster.config.onesided_slot_bytes),
                Access.LOCAL_WRITE,
            )
            writer.links[target_id] = OneSidedLink(
                writer,
                target_id,
                writer_qp,
                staging,
                target.proposal_mr.rkey,
                target.lane_mrs[writer_id].rkey,
                cluster.config,
            )
    for path in paths.values():
        path.activate()
