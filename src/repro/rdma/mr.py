"""Memory regions and protection domains.

An application must register a memory region with the RNIC before any
networking operation touches it (paper, Section II-A).  Registration pins
the memory and yields two keys: the *lkey*, quoted in local work requests,
and the *rkey*, which a remote peer must present to access the region with
one-sided Read/Write.  The rkey is exactly the "Steering Tag (STag)" of the
paper's security analysis (Section III-C): anyone who learns it can reach
the buffer until the region is invalidated.

Protection domains group QPs and MRs; an MR is only usable from QPs of the
same PD — the containment mechanism the security tests exercise.
"""

from __future__ import annotations

import itertools
import mmap
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import RdmaError
from repro.rdma.verbs import Access
from repro.sim.copystats import COPYSTATS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import RdmaDevice

__all__ = [
    "ProtectionDomain",
    "MemoryRegion",
    "RemoteAddress",
    "alloc_registered",
    "StalePermissionError",
    "UnauthorizedAccessError",
]


class StalePermissionError(RdmaError):
    """A one-sided access carried a permission epoch that has since been
    revoked — the deterministic fence for in-flight WRs across a
    grant/revoke (Aguilera et al.'s dynamic-permission switching)."""


class UnauthorizedAccessError(RdmaError):
    """A one-sided access from a peer the region's grant table does not
    authorize (or with more access than it was granted)."""

_pd_numbers = itertools.count(1)
_keys = itertools.count(0x1000)
_mr_tokens = itertools.count(1)


def alloc_registered(nbytes: int) -> memoryview:
    """``nbytes`` of zeroed memory for registration, as a writable view.

    The memory is one private anonymous mapping, so the host pays for a
    page only once the model writes to it: a pool sized for the largest
    message costs resident memory in proportion to the bytes that
    actually arrive.  Callers carve a pool into buffers by slicing the
    view; the mapping is unmapped when the last slice is dropped.
    """
    mapping = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        # With transparent huge pages set to "always", one touched byte
        # would make 2 MiB resident — a 256-byte message per 128 KiB
        # buffer would fault the whole pool in.
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    return memoryview(mapping)


class ProtectionDomain:
    """A protection domain: the ownership scope for QPs and MRs."""

    def __init__(self, device: "RdmaDevice"):
        self.device = device
        self.handle = next(_pd_numbers)

    def __repr__(self) -> str:
        return f"<ProtectionDomain #{self.handle} on {self.device.name}>"


class MemoryRegion:
    """A registered, pinned buffer the RNIC may DMA to/from.

    The backing store is a writable byte buffer the application also
    holds (a ``bytearray``, or a view from :func:`alloc_registered`) —
    the zero-copy property of RDMA is literal here: a one-sided WRITE
    mutates the application's own buffer bytes.
    """

    def __init__(
        self,
        pd: ProtectionDomain,
        buffer: bytearray | memoryview,
        access: Access = Access.LOCAL_WRITE,
    ):
        try:
            view = memoryview(buffer)
            usable = (
                not view.readonly
                and view.c_contiguous
                and view.format == "B"
                and view.ndim == 1
            )
        except TypeError:
            usable = False
        if not usable:
            raise RdmaError(
                "memory regions must wrap a mutable, contiguous buffer "
                "of bytes"
            )
        self.pd = pd
        self.buffer = buffer
        self.access = access
        self.lkey = next(_keys)
        self.rkey = next(_keys)
        self.invalidated = False
        #: Monotonic registration token, never recycled for the lifetime of
        #: the process (unlike ``id(buffer)``) — safe as a cache key for
        #: registration caches.
        self.token = next(_mr_tokens)
        #: True when the owner guarantees the registered bytes stay
        #: unchanged until the work completion for any WR referencing them
        #: (e.g. pool/staging buffers that are recycled only on CQE).  The
        #: send path may then gather a zero-copy view instead of snapshotting.
        self.stable = False
        #: Permission epoch: bumped on every grant-table change (and on
        #: invalidation).  A responder captures the epoch when a one-sided
        #: message starts and re-verifies it on every later chunk, so a
        #: revocation fences in-flight WRs deterministically.
        self.perm_epoch = 0
        #: ``None`` = static mode (the classic access-bits check only).
        #: A dict = *guarded* mode: per-peer grants that the RNIC enforces
        #: on top of the rkey + bounds + access-bits checks.  Peers are
        #: host names — the simulation's unforgeable packet source.
        self._peer_grants: Optional[Dict[str, Access]] = None
        #: When enabled (:meth:`track_writes`), every scatter records its
        #: (offset, length) here so a polling consumer can scan only the
        #: slots that actually changed instead of the whole region — the
        #: simulation stand-in for the cache-line polling a real one-sided
        #: receiver does.  ``None`` keeps the hot path a single branch.
        self._dirty: Optional[List[Tuple[int, int]]] = None

    @property
    def length(self) -> int:
        """Registered length in bytes."""
        return len(self.buffer)

    # -- dynamic permissions (per-peer grant table + epochs) ---------------

    @property
    def guarded(self) -> bool:
        """True once a grant table exists: per-peer enforcement is on."""
        return self._peer_grants is not None

    def grants(self) -> Dict[str, Access]:
        """A copy of the grant table (empty in static mode)."""
        return dict(self._peer_grants or {})

    def grant(self, peer: str, access: Access) -> int:
        """Grant ``peer`` one-sided ``access``; returns the new epoch.

        The first grant flips the region into guarded mode: from then on
        every remote access must name a granted peer.  Granting bumps the
        permission epoch, so a WR captured under the old table is fenced
        even when the new table would also allow it — epoch equality is
        the whole check, which keeps the per-chunk re-verification O(1).
        """
        if self.invalidated:
            raise RdmaError(f"{self}: cannot grant on an invalidated region")
        if self._peer_grants is None:
            self._peer_grants = {}
        self._peer_grants[peer] = access
        self.perm_epoch += 1
        self._note_perm_change("grant", peer)
        return self.perm_epoch

    def revoke(self, peer: str) -> int:
        """Drop ``peer``'s grant (idempotent); returns the new epoch.

        Revoking always bumps the epoch — even for a peer that held no
        grant — so callers can use it as an explicit fence.
        """
        if self._peer_grants is None:
            self._peer_grants = {}
        self._peer_grants.pop(peer, None)
        self.perm_epoch += 1
        self._note_perm_change("revoke", peer)
        return self.perm_epoch

    def _note_perm_change(self, kind: str, peer: str) -> None:
        """Count + audit a grant-table change on the owning device/host."""
        device = self.pd.device
        nic = device.host.nic
        counter = nic.perm_grants if kind == "grant" else nic.perm_revokes
        counter.increment()
        from repro.audit import get_audit

        audit = get_audit(device.env)
        if audit.enabled:
            audit.on_perm_change(
                kind,
                host=device.host.name,
                rkey=self.rkey,
                peer=peer,
                epoch=self.perm_epoch,
            )

    def check_epoch(self, epoch: int) -> None:
        """Fence check: the epoch captured at message start must still be
        current (revocation in between → the in-flight WR dies)."""
        if self.invalidated:
            raise StalePermissionError(f"{self}: region has been invalidated")
        if self.guarded and epoch != self.perm_epoch:
            raise StalePermissionError(
                f"{self}: permission epoch {epoch} superseded by "
                f"{self.perm_epoch}"
            )

    # -- access checks (performed by the RNIC on every operation) ---------

    def check_local_read(self, offset: int, length: int) -> None:
        """Validate a local gather (send / WRITE source)."""
        self._check_bounds(offset, length)

    def check_local_write(self, offset: int, length: int) -> None:
        """Validate a local scatter (recv / READ destination)."""
        self._check_bounds(offset, length)
        if not self.access & Access.LOCAL_WRITE:
            raise RdmaError(f"{self}: LOCAL_WRITE not permitted")

    def check_remote(
        self,
        rkey: int,
        offset: int,
        length: int,
        write: bool,
        peer: Optional[str] = None,
    ) -> None:
        """Validate a one-sided access arriving from the wire.

        In guarded mode (:meth:`grant` was ever called) ``peer`` — the
        packet's source host — must additionally hold a current grant
        covering the access; a missing or insufficient grant raises
        :class:`UnauthorizedAccessError` so the QP layer can distinguish
        a forged access from an ordinary protection fault.
        """
        if self.invalidated:
            raise RdmaError(f"{self}: region has been invalidated")
        if rkey != self.rkey:
            raise RdmaError(f"{self}: rkey mismatch")
        self._check_bounds(offset, length)
        needed = Access.REMOTE_WRITE if write else Access.REMOTE_READ
        if not self.access & needed:
            raise RdmaError(f"{self}: {needed.name} not permitted")
        if self.guarded:
            granted = self._peer_grants.get(peer or "", Access(0))
            if not granted & needed:
                raise UnauthorizedAccessError(
                    f"{self}: peer {peer!r} holds no {needed.name} grant"
                )

    def _check_bounds(self, offset: int, length: int) -> None:
        if self.invalidated:
            raise RdmaError(f"{self}: region has been invalidated")
        if offset < 0 or length < 0 or offset + length > self.length:
            raise RdmaError(
                f"{self}: access [{offset}, {offset + length}) outside "
                f"registered [0, {self.length})"
            )

    # -- data movement (called by the device's DMA paths) -------------------

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Gather ``length`` bytes at ``offset`` as an owned snapshot.

        This is the *copying* gather: the real RNIC would DMA straight out
        of the registered buffer, but an owned snapshot is required when
        the application may mutate the buffer while packets carrying it
        are still in flight (see :attr:`stable` and :meth:`read_view`).
        """
        if COPYSTATS.enabled:
            COPYSTATS.copy(length)
        return bytes(memoryview(self.buffer)[offset : offset + length])

    def read_view(self, offset: int, length: int) -> memoryview:
        """Zero-copy gather view (only valid while :attr:`stable` holds)."""
        return memoryview(self.buffer)[offset : offset + length]

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Scatter ``data`` at ``offset`` (bounds already checked)."""
        self.buffer[offset : offset + len(data)] = data
        if self._dirty is not None:
            self._dirty.append((offset, len(data)))

    def track_writes(self) -> None:
        """Start recording (offset, length) of every scatter into the
        region, for pollers that want change detection (see
        :meth:`drain_writes`)."""
        if self._dirty is None:
            self._dirty = []

    def drain_writes(self) -> List[Tuple[int, int]]:
        """Return and clear the recorded scatters since the last drain."""
        out = self._dirty or []
        if self._dirty:
            self._dirty = []
        return out

    # -- lifecycle ----------------------------------------------------------

    def invalidate(self) -> None:
        """Revoke the region's keys (deregistration / STag invalidation).

        Also bumps the permission epoch, so an in-flight one-sided WR that
        captured the region before deregistration fails its next epoch
        check instead of landing in freed memory.
        """
        self.invalidated = True
        self.perm_epoch += 1

    def remote_address(self, offset: int = 0) -> "RemoteAddress":
        """The (rkey, offset) token a peer needs for one-sided access."""
        return RemoteAddress(self.rkey, offset)

    def __repr__(self) -> str:
        state = "invalid" if self.invalidated else "valid"
        return (
            f"<MemoryRegion lkey={self.lkey:#x} rkey={self.rkey:#x} "
            f"len={self.length} {state}>"
        )


class RemoteAddress:
    """An (rkey, offset) pair naming remote memory for one-sided ops."""

    __slots__ = ("rkey", "offset")

    def __init__(self, rkey: int, offset: int):
        self.rkey = rkey
        self.offset = offset

    def __repr__(self) -> str:
        return f"<RemoteAddress rkey={self.rkey:#x}+{self.offset}>"
