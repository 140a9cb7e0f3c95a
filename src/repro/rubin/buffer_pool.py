"""Pre-registered buffer pools.

"A pool of buffers for send and receive requests are pre-registered and
can be reused as needed" (paper, Section IV).  Registration is expensive
(page pinning, RNIC translation-table updates), so RUBIN pays it once at
channel creation and recycles buffers afterwards.

That cost is a *modeled* one (:meth:`BufferPool.registration_pages`).
The host pays only for pages that hold bytes the model still needs: a
pool is one demand-zero mapping (:func:`repro.rdma.mr.alloc_registered`)
and each buffer a slice of it, so a 128 KiB receive buffer that carries a
256-byte message costs one resident page, and the channel gives that page
back (:attr:`PooledBuffer.pages`) once the message has been read and the
buffer is re-posted.
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, List

from repro.errors import RubinError
from repro.rdma.mr import MemoryRegion, ProtectionDomain, alloc_registered
from repro.rdma.verbs import Access

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import RdmaDevice

__all__ = ["PooledBuffer", "BufferPool"]


class PooledBuffer:
    """One registered buffer, loaned out and returned to its pool."""

    __slots__ = ("pool", "mr", "index", "in_use", "pages")

    def __init__(self, pool: "BufferPool", mr: MemoryRegion, index: int):
        self.pool = pool
        self.mr = mr
        self.index = index
        self.in_use = False
        #: ``(offset, length)`` in the pool's mapping of the host pages
        #: this buffer alone covers, for ``madvise``; None if it covers
        #: none (a buffer smaller than a page shares its pages).
        start = index * pool.buffer_size
        first = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
        end = (start + pool.buffer_size) // mmap.PAGESIZE * mmap.PAGESIZE
        self.pages = (first, end - first) if end > first else None

    @property
    def data(self) -> memoryview:
        """The buffer's backing bytes (shared with the MR)."""
        return self.mr.buffer

    def release(self) -> None:
        """Return the buffer to its pool (idempotent)."""
        self.pool.release(self)

    def __repr__(self) -> str:
        state = "busy" if self.in_use else "free"
        return f"<PooledBuffer #{self.index} {state} {len(self.data)}B>"


class BufferPool:
    """A fixed set of equal-size registered buffers.

    The buffers are non-overlapping slices of one mapping that is
    created, like each buffer's MR, on first acquire;
    :meth:`destroy` deregisters the MRs and gives the mapping back.
    """

    def __init__(
        self,
        device: "RdmaDevice",
        pd: ProtectionDomain,
        count: int,
        buffer_size: int,
        name: str = "pool",
    ):
        if count < 1:
            raise RubinError("a buffer pool needs at least one buffer")
        if buffer_size < 1:
            raise RubinError("buffers must be at least one byte")
        self.device = device
        self.name = name
        self.buffer_size = buffer_size
        self._pd = pd
        self._count = count
        # Backing memory is mapped (and each MR registered) lazily on
        # first acquire.  The *model* pays the full pre-registration cost
        # upfront either way — registration_pages() reports the configured
        # count and reg_mr() charges no simulated time — so laziness is
        # invisible to the schedule; it only spares the host a mapping
        # for pools that are never taken from (e.g. the send pool when
        # zero-copy sends are on).
        self._memory: memoryview | None = None
        self._buffers: List[PooledBuffer] = []
        self._free: List[PooledBuffer] = []
        self._destroyed = False

    def _allocate_one(self) -> None:
        if self._memory is None:
            self._memory = alloc_registered(self._count * self.buffer_size)
        start = len(self._buffers) * self.buffer_size
        mr = self.device.reg_mr(
            self._pd,
            self._memory[start : start + self.buffer_size],
            Access.LOCAL_WRITE,
        )
        # Pool buffers are recycled only on completion, so the send
        # path may gather zero-copy views of them.
        mr.stable = True
        pooled = PooledBuffer(self, mr, len(self._buffers))
        self._buffers.append(pooled)
        self._free.append(pooled)

    @property
    def capacity(self) -> int:
        """Total buffers in the pool."""
        return self._count

    @property
    def available(self) -> int:
        """Buffers currently free (counting ones not yet materialized)."""
        if self._destroyed:
            return 0
        return len(self._free) + (self._count - len(self._buffers))

    def registration_pages(self) -> int:
        """Pages pinned by the whole pool (for setup-cost accounting)."""
        per_buffer = max(1, -(-self.buffer_size // self.device.attrs.page_size))
        return per_buffer * self._count

    def acquire(self) -> PooledBuffer:
        """Take a free buffer; raises :class:`RubinError` when exhausted."""
        pooled = self.try_acquire()
        if pooled is None:
            audit = self.device.env.audit
            if audit is not None:
                audit.on_pool_exhausted(self.name)
            raise RubinError(f"{self.name}: buffer pool exhausted")
        return pooled

    def try_acquire(self) -> PooledBuffer | None:
        """Take a free buffer or return None (never raises, never alarms).

        An exhausted probe here is an *expected* outcome the caller
        handles by stalling — only :meth:`acquire`, whose caller has no
        fallback, fires the ``on_pool_exhausted`` audit alarm.  Taking
        from a destroyed pool is a caller bug, not exhaustion: it raises.
        """
        if self._destroyed:
            raise RubinError(f"{self.name}: buffer pool has been destroyed")
        if not self._free:
            if len(self._buffers) >= self._count:
                return None
            self._allocate_one()
        pooled = self._free.pop()
        pooled.in_use = True
        audit = self.device.env.audit
        if audit is not None:
            audit.on_buffer_acquire(self.name, self.available, self.capacity)
        return pooled

    def release(self, pooled: PooledBuffer) -> None:
        """Return a buffer to the pool."""
        if pooled.pool is not self:
            raise RubinError(f"{self.name}: buffer belongs to another pool")
        audit = self.device.env.audit
        if audit is not None:
            # Report before the idempotence guard below swallows the
            # double return — that guard is exactly what the auditor's
            # checkout/return balance check exists to surface.
            audit.on_buffer_release(
                self.name,
                pooled.index,
                not pooled.in_use,
                len(self._free),
                self.capacity,
            )
        if not pooled.in_use:
            return
        pooled.in_use = False
        if not self._destroyed:
            self._free.append(pooled)

    def destroy(self) -> None:
        """Deregister every buffer; the pool is unusable afterwards.

        The pool also lets go of its buffers, so the mapping is unmapped
        as soon as the last loaned-out buffer (or in-flight zero-copy
        view of one) is dropped.
        """
        self._destroyed = True
        for pooled in self._buffers:
            self.device.dereg_mr(pooled.mr)
        self._buffers.clear()
        self._free.clear()
        self._memory = None

    def __repr__(self) -> str:
        return (
            f"<BufferPool {self.name} {self.available}/{self.capacity} free "
            f"x {self.buffer_size}B>"
        )
