"""Host-side copy accounting for the simulated data path.

The paper's performance argument is about *copies*: RDMA's zero-copy,
kernel-bypass data path is what buys low latency, and RUBIN registers the
application's send buffer directly while the receive path keeps exactly
one copy into the application buffer.  This probe counts how many times
the *simulator's host CPU* actually materialises payload bytes while a
frame crosses the stack, so the reproduction can demonstrate the same
staging/copy discipline the paper describes — and so the exact copy
counts of the Figure-3/Figure-4 echo workloads, pinned in
``tests/sim/test_event_budget.py``, stop a change from quietly
re-introducing copies.  perfbench reports the same counters per operation
(``sim.copies_per_op``, ``sim.copied_bytes_per_op``, ``sim.dma_bytes_per_op``).

Semantics (documented in DESIGN.md §11):

* ``copied_bytes`` / ``copies`` — host CPU copies of payload data: every
  time payload bytes are duplicated into a new owned buffer (``bytes()``
  of a slice, ``bytearray`` extension, staging-buffer fill...).  Pure
  ``memoryview`` slicing does not count: no bytes move.
* ``dma_bytes`` / ``dma_ops`` — modeled *NIC* transfers (scatter/gather
  into registered memory regions).  These are the RNIC's DMA engine in
  the modeled world, not the host CPU, exactly as the paper accounts
  them; they are tallied separately so the copy counts isolate the
  avoidable CPU copies.
* ``frames_delivered`` / ``frame_bytes`` — link-level frame deliveries,
  the denominator of *bytes copied per delivered frame*.

The probe is **pure host bookkeeping**: it is disabled by default, every
instrumentation site is guarded by ``if COPYSTATS.enabled:``, and no
counter ever feeds back into modeled time, event counts or scheduling —
enabling it cannot change a single modeled-latency number.
"""

from __future__ import annotations

__all__ = ["CopyStats", "COPYSTATS"]


class CopyStats:
    """Counters for host copies, modeled DMA, and delivered frames."""

    __slots__ = (
        "enabled",
        "copied_bytes",
        "copies",
        "dma_bytes",
        "dma_ops",
        "frames_delivered",
        "frame_bytes",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Zero every counter (does not touch ``enabled``)."""
        self.copied_bytes = 0
        self.copies = 0
        self.dma_bytes = 0
        self.dma_ops = 0
        self.frames_delivered = 0
        self.frame_bytes = 0

    # The hot paths guard with ``if COPYSTATS.enabled:`` and then call
    # these; keeping them as plain methods (no closures, no locks — the
    # simulator is single-threaded) keeps the disabled path to a single
    # attribute load and branch.

    def copy(self, nbytes: int, times: int = 1) -> None:
        """Record ``times`` host CPU copies of ``nbytes`` payload bytes each.

        ``times=2`` covers the double-copy idiom ``bytes(buf[a:b])`` where
        slicing a ``bytearray`` materialises once and ``bytes()`` again.
        """
        self.copied_bytes += nbytes * times
        self.copies += times

    def dma(self, nbytes: int) -> None:
        """Record one modeled NIC DMA transfer of ``nbytes``."""
        self.dma_bytes += nbytes
        self.dma_ops += 1

    def frame(self, nbytes: int) -> None:
        """Record one link-level frame delivery carrying ``nbytes``."""
        self.frames_delivered += 1
        self.frame_bytes += nbytes

    @property
    def copied_per_frame(self) -> float:
        """Host bytes copied per delivered frame."""
        if not self.frames_delivered:
            return 0.0
        return self.copied_bytes / self.frames_delivered

    def snapshot(self) -> dict:
        """All counters plus bytes copied per frame, as a plain dict."""
        return {
            "copied_bytes": self.copied_bytes,
            "copies": self.copies,
            "dma_bytes": self.dma_bytes,
            "dma_ops": self.dma_ops,
            "frames_delivered": self.frames_delivered,
            "frame_bytes": self.frame_bytes,
            "copied_per_frame": self.copied_per_frame,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CopyStats enabled={self.enabled} copies={self.copies} "
            f"copied_bytes={self.copied_bytes} frames={self.frames_delivered}>"
        )


#: Process-wide probe instance.  The simulator is single-threaded and the
#: benchmarks run one environment at a time, so a module-level singleton
#: keeps the per-site guard down to one attribute load.
COPYSTATS = CopyStats()
