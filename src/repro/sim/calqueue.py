"""Calendar-queue agenda for the event kernel's delayed-event lane.

A classic binary heap pays ``O(log n)`` per enqueue and dequeue.  A
calendar queue (Brown, CACM 1988) pays amortized ``O(1)`` for both by
hashing events into time buckets of a fixed *width* — like writing
appointments into the day pages of a desk calendar — and serving the
buckets in time order, one "day" at a time.

This implementation departs from Brown's min-scan in one way that suits
CPython: buckets are kept *unsorted* on insert (a C-speed ``append``),
and when the serve pointer enters a bucket its due entries are split off
and sorted once (C timsort) into the *current run*, which is then served
by index — no per-pop linear scans, no ``list.remove``.  Late arrivals
that fall into the already-sorted run are placed with ``bisect.insort``
(also C).  The net effect is that both enqueue and dequeue are dominated
by C-level list primitives instead of heap sifts.

Entries are ``(when, priority, eid, event)`` tuples — the same total
order the heap agenda uses — and :meth:`pop` returns them in exactly
that order, which the kernel's schedule-fingerprint tests pin
bit-for-bit against the heap scheduler.

The queue resizes itself: when occupancy outgrows the bucket array the
array doubles and the bucket width is re-derived from the observed
spacing of the soonest pending entries, so workloads with microsecond
NIC events and hundred-millisecond view-change timers coexist without
degenerating into one giant bucket or a million empty ones.
"""

from __future__ import annotations

from bisect import insort as _insort
from typing import Any, List, Optional, Tuple

__all__ = ["CalendarQueue"]

#: One agenda entry: (when, priority, eid, event).
Entry = Tuple[float, int, int, Any]

#: Mean entries per bucket the resize rule aims for.  A few per bucket
#: amortizes the bucket-advance bookkeeping over several C-sorted pops;
#: Brown's classic target of ~1 optimizes comparison counts, which is
#: the wrong currency in CPython where the sort is C and the bookkeeping
#: is bytecode.
TARGET_OCCUPANCY = 4.0

#: Bucket-width clamp: never narrower than a picosecond (the simulation
#: works in seconds; sub-ps gaps are float noise), never wider than a
#: second (keeps the serve pointer from overshooting whole runs).
MIN_WIDTH = 1e-12
MAX_WIDTH = 1.0


class CalendarQueue:
    """A priority queue of agenda entries bucketed by time.

    Parameters
    ----------
    now:
        Lower bound for every subsequent push (the simulation clock).
    width:
        Initial bucket width in simulated seconds.  The default suits
        the NIC/CPU-cost scale of the calibrated testbed; the automatic
        resize corrects a bad guess after the first few thousand events.
    nbuckets:
        Initial bucket count; must be a power of two.
    """

    __slots__ = (
        "_buckets",
        "_mask",
        "_nbuckets",
        "_width",
        "_inv_width",
        "_ring",
        "_cur",
        "_idx",
        "_bucket_top",
        "_abs_bucket",
        "head",
        "_grow_at",
    )

    def __init__(self, now: float = 0.0, width: float = 2e-6, nbuckets: int = 256):
        if nbuckets & (nbuckets - 1):
            raise ValueError(f"nbuckets must be a power of two ({nbuckets})")
        self._buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._width = width
        self._inv_width = 1.0 / width
        #: Entries living in the ring buckets (the current run's entries
        #: are counted separately via ``len(_cur) - _idx``).  Splitting
        #: the count this way keeps the two hot paths — insort into the
        #: current run, pop from it — free of counter updates.
        self._ring = 0
        #: The sorted run currently being served, and the serve index.
        self._cur: List[Entry] = []
        self._idx = 0
        #: Serve pointer: absolute bucket number and its upper time edge.
        #: Every entry with ``when < _bucket_top`` belongs to the current
        #: run (push inserts it there); later entries hash into the ring.
        self._abs_bucket = int(now * self._inv_width)
        self._bucket_top = (self._abs_bucket + 1) * width
        while self._bucket_top <= now:
            self._abs_bucket += 1
            self._bucket_top = (self._abs_bucket + 1) * width
        #: The next entry :meth:`pop` will return (``None`` when empty).
        #: Public and kept exact so the kernel's run loop can merge the
        #: calendar against the zero-delay lane with one tuple compare.
        self.head: Optional[Entry] = None
        self._grow_at = int(nbuckets * 2 * TARGET_OCCUPANCY)

    def __len__(self) -> int:
        return self._ring + len(self._cur) - self._idx

    def __bool__(self) -> bool:
        # ``head`` is None exactly when the queue is empty (push and
        # _advance maintain that invariant).
        return self.head is not None

    # -- enqueue -----------------------------------------------------------

    def _index(self, when: float) -> int:
        """Absolute bucket number of ``when``, boundary-consistent.

        ``int(when * inv_width)`` alone can disagree with the bucket-top
        formula ``(b + 1) * width`` by one ulp at bucket edges; the repair
        step guarantees the invariant every scan relies on:
        ``when < (self._index(when) + 1) * self._width``.
        """
        b = int(when * self._inv_width)
        while (b + 1) * self._width <= when:
            b += 1
        return b

    def push(self, entry: Entry) -> None:
        """Insert ``entry``; ``entry[0]`` must be >= the serving clock."""
        when = entry[0]
        if when < self._bucket_top:
            # Due within the bucket being served: keep the current run
            # sorted.  The insertion window starts at ``_idx`` — already
            # served slots below it hold ``None``.
            cur = self._cur
            _insort(cur, entry, self._idx)
            self.head = cur[self._idx]
        else:
            self._buckets[self._index(when) & self._mask].append(entry)
            ring = self._ring + 1
            self._ring = ring
            if ring > self._grow_at:
                self._resize(self._nbuckets * 2)
            elif self.head is None:
                # The queue was empty; move the serve pointer onto the
                # new entry so ``head`` stays exact.
                self._advance()

    # -- dequeue -----------------------------------------------------------

    def pop(self) -> Entry:
        """Remove and return the least entry (== :attr:`head`)."""
        cur = self._cur
        idx = self._idx
        entry = cur[idx]
        # Let go of the served entry: a run can outlive millions of pops
        # (one far-out timer's bucket swallows every later push), and
        # each slot would pin its event and everything the event holds.
        cur[idx] = None
        idx += 1
        self._idx = idx
        try:
            self.head = cur[idx]
        except IndexError:
            self._advance()
        return entry

    # -- internals ---------------------------------------------------------

    def _advance(self) -> None:
        """Move the serve pointer to the next non-empty due bucket.

        Rebinds ``_cur``/``_idx``/``head`` to the next sorted run, or
        sets ``head = None`` when the queue is empty.  When a whole ring
        revolution finds nothing due (all pending entries live in far
        "years"), jumps directly to the bucket of the global minimum
        instead of stepping one empty day at a time.
        """
        self._cur = []
        self._idx = 0
        if self._ring == 0:
            self.head = None
            return
        buckets = self._buckets
        mask = self._mask
        width = self._width
        b = self._abs_bucket
        remaining = self._nbuckets
        while True:
            b += 1
            # Recompute the top edge by multiplication every step rather
            # than accumulating ``top += width``: accumulation drifts a
            # few ulps per revolution and a drifted edge can classify the
            # very entry a jump targeted as not-yet-due, forever.  One
            # formula everywhere (here, _index, push) means an entry in
            # bucket b is always due by the time the scan reaches b.
            top = (b + 1) * width
            bucket = buckets[b & mask]
            if bucket:
                due: List[Entry] = []
                later: List[Entry] = []
                for e in bucket:
                    if e[0] < top:
                        due.append(e)
                    else:
                        later.append(e)
                if due:
                    buckets[b & mask] = later
                    due.sort()
                    self._ring -= len(due)
                    self._cur = due
                    self.head = due[0]
                    self._abs_bucket = b
                    self._bucket_top = top
                    return
            remaining -= 1
            if remaining == 0:
                # Full revolution, nothing due: every pending entry lives
                # in a far "year".  Jump straight to the bucket of the
                # global minimum instead of stepping one empty day at a
                # time; the _index invariant guarantees the next loop
                # iteration finds it due.
                soonest = min(e[0] for bkt in buckets for e in bkt)
                b = self._index(soonest) - 1
                remaining = self._nbuckets

    def _entries(self) -> List[Entry]:
        """Every pending entry, unsorted (for resize and migration)."""
        out = self._cur[self._idx :]
        for bucket in self._buckets:
            out.extend(bucket)
        return out

    def _resize(self, nbuckets: int) -> None:
        """Rebuild with ``nbuckets`` buckets and a re-derived width.

        The new width targets :data:`TARGET_OCCUPANCY` entries per
        bucket over the soonest span of pending entries — derived purely
        from queue contents, so identical runs resize identically.
        """
        entries = self._entries()
        entries.sort()
        # Width from the spacing of the soonest entries: the span of the
        # first ~2 bucket-array's worth divided by their count.  Far-out
        # stragglers (watchdog timers) are excluded by construction.
        sample = entries[: min(len(entries), nbuckets * 2)]
        if len(sample) >= 2:
            span = sample[-1][0] - sample[0][0]
            width = TARGET_OCCUPANCY * span / len(sample)
        else:
            width = self._width
        if width < MIN_WIDTH:
            width = MIN_WIDTH
        elif width > MAX_WIDTH:
            width = MAX_WIDTH
        floor = entries[0][0] if entries else self._bucket_top - self._width
        self._buckets = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._width = width
        self._inv_width = inv = 1.0 / width
        self._grow_at = int(nbuckets * 2 * TARGET_OCCUPANCY)
        # Park the serve pointer just below the soonest entry, then lay
        # the sorted entries back in; the first pop advances into them.
        self._abs_bucket = self._index(floor) - 1
        self._bucket_top = (self._abs_bucket + 1) * width
        self._cur = []
        self._idx = 0
        self._ring = 0
        self.head = None
        # Every entry is >= floor >= the parked bucket top, so each push
        # takes the ring path and the ring count rebuilds itself.
        for entry in entries:
            self.push(entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CalendarQueue size={len(self)} buckets={self._nbuckets} "
            f"width={self._width:g}>"
        )
