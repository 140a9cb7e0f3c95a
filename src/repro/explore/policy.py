"""Tie-break policies: the choice points schedule exploration drives.

The kernel's agenda orders events by ``(time, priority, sequence)``; any
permutation of entries tied on ``(time, priority)`` is a legal schedule.
:class:`RecordingPolicy` turns those ties into explicit *choice points*:
each one replays a prescribed choice prefix (deviations from the default
order), falls back to a pluggable strategy past the prefix, and records
every decision it makes — the recorded choice sequence *is* the schedule
identity, and feeding it back as the prescription replays the run
bit-identically.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.core import TieBreakPolicy

__all__ = ["owner_key", "entry_owner", "RecordingPolicy", "SeededFuzz"]


def _callback_owner(callback, default: str) -> str:
    bound = getattr(callback, "__self__", None)
    if bound is not None:
        name = getattr(bound, "name", None)
        if isinstance(name, str) and name:
            return name.split(".", 1)[0]
        return type(bound).__name__
    return getattr(callback, "__name__", default)


def owner_key(event) -> str:
    """The host/component a pending agenda entry belongs to.

    Derived from the event's first callback: process callbacks are bound
    to a named :class:`~repro.sim.process.Process` (names like
    ``"r0.pipe1"`` or ``"cluster.wire"`` lead with the owning host), so
    the leading dot-token groups entries by owner.  Entries owned by
    different hosts are heuristically independent — swapping them cannot
    change either host's local history — which is what the explorer's
    DPOR-style pruning keys on.
    """
    callbacks = event.callbacks
    if callbacks:
        return _callback_owner(callbacks[0], type(event).__name__)
    return type(event).__name__


def entry_owner(entry) -> str:
    """:func:`owner_key` of an agenda entry, event or bare.

    A bare entry ``(time, priority, sequence, None, fn, arg)`` has no
    event; its one function is what an event's first callback is, and
    the owner comes from it the same way.
    """
    event = entry[3]
    if event is None:
        return _callback_owner(entry[4], "bare")
    return owner_key(event)


class RecordingPolicy(TieBreakPolicy):
    """Replay a choice prefix, then follow a fallback, recording it all.

    Parameters
    ----------
    prescribed:
        Choice indices consumed one per choice point.  Out-of-range
        prescriptions (the ready set turned out smaller than when the
        trace was recorded) clamp to 0 and are counted in ``clamped``.
    fallback:
        ``f(now, entries, position) -> index`` used past the prefix;
        ``None`` means the default order (index 0).
    record_owners:
        Also record each choice point's owner-key tuple (used by the
        explorer's pruning pass on the base run; costs memory, so off by
        default).
    """

    def __init__(
        self,
        prescribed: Sequence[int] = (),
        fallback: Optional[Callable[[float, list, int], int]] = None,
        record_owners: bool = False,
    ):
        self.prescribed = list(prescribed)
        self.fallback = fallback
        self.record_owners = record_owners
        #: Index actually dispatched at each choice point.
        self.choices: List[int] = []
        #: Ready-set size at each choice point.
        self.sizes: List[int] = []
        #: Owner-key tuple per choice point (``record_owners`` only).
        self.owners: List[Tuple[str, ...]] = []
        #: Prescriptions that no longer fit their ready set.
        self.clamped = 0

    def choose(self, now: float, entries: list) -> int:
        position = len(self.choices)
        size = len(entries)
        if position < len(self.prescribed):
            index = self.prescribed[position]
            if not 0 <= index < size:
                self.clamped += 1
                index = 0
        elif self.fallback is not None:
            index = self.fallback(now, entries, position)
            if not 0 <= index < size:
                index = 0
        else:
            index = 0
        self.choices.append(index)
        self.sizes.append(size)
        if self.record_owners:
            self.owners.append(tuple(entry_owner(e) for e in entries))
        return index

    def trimmed_choices(self) -> Tuple[int, ...]:
        """The recorded schedule with trailing default choices dropped.

        Replaying the trimmed tuple reproduces the run exactly: past the
        prescription a :class:`RecordingPolicy` with no fallback picks 0,
        which is what the trailing entries were.
        """
        choices = self.choices
        last = len(choices)
        while last and choices[last - 1] == 0:
            last -= 1
        return tuple(choices[:last])


class SeededFuzz:
    """Fallback strategy: deviate from the default order at random.

    Seeded (``random.Random``) so a fuzz run is identified entirely by
    its seed; the deviations it takes are recorded by the enclosing
    :class:`RecordingPolicy` and replay without the RNG.
    """

    def __init__(
        self,
        seed: int,
        deviation_rate: float = 0.02,
        max_deviations: int = 16,
    ):
        self.seed = seed
        self.deviation_rate = deviation_rate
        self.max_deviations = max_deviations
        self.deviations = 0
        self._rng = random.Random(f"repro.explore.fuzz:{seed}")

    def __call__(self, now: float, entries: list, position: int) -> int:
        if self.deviations >= self.max_deviations:
            return 0
        if self._rng.random() >= self.deviation_rate:
            return 0
        self.deviations += 1
        return self._rng.randrange(len(entries))
