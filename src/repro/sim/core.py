"""The discrete-event kernel: agenda, clock, and run loop.

:class:`Environment` owns simulated time.  Everything else in this library —
links, NICs, TCP stacks, RDMA devices, BFT replicas — is a set of processes
and events scheduled on one environment.

Determinism
-----------

The agenda orders events by ``(time, priority, sequence)``.  The
monotonically increasing sequence number makes event processing order fully
deterministic for identical inputs, which the benchmark harness relies on:
every figure in EXPERIMENTS.md reproduces bit-for-bit.

Agenda structure
----------------

Physically the agenda is split into three lanes:

* an **urgent lane** (a deque of callables) receiving every zero-delay
  URGENT push — process, drive and hold starts, interrupts.  Such an entry
  means exactly "run after the current event's callbacks, in push order,
  before anything NORMAL": it needs no key, no :class:`Event` and no
  sequence number, so the loops drain this lane first and call each
  *start* directly.  (While a :class:`TieBreakPolicy` is installed starts
  stay keyed heap entries, because same-instant starts are choice points
  the policy enumerates.)
* a **zero-delay lane** (a deque) receiving every ``(now, NORMAL)`` push —
  event triggers, store grants, process completions.  The clock never moves
  backwards and sequence numbers only grow, so entries are appended in
  exactly the order they would leave a heap: FIFO *is* sorted order.
* a **far lane** for everything with a delay, implemented either as a
  binary heap or as a :class:`~repro.sim.calqueue.CalendarQueue`, selected
  by ``Environment(scheduler=...)``.

The zero-delay and far lanes are merged by comparing full ``(time,
priority, sequence)`` keys, so the dispatch order is identical no matter
which lane an entry landed in — the split is purely a performance device,
and both schedulers reproduce the pinned schedule fingerprints bit-for-bit.

Adjacency
---------

A chain whose private tail would push a zero-delay entry may *call* it
instead when that entry is provably the next one served: the urgent lane
is empty, the zero-delay lane is empty and the far head is strictly later
than ``now``.  Nothing can run, or take a sequence number, in between, so
every other entry keeps its time and its rank.
:class:`~repro.sim.resources.TimedHold` does this for its grant and its
completion.
"""

from __future__ import annotations

import gc as _gc
import heapq
import os as _os
from collections import deque
from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.calqueue import CalendarQueue
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = ["Environment", "Infinity", "TieBreakPolicy", "DEFAULT_SCHEDULER", "SCHEDULERS"]

#: Convenience alias used for "run forever" bounds.
Infinity = float("inf")

#: Recognized values for ``Environment(scheduler=...)``.
SCHEDULERS = ("heap", "calendar")

#: Scheduler used when neither the constructor argument nor the
#: ``REPRO_SCHEDULER`` environment variable says otherwise.  ``calendar``
#: is the default: it reproduces every pinned schedule fingerprint
#: bit-for-bit; on the Fig-3/4 sweeps the two are within noise of each
#: other, on unbatched PBFT the heap is 6-16 % slower (DESIGN §16).
DEFAULT_SCHEDULER = "calendar"


class TieBreakPolicy:
    """Chooses which of several same-instant agenda entries runs next.

    The kernel orders its agenda by ``(time, priority, sequence)``; the
    sequence number is a pure tie-break and any permutation of entries
    that share ``(time, priority)`` is a legal schedule.  Installing a
    policy via :meth:`Environment.set_tiebreak` exposes exactly those
    choice points: whenever two or more entries are tied on
    ``(time, priority)``, the kernel collects them in sequence order and
    asks the policy which one to dispatch.

    ``choose`` receives the current time and the tied entries (each a
    ``(time, priority, sequence, event)`` tuple, sequence-ordered) and
    returns the index of the entry to dispatch; the rest are pushed back
    with their original sequence numbers, so index ``0`` everywhere
    reproduces the kernel's native order bit-for-bit.  Out-of-range
    indices fall back to ``0``.

    With no policy installed the kernel never materializes ready sets
    and runs the fast loops.  Starts (zero-delay URGENT entries) are
    choice points like any other tie, so while a policy is installed
    they are keyed heap entries instead of urgent-lane callables.
    """

    def choose(self, now: float, entries: list) -> int:
        return 0


class _HeapLanes:
    """Lane stand-in that routes every push into one binary heap.

    Used in two situations: as both lane slots of a
    ``scheduler="heap"`` environment (the legacy single-heap agenda the
    calendar scheduler replaces), and while a :class:`TieBreakPolicy` is
    installed — the policy slow path needs every pending entry in one
    structure so it can materialize equal-``(time, priority)`` ready
    sets.  Either way, the inlined push sites (which call ``_dq.append``
    / ``_far.push``) land straight in the heap that the legacy run loop
    and :meth:`Environment._pop_choice` consume.
    """

    __slots__ = ("_queue",)

    #: CalendarQueue interface stub: ``Timeout.__init__`` inlines the
    #: calendar's current-run fast path behind a ``when < _bucket_top``
    #: test; -inf makes that test always false here, so every timeout
    #: falls through to the generic :meth:`push` (the heap).
    _bucket_top = float("-inf")

    def __init__(self, queue: list):
        self._queue = queue

    def append(self, entry) -> None:
        _heappush(self._queue, entry)

    push = append

    # The read side, for ``peek``/``step`` and adjacency tests (see the
    # module docstring).  As the zero-delay lane the shim holds nothing
    # ``head`` does not cover; as the far lane its head is the heap's.
    def __len__(self) -> int:
        return 0

    @property
    def head(self):
        queue = self._queue
        return queue[0] if queue else None

    def pop(self):
        return _heappop(self._queue)


class _HeapStarts:
    """Urgent-lane stand-in while a :class:`TieBreakPolicy` is installed.

    Same-instant starts are ties the policy may permute, so each one
    becomes the ``(now, URGENT, sequence)`` heap entry it used to be: an
    event whose single callback is the start (every start accepts and
    ignores that event).  Always empty as far as an adjacency test is
    concerned — what it was given is in the heap, under ``head``.
    """

    __slots__ = ("_env",)

    def __init__(self, env: "Environment"):
        self._env = env

    def append(self, start) -> None:
        env = self._env
        event = Event(env)
        event.callbacks.append(start)
        event._value = None
        env._eid += 1
        _heappush(env._queue, (env._now, 0, env._eid, event))

    def __len__(self) -> int:
        return 0


class Environment:
    """A simulation environment: clock, agenda, and factory methods.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.  The library uses seconds
        as the unit convention throughout (latencies are reported in
        microseconds by dividing at the edges).
    scheduler:
        ``"heap"`` or ``"calendar"`` — the far-lane structure.  ``None``
        (the default) resolves the ``REPRO_SCHEDULER`` environment
        variable, then :data:`DEFAULT_SCHEDULER`.  Both schedulers
        dispatch the exact same ``(time, priority, sequence)`` order.
    """

    #: Priority for ordinary events.
    NORMAL = 1
    #: Priority for urgent events (interrupts), processed before normal
    #: events scheduled for the same time.
    URGENT = 0

    # Slots: the inlined push sites read _now/_eid/_urgent/_dq/_far on
    # every event, and slot descriptors beat instance-dict lookups at
    # sweep scale.  ``tracer`` and ``audit`` are the two attributes
    # external modules attach (install_tracer / install_audit).
    __slots__ = (
        "_scheduler",
        "_lanes",
        "_now",
        "_urgent",
        "_dq",
        "_far",
        "_queue",
        "_eid",
        "_active_process",
        "_tiebreak",
        "tracer",
        "audit",
    )

    def __init__(self, initial_time: float = 0.0, scheduler: Optional[str] = None):
        if scheduler is None:
            scheduler = _os.environ.get("REPRO_SCHEDULER") or DEFAULT_SCHEDULER
        if scheduler not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r} (choose from {SCHEDULERS})"
            )
        self._scheduler = scheduler
        self._now = float(initial_time)
        # The urgent lane: starts, called as ``start()`` in push order
        # before anything else due now.  ``env._urgent.append(start)`` is
        # the one way to schedule one.
        self._urgent: Any = deque()
        # Single-heap agenda: the whole agenda under ``scheduler="heap"``
        # and whenever a TieBreakPolicy is installed; empty otherwise.
        self._queue: list[tuple[float, int, int, Event]] = []
        # The two lanes.  Under "calendar" they are a real deque plus a
        # CalendarQueue; under "heap" both slots are one _HeapLanes shim
        # so every push lands in the legacy heap.
        self._lanes = scheduler == "calendar"
        if self._lanes:
            self._dq: Any = deque()
            self._far: Any = CalendarQueue(self._now)
        else:
            self._dq = self._far = _HeapLanes(self._queue)
        self._eid = 0
        self._active_process: Optional[Process] = None
        # Optional TieBreakPolicy consulted on equal-(time, priority)
        # ready sets; None selects the untouched fast run loop.
        self._tiebreak: Optional[TieBreakPolicy] = None
        # Observational tracing hook: ``repro.trace.install_tracer`` sets
        # this; ``repro.trace.get_tracer`` falls back to a no-op tracer
        # while it is None.  The kernel itself never reads it.
        self.tracer = None
        # Audit hook (``repro.audit.install_audit``), declared for slots.
        self.audit = None

    # -- clock & agenda -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Which far-lane structure this environment runs on."""
        return self._scheduler

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Put ``event`` on the agenda ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if delay == 0.0 and priority == 0 and self._tiebreak is None:
            self._urgent.append(partial(self._fire, event))
            return
        self._eid += 1
        if delay == 0.0 and priority == 1:
            self._dq.append((self._now, 1, self._eid, event))
        else:
            self._far.push((self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``Infinity`` if none."""
        if self._urgent:
            return self._now
        head = self._far.head
        dq = self._dq
        if dq:
            when = dq[0][0]
            return when if head is None or when < head[0] else head[0]
        return head[0] if head is not None else Infinity

    def _pending(self) -> int:
        """Number of agenda entries across all lanes."""
        if self._tiebreak is not None or not self._lanes:
            return len(self._urgent) + len(self._queue)
        return len(self._urgent) + len(self._dq) + len(self._far)

    def set_tiebreak(self, policy: Optional[TieBreakPolicy]) -> None:
        """Install (or clear) the equal-timestamp tie-break policy.

        Installing a policy migrates every lane into the legacy single
        heap the policy loop consumes.  Keyed entries keep their
        ``(time, priority, sequence)``; pending starts take fresh
        sequence numbers in lane order, which puts them exactly where
        the lane had them — after any delayed URGENT entry due now,
        before everything NORMAL.  A policy that always answers 0
        therefore reproduces the native order bit-for-bit.  Clearing the
        policy migrates the pending entries back into the lanes; starts
        still pending then stay keyed URGENT entries, which the loops
        serve ahead of the (empty) urgent lane.

        Under ``scheduler="heap"`` only the urgent lane migrates: the
        rest of the agenda already is the heap the policy loop consumes.
        """
        if policy is not None:
            if self._tiebreak is None:
                if self._lanes:
                    entries = list(self._dq)
                    entries.extend(self._far._entries())
                    heapq.heapify(entries)
                    self._queue = entries
                    self._dq = self._far = _HeapLanes(entries)
                starts = self._urgent
                self._urgent = _HeapStarts(self)
                for start in starts:
                    self._urgent.append(start)
        elif self._tiebreak is not None:
            self._urgent = deque()
            if self._lanes:
                entries = sorted(self._queue)
                self._queue = []
                self._dq = deque()
                far = CalendarQueue(self._now)
                for entry in entries:
                    far.push(entry)
                self._far = far
        self._tiebreak = policy

    def _pop_choice(self) -> tuple[float, int, int, Event]:
        """Pop the next agenda entry, letting the policy break ties.

        Entries tied on ``(time, priority)`` are collected in sequence
        order and the installed policy picks one; the others go back on
        the heap with their original sequence numbers so a policy that
        always answers 0 is indistinguishable from no policy at all.
        """
        queue = self._queue
        entry = heapq.heappop(queue)
        if queue and queue[0][0] == entry[0] and queue[0][1] == entry[1]:
            when, prio = entry[0], entry[1]
            tied = [entry]
            while queue and queue[0][0] == when and queue[0][1] == prio:
                tied.append(heapq.heappop(queue))
            index = self._tiebreak.choose(when, tied)
            if not 0 <= index < len(tied):
                index = 0
            entry = tied.pop(index)
            for other in tied:
                heapq.heappush(queue, other)
        return entry

    def _fire(self, event: Event, _entry: Optional[Event] = None) -> None:
        """Run ``event``'s callbacks; surface a failure nobody handled.

        Doubles as the start that ``schedule(event, priority=URGENT)``
        puts on the urgent lane, hence the ignored second argument.
        """
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody waited on: surface it loudly.
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def step(self) -> None:
        """Process the single next entry on the agenda."""
        if self._tiebreak is not None:
            if not self._queue:
                raise SimulationError("agenda is empty")
            entry = self._pop_choice()
        else:
            # One path for both schedulers: under "heap" the lane shim
            # is an empty ``dq`` whose ``head``/``pop`` are the heap's.
            dq = self._dq
            far = self._far
            head = far.head
            # Starts first, unless a delayed URGENT entry fell due this
            # instant (see _run_loop).
            if self._urgent and (
                head is None or head[1] or head[0] > self._now
            ):
                self._urgent.popleft()()
                return
            if dq:
                entry = dq[0]
                if head is not None and head < entry:
                    entry = far.pop()
                else:
                    dq.popleft()
            elif head is not None:
                entry = far.pop()
            else:
                raise SimulationError("agenda is empty")
        self._now = entry[0]
        self._fire(entry[3])

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the agenda empties;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if until is None:
            stop_at = Infinity
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_at = Infinity
            stop_event = until
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
        else:
            stop_at = float(until)
            if stop_at <= self._now:
                raise SimulationError(
                    f"until={stop_at} is not in the future (now={self._now})"
                )
            stop_event = None

        # Merged run loop: the step() body is inlined with the lanes held
        # in locals.  The loop retires hundreds of thousands of events per
        # sweep, so attribute lookups and the extra frame per step dominate
        # host time; semantics are identical to
        # ``while pending: ... self.step() ...``.  Two copies of the loop
        # so the common cases pay neither the stop_event nor the stop_at
        # comparison per event.
        #
        # The loop allocates a handful of small objects per event and
        # frees nearly all of them by reference counting — the event
        # graph is deliberately acyclic (holds point at requests and
        # timeouts, never back), so generation-0 passes triggered every
        # ~2000 allocations find almost nothing cyclic to reclaim.  At
        # sweep scale those passes cost more host time than the event
        # callbacks themselves.  Pause cyclic collection while the loop
        # runs; the previous state is restored on every exit path, and
        # anything the loop leaked in a cycle is picked up by the next
        # threshold-triggered collection after re-enable.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            if self._tiebreak is not None:
                return self._run_loop_policy(stop_event, stop_at)
            if not self._lanes:
                return self._run_loop_heap(stop_event, stop_at)
            return self._run_loop(stop_event, stop_at)
        finally:
            if gc_was_enabled:
                _gc.enable()

    def _run_loop_heap(
        self,
        stop_event: Optional[Event],
        stop_at: float,
    ) -> Any:
        """Run loop for the legacy single-heap scheduler."""
        queue = self._queue
        pop = _heappop
        urgent = self._urgent
        next_start = urgent.popleft
        if stop_event is not None:
            while True:
                # Starts first — unless a delayed URGENT entry fell due
                # this instant: it was keyed before the instant began, so
                # it precedes every start pushed during it.
                if urgent and not (
                    queue and queue[0][1] == 0 and queue[0][0] <= self._now
                ):
                    next_start()()
                elif queue:
                    entry = pop(queue)
                    self._now = entry[0]
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        # A failed event nobody waited on: surface it loudly.
                        exc = event._value
                        raise exc if isinstance(
                            exc, BaseException
                        ) else SimulationError(repr(exc))
                else:
                    break
                if stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    stop_event._defused = True
                    raise stop_event._value
        else:
            while True:
                if urgent and not (
                    queue and queue[0][1] == 0 and queue[0][0] <= self._now
                ):
                    next_start()()
                    continue
                if not queue:
                    break
                if queue[0][0] > stop_at:
                    self._now = stop_at
                    return None
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    # A failed event nobody waited on: surface it loudly.
                    exc = event._value
                    raise exc if isinstance(
                        exc, BaseException
                    ) else SimulationError(repr(exc))

        if stop_event is not None:
            raise SimulationError(
                "simulation ran out of events before the awaited event "
                f"{stop_event!r} triggered"
            )
        if stop_at is not Infinity:
            self._now = stop_at
        return None

    def _run_loop(
        self,
        stop_event: Optional[Event],
        stop_at: float,
    ) -> Any:
        urgent = self._urgent
        next_start = urgent.popleft
        dq = self._dq
        dq_popleft = dq.popleft
        far = self._far
        far_advance = far._advance
        if stop_event is not None:
            while True:
                # Starts first — unless a delayed URGENT entry fell due
                # this instant: it was keyed before the instant began, so
                # it precedes every start pushed during it (the merge
                # below then serves it, URGENT sorting ahead of NORMAL).
                if urgent and (
                    (head := far.head) is None
                    or head[1]
                    or head[0] > self._now
                ):
                    next_start()()
                else:
                    # Merge the lanes: full-key tuple comparison, so
                    # dispatch order is independent of which lane an
                    # entry landed in.  Far pops are inlined (``head``
                    # *is* ``_cur[_idx]``, so clearing the served slot,
                    # advancing the serve index and rebinding head
                    # replaces a method call on the per-timeout hot
                    # path).
                    if dq:
                        entry = dq[0]
                        head = far.head
                        if head is not None and head < entry:
                            entry = head
                            cur = far._cur
                            idx = far._idx
                            cur[idx] = None
                            idx += 1
                            far._idx = idx
                            try:
                                far.head = cur[idx]
                            except IndexError:
                                far_advance()
                        else:
                            dq_popleft()
                    else:
                        entry = far.head
                        if entry is None:
                            break
                        cur = far._cur
                        idx = far._idx
                        cur[idx] = None
                        idx += 1
                        far._idx = idx
                        try:
                            far.head = cur[idx]
                        except IndexError:
                            far_advance()
                    self._now = entry[0]
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    # Single-callback events are the overwhelmingly
                    # common case; calling directly skips the iterator
                    # setup.
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if not event._ok and not event._defused:
                        # A failed event nobody waited on: surface it
                        # loudly.
                        exc = event._value
                        raise exc if isinstance(
                            exc, BaseException
                        ) else SimulationError(repr(exc))
                if stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    stop_event._defused = True
                    raise stop_event._value
        else:
            while True:
                if urgent and (
                    (head := far.head) is None
                    or head[1]
                    or head[0] > self._now
                ):
                    # Starts are due now, and now never outruns stop_at.
                    next_start()()
                    continue
                if dq:
                    # Zero-delay entries never outrun the clock, so only a
                    # far head can cross stop_at; the dq branch needs no
                    # bounds check.
                    entry = dq[0]
                    head = far.head
                    if head is not None and head < entry:
                        entry = head
                        cur = far._cur
                        idx = far._idx
                        cur[idx] = None
                        idx += 1
                        far._idx = idx
                        try:
                            far.head = cur[idx]
                        except IndexError:
                            far_advance()
                    else:
                        dq_popleft()
                else:
                    entry = far.head
                    if entry is None:
                        break
                    if entry[0] > stop_at:
                        self._now = stop_at
                        return None
                    cur = far._cur
                    idx = far._idx
                    cur[idx] = None
                    idx += 1
                    far._idx = idx
                    try:
                        far.head = cur[idx]
                    except IndexError:
                        far_advance()
                self._now = entry[0]
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    # A failed event nobody waited on: surface it loudly.
                    exc = event._value
                    raise exc if isinstance(
                        exc, BaseException
                    ) else SimulationError(repr(exc))

        if stop_event is not None:
            raise SimulationError(
                "simulation ran out of events before the awaited event "
                f"{stop_event!r} triggered"
            )
        if stop_at is not Infinity:
            self._now = stop_at
        return None

    def _run_loop_policy(
        self, stop_event: Optional[Event], stop_at: float
    ) -> Any:
        """Run loop variant used when a tie-break policy is installed.

        Every pop goes through :meth:`_pop_choice` on the migrated legacy
        heap, which holds the whole agenda — starts included.
        """
        queue = self._queue
        while queue:
            if stop_event is None and queue[0][0] > stop_at:
                self._now = stop_at
                return None
            entry = self._pop_choice()
            self._now = entry[0]
            self._fire(entry[3])
            if stop_event is not None and stop_event.callbacks is None:
                if stop_event._ok:
                    return stop_event._value
                stop_event._defused = True
                raise stop_event._value

        if stop_event is not None:
            raise SimulationError(
                "simulation ran out of events before the awaited event "
                f"{stop_event!r} triggered"
            )
        if stop_at is not Infinity:
            self._now = stop_at
        return None

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that triggers at the absolute time ``when``.

        Unlike ``timeout(when - now)`` the entry is keyed with ``when``
        to the bit (see :meth:`Event.succeed_at`); ``when == now`` is
        allowed, a past instant is an error.
        """
        return Event(self).succeed_at(when, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    def __repr__(self) -> str:
        return (
            f"<Environment now={self._now!r} pending={self._pending()} "
            f"at {id(self):#x}>"
        )
