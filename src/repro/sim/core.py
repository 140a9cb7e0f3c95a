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
* a **far lane** for everything with a delay: a plain list used only
  through :mod:`heapq`.

The zero-delay and far lanes are merged by comparing full ``(time,
priority, sequence)`` keys, so the dispatch order is identical no matter
which lane an entry landed in — the split is purely a performance device.
A lane holds what is pending and nothing else: a served entry is gone
from it.

Entries
-------

A keyed entry comes in two kinds with the same key:

* an **event entry** ``(time, priority, sequence, event)``: serving it
  runs the event's callbacks;
* a **bare entry** ``(time, priority, sequence, None, fn, arg)``: serving
  it calls ``fn(arg)``.  It is for the code that arms an entry and is
  also its only subscriber — a hold's timer, a queue hand-over to a
  consumer that is a function — and costs one tuple instead of an
  :class:`Event`, its callback list and the append.  It cannot fail and
  no one else can wait on it.  Keys are unique, so a comparison never
  reaches the fourth field.

Both are pushed the same way (``env._dq.append`` for ``(now, NORMAL)``,
``heappush(env._far, ...)`` otherwise), under a :class:`TieBreakPolicy`
too, where a bare entry is an ordinary choice point.

Adjacency
---------

A chain whose private tail would push a zero-delay entry may *call* it
instead when that entry is provably the next one served: the urgent lane
is empty, the zero-delay lane is empty and the far head is strictly later
than ``now``.  Nothing can run, or take a sequence number, in between, so
every other entry keeps its time and its rank.
:class:`~repro.sim.resources.TimedHold` does this for its grant and its
completion, :func:`~repro.sim.process.inline` for the return of a callee
that runs inside its caller, :meth:`Store.post_tail
<repro.sim.resources.Store.post_tail>` for a getter parked on a queue.

Cancelled timers
----------------

A timer that lost an ``any_of`` race would fire into callbacks that all
return at once.  :meth:`Timeout.cancel <repro.sim.events.Timeout.cancel>`
empties its callback list and counts it; once cancelled entries are
more than half the far heap the heap is rebuilt without them.  Keys are
unique, so every survivor pops when it would have.
"""

from __future__ import annotations

import gc as _gc
from collections import deque
from functools import partial
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = ["Environment", "Infinity", "TieBreakPolicy"]

#: Convenience alias used for "run forever" bounds.
Infinity = float("inf")


class TieBreakPolicy:
    """Chooses which of several same-instant agenda entries runs next.

    The kernel orders its agenda by ``(time, priority, sequence)``; the
    sequence number is a pure tie-break and any permutation of entries
    that share ``(time, priority)`` is a legal schedule.  Installing a
    policy via :meth:`Environment.set_tiebreak` exposes exactly those
    choice points: whenever two or more entries are tied on
    ``(time, priority)``, the kernel collects them in sequence order and
    asks the policy which one to dispatch.

    ``choose`` receives the current time and the tied entries (each an
    event entry ``(time, priority, sequence, event)`` or a bare entry
    ``(time, priority, sequence, None, fn, arg)``, sequence-ordered) and
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


class _HeapZeroDelay:
    """Zero-delay-lane stand-in while a :class:`TieBreakPolicy` is installed.

    The policy needs every pending entry in one structure to materialize
    equal-``(time, priority)`` ready sets, so the inlined
    ``env._dq.append(entry)`` sites land in the far heap.  Always empty:
    what it was given is in the heap.
    """

    __slots__ = ("_far",)

    def __init__(self, far: list):
        self._far = far

    def append(self, entry) -> None:
        _heappush(self._far, entry)

    def __len__(self) -> int:
        return 0


class _HeapStarts:
    """Urgent-lane stand-in while a :class:`TieBreakPolicy` is installed.

    Same-instant starts are ties the policy may permute, so each one
    becomes the ``(now, URGENT, sequence)`` heap entry it used to be: an
    event whose single callback is the start (every start accepts and
    ignores that event).  Always empty, like :class:`_HeapZeroDelay`.
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
        _heappush(env._far, (env._now, 0, env._eid, event))

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
        "_now",
        "_urgent",
        "_dq",
        "_far",
        "_cancelled",
        "_eid",
        "_active_process",
        "_tiebreak",
        "tracer",
        "audit",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # The urgent lane: starts, called as ``start()`` in push order
        # before anything else due now.  ``env._urgent.append(start)`` is
        # the one way to schedule one.
        self._urgent: Any = deque()
        # The zero-delay lane: ``(now, NORMAL, sequence, ...)`` entries,
        # event or bare.
        self._dq: Any = deque()
        # The far lane: a heap of keyed entries, touched only through
        # heapq.  The list object lives as long as the environment — the
        # run loops and the policy stand-ins hold references to it.
        self._far: list[tuple] = []
        # Timers cancelled since the far heap was last rebuilt without
        # them (Timeout.cancel); an upper bound, as one may have been
        # served since.
        self._cancelled = 0
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
            _heappush(self._far, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``Infinity`` if none."""
        if self._urgent:
            return self._now
        far = self._far
        dq = self._dq
        if dq:
            when = dq[0][0]
            return when if not far or when < far[0][0] else far[0][0]
        return far[0][0] if far else Infinity

    def _pending(self) -> int:
        """Number of agenda entries across all lanes."""
        return len(self._urgent) + len(self._dq) + len(self._far)

    def set_tiebreak(self, policy: Optional[TieBreakPolicy]) -> None:
        """Install (or clear) the equal-timestamp tie-break policy.

        The policy loop consumes the far heap, so installing a policy
        moves the zero-delay lane's entries into it and swaps both
        keyless lanes for stand-ins that push there.  Keyed entries keep
        their ``(time, priority, sequence)``; pending starts take fresh
        sequence numbers in lane order, which puts them exactly where
        the lane had them — after any delayed URGENT entry due now,
        before everything NORMAL.  A policy that always answers 0
        therefore reproduces the native order bit-for-bit.

        Clearing the policy swaps plain deques back and moves nothing:
        whatever is pending stays in the far heap, which the fast loops
        merge by full key — zero-delay entries and keyed starts included
        (a due URGENT far head is served ahead of the urgent lane).
        Call it between drives, not from inside a callback.
        """
        if policy is not None:
            if self._tiebreak is None:
                far = self._far
                far.extend(self._dq)
                _heapify(far)
                self._dq = _HeapZeroDelay(far)
                starts = self._urgent
                self._urgent = _HeapStarts(self)
                for start in starts:
                    self._urgent.append(start)
        elif self._tiebreak is not None:
            self._urgent = deque()
            self._dq = deque()
        self._tiebreak = policy

    def _pop_choice(self) -> tuple:
        """Pop the next agenda entry, letting the policy break ties.

        Entries tied on ``(time, priority)`` are collected in sequence
        order and the installed policy picks one; the others go back on
        the heap with their original sequence numbers so a policy that
        always answers 0 is indistinguishable from no policy at all.
        """
        far = self._far
        entry = _heappop(far)
        if far and far[0][0] == entry[0] and far[0][1] == entry[1]:
            when, prio = entry[0], entry[1]
            tied = [entry]
            while far and far[0][0] == when and far[0][1] == prio:
                tied.append(_heappop(far))
            index = self._tiebreak.choose(when, tied)
            if not 0 <= index < len(tied):
                index = 0
            entry = tied.pop(index)
            for other in tied:
                _heappush(far, other)
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
        # One path with or without a policy: the policy's lane stand-ins
        # are always empty, which leaves the far heap.
        far = self._far
        # Starts first, unless a delayed URGENT entry fell due this
        # instant (see _run_loop).
        if self._urgent and (not far or far[0][1] or far[0][0] > self._now):
            self._urgent.popleft()()
            return
        dq = self._dq
        if dq and not (far and far[0] < dq[0]):
            entry = dq.popleft()
        elif not far:
            raise SimulationError("agenda is empty")
        elif self._tiebreak is not None:
            entry = self._pop_choice()
        else:
            entry = _heappop(far)
        self._now = entry[0]
        if entry[3] is None:
            entry[4](entry[5])
        else:
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
            return self._run_loop(stop_event, stop_at)
        finally:
            if gc_was_enabled:
                _gc.enable()

    def _run_loop(self, stop_event: Optional[Event], stop_at: float) -> Any:
        # The step() body, inlined with the lanes held in locals.  The
        # loop retires hundreds of thousands of events per sweep, so
        # attribute lookups and the extra frame per step dominate host
        # time; semantics are identical to ``while pending: self.step()``.
        # Two copies of the loop so the common cases pay neither the
        # stop_event nor the stop_at comparison per event.
        urgent = self._urgent
        next_start = urgent.popleft
        dq = self._dq
        dq_popleft = dq.popleft
        far = self._far
        pop = _heappop
        if stop_event is not None:
            while True:
                # Starts first — unless a delayed URGENT entry fell due
                # this instant: it was keyed before the instant began, so
                # it precedes every start pushed during it (the merge
                # below then serves it, URGENT sorting ahead of NORMAL).
                if urgent and (not far or far[0][1] or far[0][0] > self._now):
                    next_start()()
                else:
                    # Merge the lanes: full-key tuple comparison, so
                    # dispatch order is independent of which lane an
                    # entry landed in.
                    if dq:
                        if far and far[0] < dq[0]:
                            entry = pop(far)
                        else:
                            entry = dq_popleft()
                    elif far:
                        entry = pop(far)
                    else:
                        break
                    self._now = entry[0]
                    event = entry[3]
                    if event is None:
                        # A bare entry: one function, one argument.
                        entry[4](entry[5])
                    else:
                        callbacks = event.callbacks
                        event.callbacks = None
                        # Single-callback events are the overwhelmingly
                        # common case; calling directly skips the
                        # iterator setup.
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                        if not event._ok and not event._defused:
                            # A failed event nobody waited on: surface
                            # it loudly.
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
                if urgent and (not far or far[0][1] or far[0][0] > self._now):
                    # Starts are due now, and now never outruns stop_at.
                    next_start()()
                    continue
                if dq:
                    # Zero-delay entries never outrun the clock, so only a
                    # far head can cross stop_at; the dq branch needs no
                    # bounds check.
                    if far and far[0] < dq[0]:
                        entry = pop(far)
                    else:
                        entry = dq_popleft()
                elif far:
                    if far[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    entry = pop(far)
                else:
                    break
                self._now = entry[0]
                event = entry[3]
                if event is None:
                    entry[4](entry[5])
                    continue
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

        Every pop goes through :meth:`_pop_choice` on the far heap, which
        holds the whole agenda — zero-delay entries and starts included.
        """
        far = self._far
        while far:
            if stop_event is None and far[0][0] > stop_at:
                self._now = stop_at
                return None
            entry = self._pop_choice()
            self._now = entry[0]
            if entry[3] is None:
                entry[4](entry[5])
            else:
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
