"""Event primitives for the discrete-event kernel.

The kernel follows the classic generator-coroutine design: simulation
processes are Python generators that ``yield`` :class:`Event` objects and are
resumed when those events are *processed* (their callbacks run).  The design
is deliberately close to SimPy's, because that model has proven itself for
exactly this kind of protocol simulation, but it is implemented from scratch
here and trimmed to what the RUBIN reproduction needs.

Key vocabulary
--------------

triggered
    The event has a value (or an exception) and has been scheduled; its
    callbacks *will* run at its scheduled time.
processed
    The event's callbacks have already run.  Yielding an already-processed
    event is allowed and resumes the process on the next kernel step.
ok
    Whether the event succeeded (``succeed``) or failed (``fail``).  A failed
    event re-raises its exception inside every process that waits on it.
"""

from __future__ import annotations

from heapq import heapify as _heapify, heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.core import Environment

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Interrupt",
]


class _Pending:
    """Sentinel for "this event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event is triggered.
PENDING = _Pending()


class _Cancelled(tuple):
    """The callback list of a cancelled :class:`Timeout`.

    Empty, so the entry runs nothing should it still be served, and
    closed: a process or condition that subscribes to a timer that will
    never fire would otherwise wait forever without a word.
    """

    __slots__ = ()

    def append(self, _callback: Any) -> None:
        raise SimulationError("cannot wait on a cancelled timer")


_CANCELLED = _Cancelled()


class Interrupt(Exception):
    """Raised *inside* a process when :meth:`Process.interrupt` is called.

    The interrupt cause is available as :attr:`cause`.  Interrupts are not
    :class:`repro.errors.ReproError` subclasses on purpose: they are control
    flow, not failures, and processes are expected to catch them.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        """Whatever was passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Event:
    """A happening in simulated time that processes can wait for.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail` assigns
    the value and schedules the event on the environment's agenda; when the
    kernel reaches it, all registered callbacks run exactly once and the
    event becomes *processed*.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        #: The environment this event lives in.
        self.env = env
        #: Callbacks run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the agenda."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined Environment.schedule (delay 0, NORMAL priority): this is
        # the kernel's hottest call site and the indirection costs real
        # wall-clock at sweep scale.  Identical agenda entry either way;
        # zero-delay NORMAL pushes go to the kernel's FIFO lane.
        env = self.env
        env._eid += 1
        env._dq.append((env._now, 1, env._eid, self))
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """Trigger the event successfully at the absolute time ``when``.

        The entry is keyed with ``when`` itself.  A relative timeout
        would key it ``now + (when - now)``, which need not round back
        to ``when`` — and a caller that has computed an instant (a point
        of a poll grid, say) needs that very float on the agenda.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        env = self.env
        if when < env._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={env._now})"
            )
        self._ok = True
        self._value = value
        env._eid += 1
        _heappush(env._far, (when, 1, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on this event will have ``exception`` raised
        at its ``yield``.  If *nobody* ever waits on a failed event the
        kernel re-raises the exception at the end of the step in which it
        was processed so that failures never pass silently (an event can opt
        out with :meth:`defused`).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() needs an exception instance, got {exception!r}"
            )
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        env._dq.append((env._now, 1, env._eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (chaining helper)."""
        if event._value is PENDING:
            raise SimulationError(f"cannot chain from untriggered {event!r}")
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._eid += 1
        env._dq.append((env._now, 1, env._eid, self))

    def defused(self) -> "Event":
        """Mark a failed event as handled out-of-band.

        Suppresses the "unhandled failed event" error the kernel would
        otherwise raise when a failed event is processed with no waiters.
        """
        self._defused = True
        return self

    # -- waiting ------------------------------------------------------------

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when this event is processed.

        If the event was already processed, the callback is scheduled to run
        on the immediate next kernel step (same simulated time), preserving
        the invariant that callbacks never run synchronously inside the
        subscriber's own stack frame.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            # Already processed: deliver asynchronously via a proxy event so
            # re-yielding old events behaves deterministically.
            proxy = Event(self.env)
            proxy.callbacks.append(lambda _e: callback(self))
            proxy._ok = True
            proxy._value = None
            self.env.schedule(proxy)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of simulated time from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Open-coded Event.__init__ + schedule: a Timeout is born triggered,
        # so the PENDING dance and the schedule() indirection are pure
        # overhead on the simulator's single most-allocated type.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        _heappush(env._far, (env._now + delay, 1, env._eid, self))

    def cancel(self) -> None:
        """Take a timer that lost its race off the agenda.

        For the owner of ``any_of([something, timer])`` once that
        condition has fired: every subscriber left is a triggered
        :class:`Condition`, whose callback returns at once, so the
        firing would run nothing but no-ops (DESIGN §11, rule 6).  A
        timer with any other subscriber is refused; a timer that fired
        already is left alone.  Waiting on a cancelled timer raises.

        The entry is dropped lazily: it keeps its place (served, it runs
        nothing) until cancelled entries are more than half the far
        heap, which is then rebuilt without them — keys are unique, so
        the survivors pop in the same order.  Under a
        :class:`~repro.sim.core.TieBreakPolicy` the entry is a tie the
        policy enumerates, and stays.
        """
        callbacks = self.callbacks
        if callbacks is None or callbacks is _CANCELLED:
            return
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if not isinstance(owner, Condition) or owner._value is PENDING:
                raise SimulationError(
                    f"cannot cancel {self!r}: {callback!r} still waits for it"
                )
        env = self.env
        if env._tiebreak is not None:
            return
        self.callbacks = _CANCELLED
        env._cancelled += 1
        far = env._far
        if env._cancelled * 2 > len(far):
            # Compact in place (each entry moves to an index the loop
            # has passed), then restore the heap order.  Bare entries
            # (no event) cannot be cancelled and always stay.
            kept = 0
            for entry in far:
                event = entry[3]
                if event is None or event.callbacks is not _CANCELLED:
                    far[kept] = entry
                    kept += 1
            del far[kept:]
            _heapify(far)
            env._cancelled = 0

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of the events a :class:`Condition` collected.

    Behaves like a read-only dict keyed by the original event objects, in
    the order they were passed to the condition.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]):
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (event.value for event in self.events)

    def items(self):
        return ((event, event.value) for event in self.events)

    def todict(self) -> dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of other events.

    ``evaluate`` receives the list of composed events and the count of
    triggered ones and returns True once the condition is satisfied.  The
    value of a processed condition is a :class:`ConditionValue` of all
    composed events that had triggered *successfully* by then.  If any
    composed event fails, the condition fails with the same exception.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events: list[Event] = list(events)
        self._evaluate = evaluate
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            event.subscribe(self._on_event)

    def _collect_values(self) -> ConditionValue:
        return ConditionValue([e for e in self._events if e.processed and e._ok])

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Evaluator: every composed event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Evaluator: at least one composed event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that triggers once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
