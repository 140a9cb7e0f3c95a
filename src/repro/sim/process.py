"""Simulation processes: generators driven by the event kernel.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Whenever a yielded event is processed, the kernel resumes the
generator, sending in the event's value (or throwing its exception).  A
process is itself an event that triggers when the generator finishes, so
processes can wait for each other, be composed with ``AllOf``/``AnyOf`` and
be interrupted.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["Process", "Drive", "ProcessGenerator"]

#: Type alias for the generators that implement process bodies.
ProcessGenerator = Generator[Event, Any, Any]

#: What a start delivers to a fresh generator: success, value ``None``.
#: Shared by every start (the urgent lane calls ``start()`` bare); while a
#: TieBreakPolicy keeps starts as heap entries, the entry's own event —
#: equally successful and empty — arrives in its place.
_START = Event(None)  # type: ignore[arg-type]
_START._value = None


class _Interruption(Event):
    """The failed, pre-defused event that carries one Interrupt in."""

    __slots__ = ("_process", "name")

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self._process = process
        #: Names the interrupted process as the owner of the delivery
        #: when it sits in a TieBreakPolicy's ready set.
        self.name = process.name

    def deliver(self, _entry: Optional[Event] = None) -> None:
        self._process._resume(self)


class Process(Event):
    """A running simulation process (and the event of its termination)."""

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ):
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "throw") or not hasattr(generator, "send")
        ):
            raise SimulationError(f"{generator!r} is not a generator")
        # Open-coded Event.__init__, like every other per-operation event.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        #: The event this process is currently waiting on (None if running
        #: right now or finished).
        self._target: Optional[Event] = None
        #: Human-readable name used in reprs and error messages.
        self.name = name or getattr(generator, "__name__", "process")

        # Kick the generator off once the current event's callbacks are
        # done.  The urgent lane is FIFO, so the start runs before any
        # interrupt raised later in the same instant: the generator has
        # started before an Interrupt can be thrown into it.
        env._urgent.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        The process stops waiting on its current target (the target stays
        subscribed but resuming is suppressed) and is resumed with the
        interrupt on the next kernel step.  Interrupting a finished process
        is an error; interrupting a process twice before it runs delivers
        both interrupts in order.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")

        self.env._urgent.append(_Interruption(self, cause).deliver)

    def _resume(self, event: Event = _START) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not PENDING:
            # The process already finished (e.g. an interrupt raced with the
            # target event).  Nothing to deliver.
            return
        if event is not self._target:
            if isinstance(event._value, Interrupt):
                # Detach from the current target so its later processing
                # does not resume us a second time.
                if self._target is not None and self._target.callbacks is not None:
                    try:
                        self._target.callbacks.remove(self._resume)
                    except ValueError:  # pragma: no cover - defensive
                        pass
            elif self._target is not None:
                # Stale callback from an event we stopped waiting on.
                return

        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event._defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        if isinstance(next_target, Event) and next_target.env is env:
            self._target = next_target
            callbacks = next_target.callbacks
            if callbacks is not None:
                # Inlined Event.subscribe fast path: pending or
                # triggered-but-unprocessed target.
                callbacks.append(self._resume)
            else:
                # Already processed: subscribe() schedules a proxy event.
                next_target.subscribe(self._resume)
            return

        if not isinstance(next_target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {next_target!r}, "
                "which is not an Event"
            )
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return

        self.fail(
            SimulationError(
                f"process {self.name!r} yielded an event from a "
                "different environment"
            )
        )

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state} at {id(self):#x}>"


class Drive(Event):
    """A stripped-down generator driver for hot internal loops.

    Schedules what a :class:`Process` would — a start on the urgent lane
    at creation, one NORMAL completion entry when the generator returns —
    so swapping a Process for a Drive never changes a schedule.  What it
    drops is everything those loops never use:
    interrupt delivery, target tracking, ``active_process`` bookkeeping
    and the yielded-value type checks.  Use it only for generators that

    * are never interrupted,
    * only yield fresh (pending, same-environment) events, and
    * let exceptions propagate (a raising generator surfaces through the
      kernel immediately instead of failing the process event).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: ProcessGenerator):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        env._urgent.append(self._advance)

    def _advance(self, event: Event = _START) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            # Inlined Event.succeed — the completion event a finished
            # Process pushes.
            self._value = stop.value
            env = self.env
            env._eid += 1
            env._dq.append((env._now, 1, env._eid, self))
            return
        target.callbacks.append(self._advance)
