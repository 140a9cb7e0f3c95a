"""Simulation processes: generators driven by the event kernel.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  Whenever a yielded event is processed, the kernel resumes the
generator, sending in the event's value (or throwing its exception).  A
process is itself an event that triggers when the generator finishes, so
processes can wait for each other, be composed with ``AllOf``/``AnyOf`` and
be interrupted.

Not every generator needs one.  :class:`Drive` runs a loop nobody
interrupts; :func:`inline` runs a callee inside the process that would
have waited for it; :func:`detach` starts one whose process would have
been thrown away.  Each dispatches what the :class:`Process` it stands
for would have, at the same times in the same order.
"""

from __future__ import annotations

from functools import partial
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["Process", "Drive", "ProcessGenerator", "inline", "detach"]

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

    ``name`` is what a Process's is: a label that leads with the owning
    host, by which ``repro.explore`` groups the entries a drive waits on.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name
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


def inline(
    env: "Environment", generator: ProcessGenerator, name: Optional[str] = None
) -> ProcessGenerator:
    """Run ``generator`` inside the calling process, on its schedule.

    ``result = yield from inline(env, gen)`` stands for ``result = yield
    env.process(gen)`` and dispatches every surviving agenda entry at the
    same time and in the same order; what goes is the callee's
    :class:`Process`, its start and — usually — its completion entry:

    * *Start.*  A spawned callee starts after the starts queued ahead of
      it.  With none queued its start is the next thing served, so its
      first step runs here, at the call.  With one queued — or under a
      :class:`~repro.sim.core.TieBreakPolicy`, where every start and
      completion is a choice point the policy enumerates — the callee is
      spawned as before (under ``name``).
    * *Completion.*  A spawned callee's return (or exception) reaches the
      caller through a zero-delay entry.  When that entry would be the
      next one served (the adjacency rule in :mod:`repro.sim.core`) the
      caller simply carries on; otherwise one bare entry takes its place
      and the caller waits on it.

    Exact only where both resumes are the private tail of their step:
    every event the caller and the callee wait on has no other
    subscriber (DESIGN §11, rule 5).  The caller must not be interrupted
    while inside the call.
    """
    far = env._far
    if (
        env._urgent
        or env._tiebreak is not None
        # A delayed URGENT entry that fell due now is served ahead of
        # the urgent lane, so ahead of the start as well.
        or (far and far[0][1] == 0 and far[0][0] <= env._now)
    ):
        return (yield Process(env, generator, name))
    failure = None
    value = None
    try:
        value = yield from generator
    except GeneratorExit:
        # The caller is being closed while parked in the callee: there is
        # no completion to deliver, and yielding here would be an error.
        raise
    except BaseException as exc:
        failure = exc
    if env._urgent or env._dq or (far and far[0][0] <= env._now):
        # Not adjacent: the completion keeps its place on the agenda.
        yield Event(env).succeed()
    if failure is not None:
        try:
            raise failure
        finally:
            # The traceback holds this frame: do not hold it back.
            failure = None
    return value


def _advance_detached(generator: ProcessGenerator, event: Event = _START) -> None:
    """One step of a detached generator: ``Drive._advance`` with no event
    to complete.  (A start, then each yielded event's callback — bound
    with ``partial``, which unlike a closure over itself is no cycle.)"""
    try:
        if event._ok:
            target = generator.send(event._value)
        else:
            event._defused = True
            target = generator.throw(event._value)
    except StopIteration:
        return
    target.callbacks.append(partial(_advance_detached, generator))


def detach(
    env: "Environment", generator: ProcessGenerator, name: Optional[str] = None
) -> None:
    """Start ``generator`` for a caller that would discard the process.

    Stands for ``env.process(gen)`` with the result thrown away: the same
    start in the same place on the urgent lane, the same resumes — and no
    completion entry, which with no one able to subscribe ran no callback
    (the second clause of DESIGN §11's invariant, exactly as
    :meth:`Store.post <repro.sim.resources.Store.post>` stands for a
    discarded ``put``).  The generator must meet :class:`Drive`'s
    conditions; an exception it lets escape surfaces through the kernel.

    Under a :class:`~repro.sim.core.TieBreakPolicy` that completion is a
    tie the policy enumerates, so the generator is spawned as before
    (under ``name``).
    """
    if env._tiebreak is not None:
        Process(env, generator, name)
    else:
        env._urgent.append(partial(_advance_detached, generator))
