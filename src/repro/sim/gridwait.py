"""Tickless waits on a poll grid.

A component that polls writes ::

    while not ready():
        yield env.timeout(period)

and pays one agenda entry per period for as long as nothing happens.
:func:`grid_wait` is that loop without the idle entries: the waiter
subscribes to whatever makes ``ready()`` true, sleeps with nothing on the
agenda, and when woken arms a single entry at the grid point the loop's
next tick would have fallen on — so the caller carries on at the
bit-identical instant, having paid arithmetic for the idle time instead
of events.

Why the instant is the same
---------------------------

The loop's *k*-th tick is armed by its predecessor at ``now + period``, so
the grid is the running sum ``((t0 + p) + p) + ...`` in floating point.
The wake-up replays exactly those additions from the last instant the
waiter really ran (never ``t0 + k * p``, which differs in the last bit)
and keys the entry with the resulting float (:meth:`Event.succeed_at`, no
``now + (tick - now)`` re-rounding).  A flip strictly between two grid
points is seen by the tick after it, in the loop and here alike; every
tick before it would have found ``ready()`` false and done nothing but
re-arm, which is what makes dropping them legal (DESIGN §11, rule 4).

One case is a rule rather than a consequence: a flip that lands
bit-exactly *on* a grid point.  The loop's tick for that instant was keyed
one period earlier, so whether it runs before or after the flip depends on
when the flip's own entry was keyed; here *the tick follows the flip* —
the entry is armed at ``now`` and sees ``ready()`` true this instant.
:attr:`GridWait.ties` counts those wake-ups so a workload can assert it
has none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["grid_wait", "GridWait"]


class GridWait(Event):
    """One dormant stretch of :func:`grid_wait`.

    Pending while its waiter sleeps; :meth:`wake` makes it due at the
    first grid point at or after the wake-up.
    """

    __slots__ = ("_tick", "_period")

    #: Wake-ups that fell bit-exactly on a grid point (process-wide; see
    #: the module docstring for the rule applied to them).
    ties = 0

    def __init__(self, env: "Environment", period: float):
        super().__init__(env)
        #: The last instant the waiter really ran: where the loop would
        #: have armed its next tick from.
        self._tick = env._now
        self._period = period

    def wake(self) -> None:
        """Rejoin the grid (call once; a second call is an error)."""
        now = self.env._now
        period = self._period
        tick = self._tick + period
        while tick < now:
            tick += period
        if tick == now:
            GridWait.ties += 1
        self.succeed_at(tick)


def grid_wait(
    env: "Environment",
    period: float,
    ready: Callable[[], bool],
    subscribe: Callable[[Callable[[], None]], None],
) -> Generator[Event, None, None]:
    """``while not ready(): yield env.timeout(period)``, without the ticks.

    Use as ``yield from grid_wait(...)``.  ``subscribe(callback)`` must
    arrange exactly one call of ``callback()``, after the next change
    that can turn ``ready()`` true.  A call for any other reason costs
    one entry and is otherwise harmless: the waiter looks at the grid
    point, as the loop would have, and goes back to sleep.
    """
    if not period > 0:
        raise SimulationError(f"grid period must be positive ({period!r})")
    while not ready():
        sleep = GridWait(env, period)
        subscribe(sleep.wake)
        yield sleep
