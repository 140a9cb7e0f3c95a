"""Shared-resource primitives built on the event kernel.

Two primitives cover everything the network and protocol layers need:

:class:`Store`
    An unbounded-or-bounded FIFO queue of Python objects with blocking
    ``put``/``get`` — the backbone of NIC queues, completion queues and
    mailbox-style inter-process communication.

:class:`Resource`
    A counted semaphore with FIFO fairness — used for CPU cores and DMA
    engines, where "holding" the resource for a simulated duration models
    the cost of an operation.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event
from repro.sim.monitor import UtilizationTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = [
    "Store",
    "Resource",
    "StorePut",
    "StoreGet",
    "ResourceRequest",
    "TimedHold",
]


class StorePut(Event):
    """Event for a pending :meth:`Store.put`; triggers when accepted."""

    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any):
        # Open-coded Event.__init__: Store puts/gets are allocated once per
        # queue hop, and the extra super() frame is measurable at sweep
        # scale.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.item = item


class StoreGet(Event):
    """Event for a pending :meth:`Store.get`; value is the item.

    Not to be subclassed: a store tells its getters apart by exact type
    (anything else waiting in it is a :meth:`Store.get_call` consumer).
    """

    __slots__ = ("filter",)

    def __init__(
        self, env: "Environment", filter: Optional[Callable[[Any], bool]] = None
    ):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.filter = filter


class Store:
    """A FIFO queue of items with blocking put/get semantics.

    ``capacity`` bounds how many items the store holds; puts beyond the
    bound stay pending until a get frees space.  ``get`` optionally takes a
    filter predicate; the first *matching* item is removed (items before it
    stay queued), which the RDMA completion-queue model uses to poll for
    specific completion kinds in tests.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        #: Blocked gets in FIFO order: a :class:`StoreGet`, or the
        #: consumer function of a :meth:`get_call`.
        self._getters: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def pending_getters(self) -> int:
        """Number of get() calls currently blocked."""
        return len(self._getters)

    @property
    def pending_putters(self) -> int:
        """Number of put() calls currently blocked."""
        return len(self._putters)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the returned event triggers once it is stored."""
        event = StorePut(self.env, item)
        # Fast path: nobody waiting to get and room available — identical
        # succeed order to _dispatch (waiting putters imply no room, so the
        # condition also guarantees FIFO fairness among puts).  succeed()
        # is inlined: the event is fresh, so the already-triggered guard
        # cannot fire.
        if not self._getters and len(self.items) < self.capacity:
            self.items.append(item)
            event._value = None
            env = self.env
            env._eid += 1
            env._dq.append((env._now, 1, env._eid, event))
            return event
        self._putters.append(event)
        self._dispatch()
        return event

    def post(self, item: Any) -> None:
        """Queue ``item`` for callers that would discard :meth:`put`'s event.

        Stores the item, or hands it to the waiting getter, exactly as
        :meth:`put` does — minus the put event, which with no callback
        attached is an agenda entry that does nothing.  Only a full store
        still needs one (the item waits in it), so that case is a plain
        ``put``.
        """
        getters = self._getters
        if getters:
            # A blocked unfiltered getter means the store is empty: the
            # item is its, as _dispatch would find.
            get = getters[0]
            if type(get) is not StoreGet:
                # A get_call consumer: the hand-over is its bare entry.
                getters.popleft()
                env = self.env
                env._eid += 1
                env._dq.append((env._now, 1, env._eid, None, get, item))
                return
            if get.filter is None:
                # Inlined succeed() (a queued getter is pending).
                getters.popleft()
                get._value = item
                env = self.env
                env._eid += 1
                env._dq.append((env._now, 1, env._eid, get))
                return
        if len(self.items) >= self.capacity:
            self.put(item)
            return
        self.items.append(item)
        if getters:
            self._dispatch()

    def post_tail(self, item: Any) -> None:
        """:meth:`post`, called as the very last thing its step does.

        A blocked unfiltered head getter is handed the item through a
        zero-delay entry.  When that entry is provably the next one
        served — urgent lane empty, zero-delay lane empty, far head
        strictly later than ``now`` — and nothing runs between this call
        and the end of the step, the getter's callbacks (or its
        :meth:`get_call` consumer) run here instead (DESIGN §11, rule 7).
        The caller vouches for the second half; the store checks the
        first.  Otherwise, and under a
        :class:`~repro.sim.core.TieBreakPolicy`, it is :meth:`post`.
        """
        getters = self._getters
        if not getters:
            if len(self.items) < self.capacity:
                # post() with nobody waiting: the receiver is busy.
                self.items.append(item)
            else:
                self.post(item)
            return
        get = getters[0]
        consumer = type(get) is not StoreGet
        if not consumer and get.filter is not None:
            self.post(item)
            return
        getters.popleft()
        env = self.env
        far = env._far
        if (
            env._tiebreak is None
            and not env._urgent
            and not env._dq
            and (not far or far[0][0] > env._now)
        ):
            if consumer:
                get(item)
            else:
                get._value = item
                callbacks, get.callbacks = get.callbacks, None
                for callback in callbacks:
                    callback(get)
            return
        # post()'s hand-over: the getter's entry.
        env._eid += 1
        if consumer:
            env._dq.append((env._now, 1, env._eid, None, get, item))
        else:
            get._value = item
            env._dq.append((env._now, 1, env._eid, get))

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the first (matching) item; event value is the item."""
        event = StoreGet(self.env, filter)
        # Fast path: unfiltered get with items on hand and no getter queued
        # ahead of us.  Succeed order matches _dispatch: the getter fires
        # first, then any putter admitted into the freed slot.  succeed()
        # is inlined (fresh event, guard cannot fire).
        if filter is None and not self._getters and self.items:
            event._value = self.items.popleft()
            env = self.env
            env._eid += 1
            env._dq.append((env._now, 1, env._eid, event))
            if self._putters:
                self._dispatch()
            return event
        self._getters.append(event)
        self._dispatch()
        return event

    def get_call(self, consumer: Callable[[Any], None]) -> None:
        """:meth:`get` for a consumer that is a function.

        ``consumer(item)`` runs where the get's one callback would have
        run, and the get's entry is a bare one (``repro.sim.core``):
        armed with its id where the :class:`StoreGet` would have been
        scheduled — here when an item is waiting, in :meth:`post` or
        :meth:`_dispatch` when one arrives — or, from :meth:`post_tail`,
        a call in place.  For a caller that would subscribe to the get
        and hand it to no one else.  Unfiltered only.
        """
        items = self.items
        if not self._getters and items:
            env = self.env
            env._eid += 1
            env._dq.append((env._now, 1, env._eid, None, consumer, items.popleft()))
            if self._putters:
                self._dispatch()
            return
        self._getters.append(consumer)
        if items or self._putters:
            self._dispatch()

    def try_get(self) -> Any:
        """Non-blocking get: pop the head item or return None."""
        if not self.items:
            return None
        item = self.items.popleft()
        if self._putters or self._getters:
            self._dispatch()
        return item

    def _dispatch(self) -> None:
        """Match pending puts to capacity and pending gets to items."""
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve getters in FIFO order; a getter whose filter matches
            # nothing stays at the front (strict FIFO, like simpy's
            # FilterStore would *not* do — here blocked filters do not let
            # later getters overtake, keeping completion polling fair).
            while self._getters and self.items:
                get = self._getters[0]
                if type(get) is not StoreGet:
                    # A get_call consumer: its bare entry.
                    item = self.items.popleft()
                    self._getters.popleft()
                    env = self.env
                    env._eid += 1
                    env._dq.append((env._now, 1, env._eid, None, get, item))
                    progress = True
                    continue
                if get.filter is None:
                    item = self.items.popleft()
                else:
                    for index, candidate in enumerate(self.items):
                        if get.filter(candidate):
                            del self.items[index]
                            item = candidate
                            break
                    else:
                        break
                self._getters.popleft()
                get.succeed(item)
                progress = True


class ResourceRequest(Event):
    """Event for a pending :meth:`Resource.request`."""

    __slots__ = ("resource", "released")

    def __init__(self, env: "Environment", resource: "Resource"):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.released = False

    def release(self) -> None:
        """Give the slot back (idempotent)."""
        self.resource.release(self)

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """A counted, FIFO-fair semaphore over simulated time.

    Typical usage inside a process::

        req = cpu.request()
        yield req
        yield env.timeout(cost_seconds)
        req.release()

    or with the context-manager form ``with cpu.request() as req: yield req``.
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._users: list[ResourceRequest] = []
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests currently waiting for a slot."""
        return len(self._waiters)

    def request(self) -> ResourceRequest:
        """Ask for a slot; the returned event triggers when granted."""
        event = ResourceRequest(self.env, self)
        if len(self._users) < self.capacity:
            self._users.append(event)
            # Inlined succeed() (fresh event, guard cannot fire).
            event._value = None
            env = self.env
            env._eid += 1
            env._dq.append((env._now, 1, env._eid, event))
        else:
            self._waiters.append(event)
        return event

    def release(self, request: ResourceRequest) -> None:
        """Return a previously granted slot (idempotent)."""
        if request.released:
            return
        request.released = True
        if request in self._users:
            self._users.remove(request)
        else:
            # Never granted: cancel the waiting request.
            try:
                self._waiters.remove(request)
            except ValueError:
                raise SimulationError(
                    "release() of a request unknown to this resource"
                ) from None
            return
        while self._waiters and len(self._users) < self.capacity:
            waiter = self._waiters.popleft()
            self._users.append(waiter)
            waiter.succeed()

    def run_task(self, duration: float) -> "Event":
        """Convenience: hold one slot for ``duration`` and finish.

        Returns an event that fires once the slot has been held for the
        duration.  This is the standard way the network stacks charge CPU
        time.
        """
        return TimedHold(self, duration)


class TimedHold(Event):
    """Request a slot, hold it for a duration, release it — as one event.

    A hand-rolled replacement for the ubiquitous request/timeout/release
    generator process, on the hottest path in the simulator (every
    charged CPU slot and DMA transfer is one of these).  The process
    version is a start, a grant entry, a timeout and a completion entry;
    this does the same four things at the same times in the same order
    relative to everything else, driven by bound-method callbacks
    instead of a generator.  Only the timeout is always an agenda entry.
    The grant and the completion are each the private tail of their
    step, so when the entry they would push is provably the next one
    served (the adjacency rule in :mod:`repro.sim.core`) they run on the
    spot: an uncontended hold with nothing else due at either end costs
    one sequence number, a contended or crowded one up to three.

    The hold is the only subscriber of its timer and of a grant on a
    free core, so both are bare entries (``repro.sim.core``), and on a
    free core the hold itself stands in ``Resource._users``.  Only a
    hold queued behind a busy core needs a :class:`ResourceRequest`.

    ``tracker`` (optional) has ``begin()``/``end()`` called around the
    hold — for a :class:`~repro.sim.monitor.UtilizationTracker`, the
    tracker of every ``Cpu``, their arithmetic is done here, in place;
    ``span`` (optional) has ``end()`` called after release.
    """

    __slots__ = ("_resource", "_duration", "_request", "_tracker", "_span")

    def __init__(
        self,
        resource: Resource,
        duration: float,
        tracker: Any = None,
        span: Any = None,
    ):
        if duration < 0:
            raise SimulationError(f"negative hold duration {duration!r}")
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._resource = resource
        self._duration = duration
        #: The request queued for the slot behind a busy core; ``None``
        #: when the core was free and the hold itself is the slot's user.
        self._request: Optional[ResourceRequest] = None
        self._tracker = tracker
        self._span = span
        env._urgent.append(self._acquire)

    def _acquire(self, _entry: Optional[Event] = None) -> None:
        resource = self._resource
        users = resource._users
        env = self.env
        if len(users) < resource.capacity:
            # A free core: the slot is the hold's now, as Resource.request()
            # would grant it.
            users.append(self)
            if not env._urgent and not env._dq:
                far = env._far
                if not far or far[0][0] > env._now:
                    # Adjacent: the grant would be served next, so it is
                    # taken now.
                    self._hold()
                    return
            # The grant's entry, bare: the hold is its only subscriber.
            env._eid += 1
            env._dq.append((env._now, 1, env._eid, None, self._hold, None))
            return
        # Inlined Resource.request() on a busy core (same FIFO order).
        request = self._request = ResourceRequest(env, resource)
        resource._waiters.append(request)
        request.callbacks.append(self._hold)

    def _hold(self, _event: Optional[Event] = None) -> None:
        env = self.env
        tracker = self._tracker
        if tracker is not None:
            if type(tracker) is UtilizationTracker:
                # UtilizationTracker.begin(), in place.
                if not tracker._depth:
                    tracker._busy_since = env._now
                tracker._depth += 1
            else:
                tracker.begin()
        # The timer, bare: the hold is its only subscriber.
        env._eid += 1
        _heappush(
            env._far, (env._now + self._duration, 1, env._eid, None, self._finish, None)
        )

    def _finish(self, _arg: None) -> None:
        tracker = self._tracker
        if tracker is not None:
            if type(tracker) is UtilizationTracker and tracker._depth:
                # UtilizationTracker.end(), in place.
                depth = tracker._depth = tracker._depth - 1
                if not depth and tracker._busy_since is not None:
                    tracker._busy_total += self.env._now - tracker._busy_since
                    tracker._busy_since = None
            else:
                tracker.end()
        # Inlined request.release() fast path: the grant fired (we held the
        # slot), so the request is in _users and cannot be double-released.
        resource = self._resource
        users = resource._users
        request = self._request
        if request is None:
            users.remove(self)
        else:
            request.released = True
            users.remove(request)
        waiters = resource._waiters
        if waiters:
            capacity = resource.capacity
            while waiters and len(users) < capacity:
                waiter = waiters.popleft()
                users.append(waiter)
                waiter.succeed()
        span = self._span
        if span is not None:
            span.end()
        # Inlined Event.succeed (the completion was already validated
        # pending by construction).
        self._ok = True
        self._value = None
        env = self.env
        if not env._urgent and not env._dq:
            far = env._far
            if not far or far[0][0] > env._now:
                # Adjacent (and no waiter was granted above, or the
                # zero-delay lane would hold its grant): the completion
                # would be served next, so the waiters run now.
                callbacks, self.callbacks = self.callbacks, None
                for callback in callbacks:
                    callback(self)
                return
        env._eid += 1
        env._dq.append((env._now, 1, env._eid, self))
