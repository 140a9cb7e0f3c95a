"""RUBIN's hybrid event queue and event manager.

Figure 2 of the paper: the Java NIO selector checks both transmission and
connection readiness with a single blocking call, so "RUBIN therefore
includes a hybrid event queue containing copies of both the event channel
elements and the completion queue elements.  When an event is added to
these channels, a copy of it will be added to the hybrid event queue of
the RUBIN selector, notifying it about this new I/O operation."

The :class:`EventManager` is the component that "is associated with the
selector to keep track of the events added to the queue and to notify the
selector" — it replaces epoll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional
from collections import deque

from repro.rdma.cm import CmEvent, ConnectionManager
from repro.rdma.cq import CompletionChannel, CompletionQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment, Event

__all__ = ["RubinEvent", "HybridEventQueue", "EventManager"]

#: Event kinds carried on the hybrid queue.
EVENT_CONNECTION = "connection"  # copied from the CM event channel
EVENT_COMPLETION = "completion"  # copied from a completion queue


@dataclass(slots=True)
class RubinEvent:
    """One entry of the hybrid event queue.

    ``event_id`` identifies the connection the event belongs to; the
    selector compares it against each registered channel's id (the
    paper's "comparing the event ID with the channel ID").
    """

    kind: str  # EVENT_CONNECTION or EVENT_COMPLETION
    event_id: Any
    cm_event: Optional[CmEvent] = None
    cq: Optional[CompletionQueue] = None


class HybridEventQueue:
    """FIFO of :class:`RubinEvent` with a wake-up hook for the selector."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._events: Deque[RubinEvent] = deque()
        self._wakeup: Optional["Event"] = None

    def push(self, event: RubinEvent) -> None:
        """Append an event and wake a blocked selector."""
        self._events.append(event)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def drain(self) -> List[RubinEvent]:
        """Remove and return all queued events."""
        out = list(self._events)
        self._events.clear()
        return out

    def __len__(self) -> int:
        return len(self._events)

    def wait(self) -> "Event":
        """Event that triggers when something is pushed (single waiter)."""
        if self._events:
            done = self.env.event()
            done.succeed()
            return done
        self._wakeup = self.env.event()
        return self._wakeup


class EventManager:
    """Feeds the hybrid queue from CM events and CQ notifications."""

    #: ``repro.explore`` groups the entries the manager waits on under
    #: the name's first dot-token, "rubin".
    name = "rubin.event_manager"

    def __init__(self, env: "Environment", queue: HybridEventQueue):
        self.env = env
        self.queue = queue
        #: Shared completion channel all registered channels' CQs notify.
        self.comp_channel = CompletionChannel(env)
        self._cq_owner: dict[int, Any] = {}
        self._running = True
        # The completion loop starts where the generator loop it replaces
        # started: on the urgent lane.
        env._urgent.append(self._await_completion)

    def watch_cm(self, cm: ConnectionManager, owner_id: Any) -> None:
        """Copy ``cm``'s events onto the hybrid queue, tagged ``owner_id``."""

        def on_cm_event(event: CmEvent) -> None:
            self.queue.push(
                RubinEvent(
                    kind=EVENT_CONNECTION,
                    event_id=owner_id,
                    cm_event=event,
                )
            )

        cm.add_event_watcher(on_cm_event)

    def watch_cq(self, cq: CompletionQueue, owner_id: Any) -> None:
        """Arm ``cq`` so its completions surface on the hybrid queue."""
        cq.channel = self.comp_channel
        self._cq_owner[cq.number] = owner_id
        cq.request_notify()

    def owner_of(self, cq: CompletionQueue) -> Any:
        """The channel id a CQ was registered under."""
        return self._cq_owner.get(cq.number)

    # The completion loop, as callbacks: wait for a CQ notification,
    # forward it, wait again — until stop().  The loop is the only
    # subscriber of each wait, so each hand-over is a bare entry.

    def _await_completion(self, _event: Optional["Event"] = None) -> None:
        if self._running:
            self.comp_channel.when_cq_event(self._forward_completion)

    def _forward_completion(self, cq: CompletionQueue) -> None:
        """Forward a CQ notification as a hybrid-queue event."""
        owner = self._cq_owner.get(cq.number)
        # An unregistered CQ's notification is stale: dropped.
        if owner is not None:
            self.queue.push(
                RubinEvent(kind=EVENT_COMPLETION, event_id=owner, cq=cq)
            )
            # NOT re-armed here: the owning channel re-arms after draining
            # the CQ (request_notify with entries still pending re-notifies
            # immediately, so a CQE landing mid-drain cannot be lost — and
            # re-arming before the drain would spin on the pending entries).
        self._await_completion()

    def unwatch_cq(self, cq: CompletionQueue) -> None:
        """Stop surfacing a CQ's completions."""
        self._cq_owner.pop(cq.number, None)

    def stop(self) -> None:
        """Shut the completion loop down (selector close)."""
        self._running = False
