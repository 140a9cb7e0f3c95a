"""The RDMA selector.

"The RDMA selector is the key component in RUBIN.  It checks without
blocking if an RDMA channel is ready for retrieving an I/O event... This
enables processing numerous RDMA channels in a single thread, similar to
the Java NIO selector" (paper, Section III-B).

The five-step flow of the paper's Figure 2 maps to this implementation:

1. channels register and state their interest (:meth:`RubinSelector.register`);
2. the result is a selection key holding the interest set;
3. ``select()`` blocks indefinitely while there is no incoming I/O event;
4. when an event occurs, a copy lands on the hybrid event queue and the
   event manager notifies the selector;
5. the selector compares the event's ID against its registered channels'
   IDs and updates the matching key's ready set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.errors import RubinError
from repro.rdma.cm import ConnectionManager
from repro.rubin.channel import RubinChannel, RubinServerChannel
from repro.rubin.events import (
    EVENT_COMPLETION,
    EVENT_CONNECTION,
    EventManager,
    HybridEventQueue,
    RubinEvent,
)
from repro.rubin.selection_key import (
    OP_ACCEPT,
    OP_CONNECT,
    OP_RECEIVE,
    OP_SEND,
    RubinSelectionKey,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.sim import Event

__all__ = ["RubinSelector"]

Registrable = Union[RubinChannel, RubinServerChannel]

#: What :meth:`RubinSelector.wakeup` pushes.  A dispatch pass reads only
#: its kind, so one shared instance serves every call.
_WAKEUP = RubinEvent(kind="wakeup", event_id=None)


class RubinSelector:
    """Multiplexes RDMA channels onto one thread via the hybrid queue."""

    def __init__(self, host: "Host"):
        self.host = host
        self.env = host.env
        self.queue = HybridEventQueue(self.env)
        self.manager = EventManager(self.env, self.queue)
        self._keys: Dict[int, RubinSelectionKey] = {}  # channel_id -> key
        self._selected: List[RubinSelectionKey] = []
        #: Cached :meth:`_select_overhead`; None after the key set changed.
        self._overhead: Optional[float] = None
        self._watched_cms: set[int] = set()
        self._wakeup_requested = False
        self.closed = False

    @classmethod
    def open(cls, host: "Host") -> "RubinSelector":
        """Create a selector on ``host``."""
        return cls(host)

    # -- registration (steps 1 and 2 of Figure 2) -----------------------

    def register(self, channel: Registrable, interest: int) -> RubinSelectionKey:
        """Register a (selectable) channel; returns its selection key."""
        self._check_open()
        if interest == 0:
            raise RubinError("empty interest set")
        if channel.channel_id in self._keys:
            raise RubinError(f"{channel!r} is already registered")
        if isinstance(channel, RubinServerChannel):
            if interest & ~OP_CONNECT:
                raise RubinError("server channels support only OP_CONNECT")
        else:
            if interest & OP_CONNECT:
                raise RubinError(
                    "OP_CONNECT (incoming connections) is for server channels"
                )
        key = RubinSelectionKey(self, channel, interest)
        self._keys[channel.channel_id] = key
        self._overhead = None
        self._watch_cm_once(channel.cm)
        if isinstance(channel, RubinChannel):
            self.manager.watch_cq(channel.recv_cq, channel.channel_id)
            self.manager.watch_cq(channel.send_cq, channel.channel_id)
            # A credit grant re-opens OP_SEND readiness without any CQ or
            # CM traffic of its own, so it must wake a blocked select()
            # directly.  Fires only on blocked->unblocked transitions.
            channel.add_unblock_watcher(self.wakeup)
        return key

    def _watch_cm_once(self, cm: ConnectionManager) -> None:
        if id(cm) not in self._watched_cms:
            self._watched_cms.add(id(cm))
            self.manager.watch_cm(cm, owner_id=None)

    def _cancel(self, key: RubinSelectionKey) -> None:
        self._keys.pop(key.channel.channel_id, None)
        self._overhead = None
        if isinstance(key.channel, RubinChannel):
            self.manager.unwatch_cq(key.channel.recv_cq)
            self.manager.unwatch_cq(key.channel.send_cq)

    def keys(self) -> List[RubinSelectionKey]:
        """All current registrations."""
        return list(self._keys.values())

    # -- selection (steps 3-5 of Figure 2) ---------------------------------

    def select(self, timeout: Optional[float] = None) -> "Event":
        """Block until ≥1 registered channel is ready; value = ready count."""
        return self.env.process(self.select_gen(timeout), name="rubin.select")

    def select_now(self) -> "Event":
        """Non-blocking readiness check."""
        return self.env.process(self.select_gen(0.0), name="rubin.selectNow")

    def select_gen(self, timeout: Optional[float] = None):
        """The body of :meth:`select`, for ``yield from inline(...)``."""
        self._check_open()
        return self._select(timeout)

    def _select(self, timeout: Optional[float]):
        cpu = self.host.cpu
        self._selected = []
        yield cpu.execute(self._select_overhead())
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            yield from self._dispatch_events()
            ready = self._compute_ready()
            if ready:
                self._selected = ready
                return len(ready)
            if self._wakeup_requested:
                self._wakeup_requested = False
                return 0
            if timeout == 0.0:
                return 0
            waiter = self.queue.wait()
            if deadline is None:
                yield waiter
            else:
                remaining = deadline - self.env.now
                if remaining <= 0:
                    return 0
                timer = self.env.timeout(remaining)
                yield self.env.any_of([waiter, timer])
                timer.cancel()
            if self.closed:
                raise RubinError("selector closed while selecting")
            yield cpu.execute(cpu.costs.context_switch)
            if deadline is not None and self.env.now >= deadline and not len(
                self.queue
            ):
                yield from self._dispatch_events()
                ready = self._compute_ready()
                self._selected = ready
                return len(ready)

    def _select_overhead(self) -> float:
        """Per-select bookkeeping cost (max over registered configs)."""
        overhead = self._overhead
        if overhead is None:
            overhead = 0.0
            for key in self._keys.values():
                config = getattr(key.channel, "config", None)
                if config is not None:
                    overhead = max(overhead, config.select_overhead)
            self._overhead = overhead
        return overhead

    def _dispatch_events(self):
        """Step 5: match queued events to channels and update ready sets."""
        for event in self.queue.drain():
            if event.kind == EVENT_COMPLETION:
                key = self._keys.get(event.event_id)
                if key is None or key.is_server:
                    continue
                tracer = self.env.tracer
                span = None
                if tracer is not None and tracer.enabled:
                    # Attribute the dispatch to the oldest completion's
                    # trace (the one whose latency this dispatch gates).
                    ctx = event.cq.head_trace_ctx()
                    if ctx is not None:
                        span = tracer.start_span(
                            "selector.dispatch",
                            layer="selector",
                            parent=ctx,
                            track=self.host.name,
                            cq=event.cq.name,
                        )
                # Drain the CQ through the owning channel (charges the
                # CQE-reap cost and re-arms the notification).
                if event.cq._entries:
                    yield from key.channel.on_cq_event(event.cq)
                else:
                    key.channel.finish_cq_event(event.cq)
                if span is not None:
                    span.end()
            elif event.kind == EVENT_CONNECTION:
                # Connection events update channel state via the channels'
                # own CM watchers; nothing to do beyond waking up.
                continue
            elif event.kind == "wakeup":
                self._wakeup_requested = True

    def _compute_ready(self) -> List[RubinSelectionKey]:
        # Every key is looked at on every pass, so readiness is read
        # from the fields behind ``interest_ops``, ``accept_pending`` and
        # ``receivable`` rather than through the properties.
        ready = []
        for key in self._keys.values():
            channel = key.channel
            interest = key._interest
            ops = 0
            if key.is_server:
                if interest & OP_CONNECT and channel.connect_pending:
                    ops = OP_CONNECT
            else:
                if interest & OP_ACCEPT and (
                    (channel.established and channel._establish_pending)
                    or channel.errored
                ):
                    # Errored establishment also surfaces as OP_ACCEPT so
                    # the application's finish_connect() can raise
                    # (NIO-style).
                    ops = OP_ACCEPT
                if interest & OP_RECEIVE and (
                    channel._ready_messages or channel.recv_cq._entries
                ):
                    ops |= OP_RECEIVE
                if interest & OP_SEND and channel.sendable:
                    ops |= OP_SEND
            key.ready_ops = ops
            if ops:
                ready.append(key)
        audit = self.env.audit
        if audit is not None:
            audit.on_select_pass(
                self.host.name,
                [
                    (key.channel.channel_id, key.channel.progress_marker)
                    for key in ready
                ],
            )
        return ready

    def selected_keys(self) -> List[RubinSelectionKey]:
        """Keys made ready by the last select; clears the selected set."""
        selected, self._selected = self._selected, []
        return selected

    def wakeup(self) -> None:
        """Make a blocked :meth:`select` return immediately (NIO's
        ``Selector.wakeup()`` analog): pushes a synthetic wake event onto
        the hybrid queue."""
        self.queue.push(_WAKEUP)

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise RubinError("selector is closed")

    def close(self) -> None:
        """Cancel all keys and stop the event manager."""
        if self.closed:
            return
        self.closed = True
        for key in list(self._keys.values()):
            key.valid = False
        self._keys.clear()
        self.manager.stop()

    def __repr__(self) -> str:
        return f"<RubinSelector on {self.host.name} keys={len(self._keys)}>"
