"""Completion queues, work completions, and completion channels.

"Upon the completion of an RDMA operation, an event is added to a
completion queue (CQ) to notify the application" (paper, Section II-A).
The RUBIN selector's hybrid event queue merges these CQ events with
connection-manager events; the :class:`CompletionChannel` is the blocking
notification primitive it builds on (``ibv_comp_channel``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Iterator, List, Optional

from repro.errors import RdmaError
from repro.rdma.verbs import Opcode, WcStatus
from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment, Event

__all__ = ["WorkCompletion", "CompletionQueue", "CompletionChannel"]

_cq_numbers = itertools.count(1)


@dataclass(slots=True)
class WorkCompletion:
    """One completion-queue entry (``ibv_wc``).

    A plain slotted record, written once by the QP that completes the
    work request and only read after.
    """

    wr_id: int
    status: WcStatus
    opcode: Opcode
    byte_len: int
    qp_num: int
    #: Out-of-band trace context of the operation this CQE completes.
    trace_ctx: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True for a successful completion."""
        return self.status is WcStatus.SUCCESS


class CompletionChannel:
    """Blocking notification channel shared by one or more CQs."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._events: Store = Store(env)

    def get_cq_event(self) -> "Event":
        """Wait for the next CQ that signalled; value is the CQ."""
        return self._events.get()

    def when_cq_event(self, callback: Callable[["CompletionQueue"], None]) -> None:
        """:meth:`get_cq_event` for a waiter that is a function: call
        ``callback(cq)`` with the next CQ that signalled (one-shot)."""
        self._events.get_call(callback)

    def try_get_cq_event(self) -> Optional["CompletionQueue"]:
        """Non-blocking variant of :meth:`get_cq_event`."""
        return self._events.try_get()

    def _notify(self, cq: "CompletionQueue") -> None:
        self._events.post(cq)

    def __repr__(self) -> str:
        return f"<CompletionChannel pending={len(self._events)}>"


class CompletionQueue:
    """A bounded queue of work completions.

    Notification follows the verbs contract: after
    :meth:`request_notify`, the *next* CQE pushed wakes the channel once;
    the application then re-arms after draining with :meth:`poll` (the
    race-free pattern RUBIN's event manager implements).
    """

    def __init__(
        self,
        env: "Environment",
        capacity: int = 4096,
        channel: Optional[CompletionChannel] = None,
        name: str = "",
    ):
        if capacity < 1:
            raise RdmaError(f"CQ capacity must be >= 1 ({capacity})")
        self.env = env
        self.capacity = capacity
        self.channel = channel
        self.number = next(_cq_numbers)
        self.name = name or f"cq{self.number}"
        self._entries: Deque[WorkCompletion] = deque()
        # Open "cq.wait" spans, kept index-aligned with ``_entries``
        # (None for untraced completions) so poll() can close them.
        self._wait_spans: Deque[Optional[object]] = deque()
        self._armed = False
        #: One-shot callbacks: append one to be called after the next
        #: :meth:`push`.  For a poller that would otherwise spin on an
        #: empty queue; unlike :meth:`request_notify` this needs no
        #: completion channel and leaves the armed flag alone, so nothing
        #: a channel's subscribers see depends on who sleeps here.
        self.push_waiters: List[Callable[[], None]] = []
        self.overrun = False

    def push(self, wc: WorkCompletion) -> None:
        """RNIC-side: append a completion (overrun is a hard error)."""
        audit = self.env.audit
        if audit is not None:
            # Depth *after* this push: > capacity flags the overrun the
            # exception below turns into a hard error.
            audit.on_cq_push(self.name, len(self._entries) + 1, self.capacity)
            if wc.opcode is Opcode.RECV:
                # Uniform accounting for every receive-WR outcome:
                # success, length error, or flush.
                audit.on_recv_complete(wc.qp_num, wc.wr_id)
        if len(self._entries) >= self.capacity:
            # A real CQ overrun corrupts the CQ and errors attached QPs;
            # we fail loudly so tests catch undersized completion queues.
            self.overrun = True
            raise RdmaError(
                f"{self.name}: completion queue overrun "
                f"(capacity {self.capacity})"
            )
        span = None
        if wc.trace_ctx is not None:
            tracer = self.env.tracer
            if tracer is not None and tracer.enabled:
                span = tracer.start_span(
                    "cq.wait",
                    layer="cq",
                    parent=wc.trace_ctx,
                    track=self.name,
                    wr_id=wc.wr_id,
                    opcode=wc.opcode.value,
                )
        self._entries.append(wc)
        self._wait_spans.append(span)
        if self._armed and self.channel is not None:
            self._armed = False
            self.channel._notify(self)
        if self.push_waiters:
            self.wake_waiters()

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Reap up to ``max_entries`` completions (non-blocking)."""
        if max_entries < 1:
            raise RdmaError(f"max_entries must be >= 1 ({max_entries})")
        out: List[WorkCompletion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
            span = self._wait_spans.popleft()
            if span is not None:
                span.end()
        return out

    def head_trace_ctx(self) -> Optional[object]:
        """Trace context of the oldest pending completion (if any)."""
        return self._entries[0].trace_ctx if self._entries else None

    def request_notify(self) -> None:
        """Arm the channel notification for the next pushed CQE.

        If entries are already pending, notifies immediately — closing the
        poll/arm race window exactly like ``ibv_req_notify_cq`` users must.
        """
        if self.channel is None:
            raise RdmaError(f"{self.name}: no completion channel attached")
        if self._entries:
            self.channel._notify(self)
        else:
            self._armed = True

    def wake_waiters(self) -> None:
        """Call, and forget, everything in :attr:`push_waiters`.

        Also for the queue's owner, when what the sleepers wait for can
        happen without a push (the connection closing, say).
        """
        waiters, self.push_waiters = self.push_waiters, []
        for waiter in waiters:
            waiter()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[WorkCompletion]:
        """The pending completions, oldest first, without reaping them."""
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"<CompletionQueue {self.name} pending={len(self._entries)}>"
