"""An epoll-style readiness facility over simulated TCP sockets.

The Java NIO selector "internally relies on epoll to check the readiness of
the channels" (paper, Section III).  This module provides that kernel-side
mechanism: register connections/listeners with an interest mask, then
``wait()`` blocks (in simulated time) until at least one registered object
is ready and returns the ready set.  The NIO selector in :mod:`repro.nio`
is a thin layer over this, exactly like the real implementation stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple, Union

from repro.errors import TcpError
from repro.tcpstack.connection import _DATA_STATES, CLOSED, TcpConnection
from repro.tcpstack.listener import TcpListener

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.sim import Event

__all__ = ["Epoll", "EPOLLIN", "EPOLLOUT"]

#: Interest/readiness bits (names follow the Linux API).
EPOLLIN = 0x1
EPOLLOUT = 0x4

Pollable = Union[TcpConnection, TcpListener]


class Epoll:
    """Readiness multiplexer for the simulated TCP stack."""

    def __init__(self, host: "Host"):
        self.host = host
        self.env = host.env
        self._interest: Dict[Pollable, int] = {}
        self._watchers: Dict[Pollable, object] = {}
        self._listeners: Set[TcpListener] = set()
        self._wakeup: "Event | None" = None
        self._wakeup_requested = False
        self.closed = False

    # -- registration ---------------------------------------------------

    def register(self, pollable: Pollable, events: int) -> None:
        """Watch ``pollable`` for the ``events`` mask."""
        self._check_open()
        if pollable in self._interest:
            raise TcpError(f"{pollable!r} already registered; use modify()")
        if not events:
            raise TcpError("empty interest mask")
        self._interest[pollable] = events
        if isinstance(pollable, TcpListener):
            self._listeners.add(pollable)
        watcher = self._maybe_wake
        self._watchers[pollable] = watcher
        pollable.add_watcher(watcher)

    def modify(self, pollable: Pollable, events: int) -> None:
        """Change the interest mask for an already registered object."""
        self._check_open()
        if pollable not in self._interest:
            raise TcpError(f"{pollable!r} is not registered")
        if not events:
            raise TcpError("empty interest mask")
        self._interest[pollable] = events
        self._maybe_wake()

    def unregister(self, pollable: Pollable) -> None:
        """Stop watching ``pollable``."""
        self._check_open()
        if pollable not in self._interest:
            raise TcpError(f"{pollable!r} is not registered")
        del self._interest[pollable]
        self._listeners.discard(pollable)
        watcher = self._watchers.pop(pollable)
        pollable.remove_watcher(watcher)  # type: ignore[arg-type]

    def _check_open(self) -> None:
        if self.closed:
            raise TcpError("epoll instance is closed")

    # -- readiness ---------------------------------------------------------

    def poll(self) -> List[Tuple[Pollable, int]]:
        """Non-blocking snapshot of ready (object, mask) pairs."""
        if self.closed:
            raise TcpError("epoll instance is closed")
        # Every registered object is looked at on every wait, so readiness
        # is read from the fields behind ``TcpListener.acceptable`` and
        # ``TcpConnection.readable``/``writable`` rather than through them.
        listeners = self._listeners
        ready = []
        for pollable, interest in self._interest.items():
            if pollable in listeners:
                if interest & EPOLLIN and pollable._accept_queue.items:
                    ready.append((pollable, EPOLLIN))
                continue
            mask = 0
            if interest & EPOLLIN and (
                pollable._recv_buffer
                or pollable._fin_received
                or pollable._reset_error is not None
            ):
                mask = EPOLLIN
            state = pollable.state
            if (
                interest & EPOLLOUT
                and state in _DATA_STATES
                and pollable.config.send_buffer
                > len(pollable._send_queue) + pollable._snd_nxt - pollable._snd_una
            ):
                mask |= EPOLLOUT
            if state == CLOSED:
                # Error/hang-up conditions are always reported (EPOLLERR /
                # EPOLLHUP semantics): surface every requested interest so
                # the caller notices and fails its operation.
                mask |= interest
            if mask:
                ready.append((pollable, mask))
        return ready

    def wait(self, timeout: float | None = None) -> "Event":
        """Block until something is ready; value is the ready list.

        With ``timeout`` the event triggers with ``[]`` after that many
        seconds of nothing becoming ready.  Charges the epoll_wait syscall
        plus a wake-up context switch when it actually blocked.
        """
        return self.env.process(self.wait_gen(timeout), name="epoll.wait")

    def wait_gen(self, timeout: float | None = None):
        """The body of :meth:`wait`, for ``yield from inline(...)``."""
        self._check_open()
        return self._wait(timeout)

    def _wait(self, timeout: float | None):
        cpu = self.host.cpu
        yield cpu.execute(cpu.costs.syscall)
        ready = self.poll()
        if ready or self._wakeup_requested:
            self._wakeup_requested = False
            return ready
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            self._wakeup = self.env.event()
            if deadline is None:
                yield self._wakeup
            else:
                remaining = deadline - self.env.now
                if remaining <= 0:
                    return []
                timer = self.env.timeout(remaining)
                yield self.env.any_of([self._wakeup, timer])
                timer.cancel()
            self._wakeup = None
            if self.closed:
                raise TcpError("epoll instance closed while waiting")
            yield cpu.execute(cpu.costs.context_switch)
            ready = self.poll()
            if ready or self._wakeup_requested:
                self._wakeup_requested = False
                return ready
            if deadline is not None and self.env.now >= deadline:
                return []

    def _maybe_wake(self) -> None:
        # Also the watcher of every registered object.  The event is
        # forgotten as it is triggered, so a later call before the wait
        # resumes (which forgets it too) finds nothing to trigger.
        wakeup = self._wakeup
        if wakeup is not None:
            self._wakeup = None
            wakeup.succeed()

    def wakeup(self) -> None:
        """Force a blocked :meth:`wait` to return its current ready set
        (possibly empty) — the ``Selector.wakeup()`` mechanism."""
        self._wakeup_requested = True
        self._maybe_wake()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Unregister everything and wake any waiter."""
        if self.closed:
            return
        for pollable, watcher in self._watchers.items():
            pollable.remove_watcher(watcher)  # type: ignore[arg-type]
        self._interest.clear()
        self._watchers.clear()
        self._listeners.clear()
        self.closed = True
        self._maybe_wake()

    def __repr__(self) -> str:
        return f"<Epoll on {self.host.name} fds={len(self._interest)}>"
