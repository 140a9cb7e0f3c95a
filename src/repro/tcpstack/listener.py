"""Passive TCP sockets (listeners)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import TcpError
from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Event
    from repro.tcpstack.connection import TcpConnection
    from repro.tcpstack.stack import TcpStack

__all__ = ["TcpListener"]


class TcpListener:
    """A listening socket: accepts incoming connections on a port.

    Connections are queued once their handshake *completes*, so an
    accepted connection is always ESTABLISHED — mirroring Berkeley
    sockets' accept queue.
    """

    def __init__(self, stack: "TcpStack", port: int, backlog: int = 128):
        if backlog < 1:
            raise TcpError(f"backlog must be >= 1 ({backlog})")
        self.stack = stack
        self.env = stack.env
        self.port = port
        self.backlog = backlog
        self._accept_queue: Store = Store(stack.env, capacity=backlog)
        self._watchers: List[Callable[[], None]] = []
        self.closed = False

    def accept(self) -> "Event":
        """Wait for (and return) the next established connection."""
        if self.closed:
            raise TcpError(f"{self}: listener is closed")
        return self._accept_queue.get()

    def try_accept(self) -> Optional["TcpConnection"]:
        """Non-blocking accept: a connection or ``None``."""
        if self.closed:
            raise TcpError(f"{self}: listener is closed")
        return self._accept_queue.try_get()

    @property
    def acceptable(self) -> bool:
        """True if :meth:`try_accept` would return a connection now."""
        return len(self._accept_queue) > 0

    @property
    def pending(self) -> int:
        """Number of established connections waiting to be accepted."""
        return len(self._accept_queue)

    def add_watcher(self, watcher: Callable[[], None]) -> None:
        """Invoke ``watcher()`` whenever a connection becomes acceptable."""
        self._watchers.append(watcher)

    def remove_watcher(self, watcher: Callable[[], None]) -> None:
        """Stop invoking ``watcher``."""
        try:
            self._watchers.remove(watcher)
        except ValueError:
            pass

    def enqueue_established(self, connection: "TcpConnection") -> None:
        """Called by the stack once a passive handshake completes."""
        self._accept_queue.post(connection)
        for watcher in list(self._watchers):
            watcher()

    def close(self) -> None:
        """Stop accepting; queued-but-unaccepted connections are aborted."""
        if self.closed:
            return
        self.closed = True
        while True:
            connection = self._accept_queue.try_get()
            if connection is None:
                break
            connection.abort()
        self.stack._listener_closed(self)

    def __repr__(self) -> str:
        return f"<TcpListener {self.stack.host.name}:{self.port}>"
