"""Non-blocking socket channels over the simulated TCP stack.

These mirror ``java.nio.channels.SocketChannel`` and
``ServerSocketChannel`` closely enough that the Reptor communication stack
(:mod:`repro.reptor`) can be written once against this interface and once
against RUBIN's — which is the paper's whole point: RUBIN recreates this
API over RDMA so BFT frameworks keep their communication code.

All I/O methods return kernel events (yield them from a process); "non-
blocking" means they never wait for data or peer action, but they still
consume simulated CPU time for syscalls and copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import TcpError
from repro.nio.buffer import ByteBuffer
from repro.sim import inline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.sim import Event
    from repro.tcpstack.connection import TcpConnection
    from repro.tcpstack.listener import TcpListener

__all__ = ["SocketChannel", "ServerSocketChannel"]


class SocketChannel:
    """A non-blocking TCP channel (``java.nio.channels.SocketChannel``)."""

    def __init__(self, host: "Host"):
        self.host = host
        self.env = host.env
        self.connection: Optional["TcpConnection"] = None
        self._connect_pending = False
        self._closed = False

    # -- factories ----------------------------------------------------------

    @classmethod
    def open(cls, host: "Host") -> "SocketChannel":
        """Create an unconnected channel on ``host``."""
        return cls(host)

    @classmethod
    def _wrap(cls, host: "Host", connection: "TcpConnection") -> "SocketChannel":
        """Wrap an accepted server-side connection."""
        channel = cls(host)
        channel.connection = connection
        return channel

    # -- connection management ----------------------------------------------

    def connect(self, remote_host: str, remote_port: int) -> None:
        """Start a non-blocking connect (finish with :meth:`finish_connect`)."""
        if self.connection is not None:
            raise TcpError("channel is already connected or connecting")
        if self._closed:
            raise TcpError("channel is closed")
        stack = self.host.stack("tcp")
        self.connection = stack.connect(remote_host, remote_port)
        self._connect_pending = True

    @property
    def connect_pending(self) -> bool:
        """True while a connect is in flight."""
        return self._connect_pending

    def finish_connect(self) -> bool:
        """Complete a pending connect.

        Returns True once established; raises if the connect failed
        (connection refused).  Mirrors Java's ``finishConnect()``.
        """
        if not self._connect_pending:
            return self.is_connected
        conn = self.connection
        assert conn is not None
        if conn.established.triggered:
            self._connect_pending = False
            if not conn.established.ok:
                raise conn.established.value
            return True
        return False

    @property
    def is_connected(self) -> bool:
        """True while the channel can transfer data."""
        return (
            self.connection is not None
            and not self._connect_pending
            and self.connection.is_established
        )

    @property
    def is_open(self) -> bool:
        """True until :meth:`close` is called."""
        return not self._closed

    # -- I/O --------------------------------------------------------------

    def read(self, buffer: ByteBuffer) -> "Event":
        """Read into ``buffer``; event value is bytes read (-1 at EOF).

        Non-blocking: 0 means no data available right now.
        """
        return self.env.process(self.read_gen(buffer), name="nio.read")

    def read_gen(self, buffer: ByteBuffer):
        """The body of :meth:`read`, for ``yield from inline(...)``."""
        self._check_io_ready()
        return self._read(buffer)

    def _read(self, buffer: ByteBuffer):
        conn = self.connection
        assert conn is not None
        want = buffer.remaining()
        if want == 0:
            return 0
        data = yield from inline(self.env, conn.read_some_gen(want), "tcp.read")
        if data is None:
            return -1
        if not data:
            return 0
        buffer.put(data)
        return len(data)

    def write(self, buffer: ByteBuffer) -> "Event":
        """Write from ``buffer``; event value is bytes written (may be 0)."""
        return self.env.process(self.write_gen(buffer), name="nio.write")

    def write_gen(self, buffer: ByteBuffer):
        """The body of :meth:`write`, for ``yield from inline(...)``."""
        self._check_io_ready()
        return self._write(buffer)

    def _write(self, buffer: ByteBuffer):
        conn = self.connection
        assert conn is not None
        # Hand the stack a window over the buffer instead of a copy; the
        # stack snapshots what it accepts into its send queue, and the
        # buffer is not mutated while the write is in flight.
        pending = buffer.peek_view()
        if not pending:
            pending.release()
            return 0
        try:
            written = yield from inline(
                self.env, conn.write_some_gen(pending), "tcp.write"
            )
        finally:
            pending.release()
        if written:
            buffer.position = buffer.position + written
        return written

    def _check_io_ready(self) -> None:
        if self._closed:
            raise TcpError("channel is closed")
        if self.connection is None or self._connect_pending:
            raise TcpError("channel is not connected")

    # -- readiness (used by the selector) -------------------------------------

    @property
    def readable(self) -> bool:
        """True if a read would return data or EOF right now."""
        return self.connection is not None and self.connection.readable

    @property
    def writable(self) -> bool:
        """True if a write could make progress right now."""
        return self.connection is not None and self.connection.writable

    @property
    def connectable(self) -> bool:
        """True if ``finish_connect`` would complete (or fail) right now."""
        return (
            self._connect_pending
            and self.connection is not None
            and self.connection.established.triggered
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the channel (orderly TCP close underneath)."""
        if self._closed:
            return
        self._closed = True
        if self.connection is not None:
            self.connection.close()

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else "pending"
            if self._connect_pending
            else "connected"
            if self.is_connected
            else "unconnected"
        )
        return f"<SocketChannel {self.host.name} {state}>"


class ServerSocketChannel:
    """A non-blocking listening channel (``ServerSocketChannel``)."""

    def __init__(self, host: "Host"):
        self.host = host
        self.env = host.env
        self.listener: Optional["TcpListener"] = None
        self._closed = False

    @classmethod
    def open(cls, host: "Host") -> "ServerSocketChannel":
        """Create an unbound server channel on ``host``."""
        return cls(host)

    def bind(self, port: int, backlog: int = 128) -> "ServerSocketChannel":
        """Bind and start listening on ``port``."""
        if self.listener is not None:
            raise TcpError("server channel is already bound")
        if self._closed:
            raise TcpError("server channel is closed")
        stack = self.host.stack("tcp")
        self.listener = stack.listen(port, backlog=backlog)
        return self

    def accept(self) -> Optional[SocketChannel]:
        """Non-blocking accept: a connected channel or ``None``."""
        if self.listener is None:
            raise TcpError("server channel is not bound")
        if self._closed:
            raise TcpError("server channel is closed")
        connection = self.listener.try_accept()
        if connection is None:
            return None
        return SocketChannel._wrap(self.host, connection)

    @property
    def acceptable(self) -> bool:
        """True if :meth:`accept` would return a channel right now."""
        return self.listener is not None and self.listener.acceptable

    @property
    def is_open(self) -> bool:
        """True until :meth:`close` is called."""
        return not self._closed

    def close(self) -> None:
        """Stop listening."""
        if self._closed:
            return
        self._closed = True
        if self.listener is not None:
            self.listener.close()

    def __repr__(self) -> str:
        port = self.listener.port if self.listener else None
        return f"<ServerSocketChannel {self.host.name}:{port}>"
