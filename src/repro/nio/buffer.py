"""A Java-NIO-style ``ByteBuffer``.

RUBIN "recreates the behavior of the non-blocking Java NIO" (paper,
Section III), and both the NIO baseline and the RUBIN channels exchange
data through these buffers, so the read/write call sites look exactly like
the Java code they model.

The semantics follow ``java.nio.ByteBuffer``: a buffer has a *capacity*, a
*position* (next index to read/write) and a *limit* (first index that must
not be touched).  ``flip()`` switches from filling to draining,
``compact()`` switches back preserving unread bytes.
"""

from __future__ import annotations

from repro.errors import RubinError
from repro.sim.copystats import COPYSTATS

__all__ = ["ByteBuffer", "BufferOverflow", "BufferUnderflow"]


class BufferOverflow(RubinError):
    """Write past the buffer's limit."""


class BufferUnderflow(RubinError):
    """Read past the buffer's limit."""


class ByteBuffer:
    """Fixed-capacity byte buffer with position/limit bookkeeping."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise RubinError(f"negative capacity {capacity}")
        self._data = bytearray(capacity)
        self._capacity = capacity
        self._position = 0
        self._limit = capacity
        #: Owner's promise that the bytes between position and limit stay
        #: unchanged until the transport signals completion for any write
        #: that gathered them (staging rings set this; see
        #: ``MemoryRegion.stable``).  Channels use it to decide between a
        #: zero-copy gather view and an owned snapshot.
        self.stable_until_completion = False
        #: Work request id of the last zero-copy send that gathers from
        #: this buffer (0: none); set by RUBIN's write path.
        self.gather_wr_id = 0

    # -- factories ----------------------------------------------------------

    @classmethod
    def allocate(cls, capacity: int) -> "ByteBuffer":
        """A zeroed buffer of ``capacity`` bytes, ready for filling."""
        return cls(capacity)

    @classmethod
    def wrap(cls, data: bytes) -> "ByteBuffer":
        """A buffer containing ``data``, ready for draining."""
        buf = cls(len(data))
        if COPYSTATS.enabled:
            COPYSTATS.copy(len(data))
        buf._data[:] = data
        buf._position = 0
        buf._limit = len(data)
        return buf

    # -- bookkeeping ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total byte capacity (immutable)."""
        return self._capacity

    @property
    def position(self) -> int:
        """Index of the next byte to read or write."""
        return self._position

    @position.setter
    def position(self, value: int) -> None:
        if not 0 <= value <= self._limit:
            raise RubinError(
                f"position {value} outside [0, limit={self._limit}]"
            )
        self._position = value

    @property
    def limit(self) -> int:
        """First index that must not be read or written."""
        return self._limit

    @limit.setter
    def limit(self, value: int) -> None:
        if not 0 <= value <= self._capacity:
            raise RubinError(f"limit {value} outside [0, capacity={self._capacity}]")
        self._limit = value
        self._position = min(self._position, value)

    def remaining(self) -> int:
        """Bytes between position and limit."""
        return self._limit - self._position

    def has_remaining(self) -> bool:
        """Whether any bytes remain between position and limit."""
        return self._position < self._limit

    # -- mode switches ---------------------------------------------------------

    def clear(self) -> "ByteBuffer":
        """Reset for filling: position 0, limit = capacity."""
        self._position = 0
        self._limit = self._capacity
        return self

    def flip(self) -> "ByteBuffer":
        """Switch from filling to draining: limit = position, position 0."""
        self._limit = self._position
        self._position = 0
        return self

    def rewind(self) -> "ByteBuffer":
        """Re-read from the start without changing the limit."""
        self._position = 0
        return self

    def compact(self) -> "ByteBuffer":
        """Move unread bytes to the front and switch to filling mode."""
        unread = self._data[self._position : self._limit]
        self._data[: len(unread)] = unread
        self._position = len(unread)
        self._limit = self._capacity
        return self

    # -- data access -----------------------------------------------------------

    def put(self, data: bytes) -> "ByteBuffer":
        """Write ``data`` at the position, advancing it."""
        if len(data) > self.remaining():
            raise BufferOverflow(
                f"put of {len(data)} bytes exceeds remaining {self.remaining()}"
            )
        if COPYSTATS.enabled:
            COPYSTATS.copy(len(data))
        self._data[self._position : self._position + len(data)] = data
        self._position += len(data)
        return self

    def get(self, nbytes: int | None = None) -> bytes:
        """Read ``nbytes`` (default: all remaining) from the position."""
        if nbytes is None:
            nbytes = self.remaining()
        if nbytes > self.remaining():
            raise BufferUnderflow(
                f"get of {nbytes} bytes exceeds remaining {self.remaining()}"
            )
        if COPYSTATS.enabled:
            COPYSTATS.copy(nbytes)
        # Single copy: slicing a memoryview is free; bytes() owns the copy.
        out = bytes(memoryview(self._data)[self._position : self._position + nbytes])
        self._position += nbytes
        return out

    def peek(self, nbytes: int | None = None) -> bytes:
        """Like :meth:`get` but without advancing the position."""
        if nbytes is None:
            nbytes = self.remaining()
        if nbytes > self.remaining():
            raise BufferUnderflow(
                f"peek of {nbytes} bytes exceeds remaining {self.remaining()}"
            )
        if COPYSTATS.enabled:
            COPYSTATS.copy(nbytes)
        return bytes(memoryview(self._data)[self._position : self._position + nbytes])

    def peek_view(self, nbytes: int | None = None) -> memoryview:
        """Zero-copy window over the next ``nbytes`` (position unchanged).

        The view aliases the backing array: it is only valid until the
        buffer is next mutated, and the caller must release it (or let it
        go) before the buffer is compacted or resized.
        """
        if nbytes is None:
            nbytes = self.remaining()
        if nbytes > self.remaining():
            raise BufferUnderflow(
                f"peek_view of {nbytes} bytes exceeds remaining {self.remaining()}"
            )
        return memoryview(self._data)[self._position : self._position + nbytes]

    def array(self) -> bytearray:
        """The backing array (shared, like Java's ``array()``)."""
        return self._data

    def __len__(self) -> int:
        return self._capacity

    def __repr__(self) -> str:
        return (
            f"<ByteBuffer pos={self._position} lim={self._limit} "
            f"cap={self._capacity}>"
        )
