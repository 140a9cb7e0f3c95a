"""The Java-NIO-style selector over the epoll emulation.

This is the *baseline* of the paper's Figure 4 comparison: "The Java NIO
selector internally relies on epoll to check the readiness of the
channels" — so this selector is a thin translation layer from channels and
interest ops (OP_READ/OP_WRITE/OP_CONNECT/OP_ACCEPT) to the kernel's
EPOLLIN/EPOLLOUT, just like the real one.  RUBIN (:mod:`repro.rubin`)
recreates this exact interface over RDMA completion events instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.errors import TcpError
from repro.nio.channel import ServerSocketChannel, SocketChannel
from repro.sim import inline
from repro.sim.events import PENDING
from repro.tcpstack.connection import _DATA_STATES
from repro.tcpstack.epoll import EPOLLIN, EPOLLOUT, Epoll

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.sim import Event

__all__ = [
    "Selector",
    "SelectionKey",
    "OP_READ",
    "OP_WRITE",
    "OP_CONNECT",
    "OP_ACCEPT",
]

#: Interest-op bits (same values as ``java.nio.channels.SelectionKey``).
OP_READ = 1 << 0
OP_WRITE = 1 << 2
OP_CONNECT = 1 << 3
OP_ACCEPT = 1 << 4

Selectable = Union[SocketChannel, ServerSocketChannel]

#: The epoll mask each interest set registers, indexed by its low four
#: bits (OP_READ, OP_WRITE, OP_CONNECT): EPOLLIN for reads, EPOLLOUT for
#: writes and connects, EPOLLIN when neither (a mask is never empty).  A
#: server channel's mask is EPOLLIN whatever its interest.
_MASK_BITS = 0b1111
_SOCKET_MASKS = tuple(
    ((EPOLLIN if bits & OP_READ else 0)
     | (EPOLLOUT if bits & (OP_WRITE | OP_CONNECT) else 0))
    or EPOLLIN
    for bits in range(_MASK_BITS + 1)
)
_SERVER_MASKS = (EPOLLIN,) * (_MASK_BITS + 1)


class SelectionKey:
    """The registration of one channel with one selector."""

    def __init__(self, selector: "Selector", channel: Selectable, interest: int):
        self.selector = selector
        self.channel = channel
        self._interest = interest
        self.ready_ops = 0
        self.attachment: Any = None
        self.valid = True
        # Fixed at registration: what kind of channel this is, the
        # listener or connection it polls, and the epoll mask registered.
        self._server = isinstance(channel, ServerSocketChannel)
        self._pollable = channel.listener if self._server else channel.connection
        self._masks = _SERVER_MASKS if self._server else _SOCKET_MASKS
        self._mask = self._masks[interest & _MASK_BITS]

    @property
    def interest_ops(self) -> int:
        """The ops this key watches for."""
        return self._interest

    @interest_ops.setter
    def interest_ops(self, ops: int) -> None:
        if not self.valid:
            raise TcpError("selection key is cancelled")
        self._interest = ops
        mask = self._masks[ops & _MASK_BITS]
        epoll = self.selector._epoll
        if mask != self._mask:
            self._mask = mask
            epoll.modify(self._pollable, mask)
        else:
            # ``modify`` with the mask already registered changes nothing
            # but wakes a blocked wait; so does this.
            epoll._maybe_wake()

    def attach(self, attachment: Any) -> None:
        """Attach arbitrary context (Java's ``attach()``)."""
        self.attachment = attachment

    # -- readiness predicates (Java API names) ------------------------------

    def is_readable(self) -> bool:
        """Ready for OP_READ."""
        return bool(self.ready_ops & OP_READ)

    def is_writable(self) -> bool:
        """Ready for OP_WRITE."""
        return bool(self.ready_ops & OP_WRITE)

    def is_connectable(self) -> bool:
        """Ready for OP_CONNECT."""
        return bool(self.ready_ops & OP_CONNECT)

    def is_acceptable(self) -> bool:
        """Ready for OP_ACCEPT."""
        return bool(self.ready_ops & OP_ACCEPT)

    def cancel(self) -> None:
        """Deregister the channel from the selector."""
        if self.valid:
            self.valid = False
            self.selector._cancel(self)

    def __repr__(self) -> str:
        return (
            f"<SelectionKey {self.channel!r} interest={self._interest:#x} "
            f"ready={self.ready_ops:#x}>"
        )


class Selector:
    """Multiplexes many channels onto one thread (``java.nio.Selector``)."""

    def __init__(self, host: "Host"):
        self.host = host
        self.env = host.env
        self._epoll = Epoll(host)
        self._keys: Dict[Selectable, SelectionKey] = {}
        self._selected: List[SelectionKey] = []
        self.closed = False

    @classmethod
    def open(cls, host: "Host") -> "Selector":
        """Create a selector on ``host`` (Java's ``Selector.open()``)."""
        return cls(host)

    # -- registration ----------------------------------------------------

    def register(self, channel: Selectable, interest: int) -> SelectionKey:
        """Register ``channel`` for ``interest`` ops; returns its key."""
        self._check_open()
        if channel in self._keys:
            raise TcpError(f"{channel!r} already registered with this selector")
        self._validate_ops(channel, interest)
        key = SelectionKey(self, channel, interest)
        if key._pollable is None:
            raise TcpError(
                "register the channel after connect()/bind() so it has an "
                "underlying socket"
            )
        self._keys[channel] = key
        self._epoll.register(key._pollable, key._mask)
        return key

    @staticmethod
    def _validate_ops(channel: Selectable, interest: int) -> None:
        if isinstance(channel, ServerSocketChannel):
            if interest & ~OP_ACCEPT:
                raise TcpError("server channels support only OP_ACCEPT")
        else:
            if interest & OP_ACCEPT:
                raise TcpError("socket channels do not support OP_ACCEPT")
        if interest == 0:
            raise TcpError("empty interest set")

    def _cancel(self, key: SelectionKey) -> None:
        self._keys.pop(key.channel, None)
        try:
            self._epoll.unregister(key._pollable)
        except TcpError:
            pass

    def keys(self) -> List[SelectionKey]:
        """All current registrations."""
        return list(self._keys.values())

    # -- selection ---------------------------------------------------------

    def select(self, timeout: Optional[float] = None) -> "Event":
        """Block until ≥1 registered channel is ready; value = ready count.

        The ready keys are retrieved with :meth:`selected_keys`, which
        clears the selected set — mirroring the Java usage pattern of
        iterating and removing keys.
        """
        return self.env.process(self.select_gen(timeout), name="nio.select")

    def select_now(self) -> "Event":
        """Non-blocking variant of :meth:`select`."""
        return self.env.process(self.select_gen(0.0), name="nio.selectNow")

    def select_gen(self, timeout: Optional[float] = None):
        """The body of :meth:`select`, for ``yield from inline(...)``."""
        self._check_open()
        return self._select(timeout)

    def _select(self, timeout: Optional[float]):
        self._selected = []
        ready = self._compute_ready()
        if ready or timeout == 0.0:
            self._selected = ready
            return len(ready)
        yield from inline(
            self.env, self._epoll.wait_gen(timeout=timeout), "epoll.wait"
        )
        # Translate kernel-level readiness back into ops at key level; the
        # epoll result tells us *something* changed, the ops are recomputed
        # so OP_CONNECT vs OP_WRITE resolve correctly.
        ready = self._compute_ready()
        self._selected = ready
        return len(ready)

    def _compute_ready(self) -> List[SelectionKey]:
        # Every key is looked at on every pass, so readiness is read from
        # the fields behind the channels' ``acceptable``, ``connectable``,
        # ``readable``, ``writable`` and ``is_connected`` rather than
        # through them.
        ready = []
        for key in self._keys.values():
            interest = key._interest
            pollable = key._pollable
            if key._server:
                ops = (
                    OP_ACCEPT
                    if interest & OP_ACCEPT and pollable._accept_queue.items
                    else 0
                )
            else:
                ops = 0
                pending = key.channel._connect_pending
                if (
                    interest & OP_CONNECT
                    and pending
                    and pollable.established._value is not PENDING
                ):
                    ops = OP_CONNECT
                if interest & OP_READ and (
                    pollable._recv_buffer
                    or pollable._fin_received
                    or pollable._reset_error is not None
                ):
                    ops |= OP_READ
                if (
                    interest & OP_WRITE
                    and not pending
                    and pollable.state in _DATA_STATES
                    and pollable.config.send_buffer
                    > len(pollable._send_queue)
                    + pollable._snd_nxt
                    - pollable._snd_una
                ):
                    ops |= OP_WRITE
            key.ready_ops = ops
            if ops:
                ready.append(key)
        return ready

    def selected_keys(self) -> List[SelectionKey]:
        """The keys made ready by the last select; clears the set."""
        selected, self._selected = self._selected, []
        return selected

    def wakeup(self) -> None:
        """Make a blocked :meth:`select` return immediately (Java's
        ``Selector.wakeup()``), used to hand new outbound work to the
        selector thread."""
        self._epoll.wakeup()

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise TcpError("selector is closed")

    def close(self) -> None:
        """Cancel all keys and release the epoll instance."""
        if self.closed:
            return
        self.closed = True
        for key in list(self._keys.values()):
            key.valid = False
        self._keys.clear()
        self._epoll.close()

    def __repr__(self) -> str:
        return f"<Selector on {self.host.name} keys={len(self._keys)}>"
