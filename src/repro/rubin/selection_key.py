"""RDMA selection keys.

"The RDMA selection key is the result of an RDMA channel registration with
the selector and has a unique ID characterizing the connection" (paper,
Section III-B).  A key holds the *interest set* chosen at registration and
a *ready set* updated when I/O events occur on the related channel.

The four interests match the paper exactly:

* ``OP_CONNECT`` — an incoming connection request arrived (servers);
* ``OP_ACCEPT``  — a connection finished establishing (both sides);
* ``OP_RECEIVE`` — a received message is ready to be read;
* ``OP_SEND``    — the channel can accept another send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import RubinError
from repro.rubin.channel import RubinServerChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rubin.selector import RubinSelector

__all__ = [
    "RubinSelectionKey",
    "OP_CONNECT",
    "OP_ACCEPT",
    "OP_RECEIVE",
    "OP_SEND",
]

OP_CONNECT = 1 << 0
OP_ACCEPT = 1 << 1
OP_RECEIVE = 1 << 2
OP_SEND = 1 << 3


class RubinSelectionKey:
    """One channel's registration with the RUBIN selector."""

    def __init__(self, selector: "RubinSelector", channel: Any, interest: int):
        self.selector = selector
        self.channel = channel
        #: Listening channel (OP_CONNECT only) or connected one; fixed
        #: here so a select pass need not ask the type of every key.
        self.is_server = isinstance(channel, RubinServerChannel)
        self._interest = interest
        #: Updated "when an I/O event occurred in the related channel".
        self.ready_ops = 0
        self.attachment: Any = None
        self.valid = True

    @property
    def key_id(self) -> Any:
        """The unique connection identifier (the channel's id)."""
        return self.channel.channel_id

    @property
    def interest_ops(self) -> int:
        """The ops this key watches for."""
        return self._interest

    @interest_ops.setter
    def interest_ops(self, ops: int) -> None:
        if not self.valid:
            raise RubinError("selection key is cancelled")
        if ops == 0:
            raise RubinError("empty interest set")
        self._interest = ops

    def attach(self, attachment: Any) -> None:
        """Attach arbitrary application context."""
        self.attachment = attachment

    def is_connectable(self) -> bool:
        """A connection request is pending (OP_CONNECT)."""
        return bool(self.ready_ops & OP_CONNECT)

    def is_acceptable(self) -> bool:
        """A connection finished establishing (OP_ACCEPT)."""
        return bool(self.ready_ops & OP_ACCEPT)

    def is_receivable(self) -> bool:
        """A message is ready to read (OP_RECEIVE)."""
        return bool(self.ready_ops & OP_RECEIVE)

    def is_sendable(self) -> bool:
        """The channel can take another send (OP_SEND)."""
        return bool(self.ready_ops & OP_SEND)

    def cancel(self) -> None:
        """Deregister from the selector."""
        if self.valid:
            self.valid = False
            self.selector._cancel(self)

    def __repr__(self) -> str:
        return (
            f"<RubinSelectionKey id={self.key_id} "
            f"interest={self._interest:#x} ready={self.ready_ops:#x}>"
        )
