"""Connection management (an ``rdma_cm``-style layer).

Queue pairs need their peer's QP number before they can talk; real
applications bootstrap this with the RDMA connection manager.  This module
implements that handshake (REQ / REP / RTU over small control frames) and
an **event channel** delivering :class:`CmEvent` objects — the
"connection notifications" that RUBIN's hybrid event queue merges with
completion events (paper, Figure 2): ``CONNECT_REQUEST`` backs the
selector's ``OP_CONNECT`` interest and ``ESTABLISHED`` backs ``OP_ACCEPT``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import RdmaError
from repro.net.frame import Frame
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import QpState
from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import RdmaDevice
    from repro.sim import Environment, Event

__all__ = ["ConnectionManager", "CmListener", "CmEvent", "ConnectRequest"]

#: Wire size of a CM control frame (MAD-ish).
CM_FRAME_BYTES = 96

_cm_ids = itertools.count(1)


@dataclass
class _CmMessage:
    """REQ/REP/RTU/REJ control message."""

    kind: str  # "REQ" | "REP" | "RTU" | "REJ"
    src_host: str
    dst_port: int
    conn_id: int
    client_qp: int = 0
    server_qp: int = 0
    reason: str = ""


@dataclass
class CmEvent:
    """An entry on the CM event channel.

    ``kind`` is one of ``"CONNECT_REQUEST"``, ``"ESTABLISHED"``,
    ``"REJECTED"``.
    """

    kind: str
    conn_id: int
    listener_port: Optional[int] = None
    request: Optional["ConnectRequest"] = None
    qp: Optional[QueuePair] = None


class ConnectRequest:
    """A pending inbound connection awaiting accept/reject."""

    def __init__(
        self,
        cm: "ConnectionManager",
        conn_id: int,
        remote_host: str,
        remote_qp: int,
        port: int,
    ):
        self.cm = cm
        self.conn_id = conn_id
        self.remote_host = remote_host
        self.remote_qp = remote_qp
        self.port = port
        self.decided = False

    def accept(self, qp: QueuePair) -> None:
        """Accept with a locally created QP; connects it and sends REP."""
        if self.decided:
            raise RdmaError("connect request already decided")
        self.decided = True
        qp.connect(self.remote_host, self.remote_qp)
        self.cm._pending_accepts[self.conn_id] = qp
        self.cm._send(
            self.remote_host,
            _CmMessage(
                kind="REP",
                src_host=self.cm.device.host.name,
                dst_port=self.port,
                conn_id=self.conn_id,
                server_qp=qp.qp_num,
            ),
        )

    def reject(self, reason: str = "rejected") -> None:
        """Refuse the connection."""
        if self.decided:
            raise RdmaError("connect request already decided")
        self.decided = True
        self.cm._send(
            self.remote_host,
            _CmMessage(
                kind="REJ",
                src_host=self.cm.device.host.name,
                dst_port=self.port,
                conn_id=self.conn_id,
                reason=reason,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"<ConnectRequest #{self.conn_id} from {self.remote_host}/"
            f"qp{self.remote_qp} to port {self.port}>"
        )


class CmListener:
    """A passive CM endpoint bound to a service port."""

    def __init__(self, cm: "ConnectionManager", port: int):
        self.cm = cm
        self.port = port
        self.closed = False

    def close(self) -> None:
        """Stop receiving connection requests."""
        if not self.closed:
            self.closed = True
            self.cm._listeners.pop(self.port, None)

    def __repr__(self) -> str:
        return f"<CmListener {self.cm.device.host.name}:{self.port}>"


class ConnectionManager:
    """Per-host CM endpoint with an event channel."""

    PROTOCOL = "roce_cm"

    def __init__(self, device: "RdmaDevice"):
        self.device = device
        self.env: "Environment" = device.env
        self._listeners: Dict[int, CmListener] = {}
        #: Event channel: CmEvent entries, consumed by RUBIN's selector.
        self.events: Store = Store(self.env)
        self._event_watchers: List[Callable[[CmEvent], None]] = []
        # Client side: conn_id -> (qp, established Event)
        self._pending_connects: Dict[int, tuple[QueuePair, "Event"]] = {}
        # Server side: conn_id -> accepted qp awaiting RTU
        self._pending_accepts: Dict[int, QueuePair] = {}
        device.host.nic.register_protocol(self.PROTOCOL, self._on_frame)

    # -- API --------------------------------------------------------------

    def listen(self, port: int) -> CmListener:
        """Listen for connection requests on a service port."""
        if port in self._listeners:
            raise RdmaError(f"CM port {port} already listening")
        listener = CmListener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_host: str, port: int, qp: QueuePair) -> "Event":
        """Active open: returns an event triggering with the connected QP.

        ``qp`` must be freshly created (RESET); the CM transitions it once
        the peer replies.
        """
        _conn_id, established = self.begin_connect(remote_host, port, qp)
        return established

    def begin_connect(
        self, remote_host: str, port: int, qp: QueuePair
    ) -> tuple[int, "Event"]:
        """Like :meth:`connect` but also returns the connection id.

        The id lets callers correlate later ``REJECTED`` events with this
        attempt, and cancel it via :meth:`abort_connect` — both needed by
        reconnect supervisors that time out stalled handshakes.
        """
        conn_id = next(_cm_ids)
        established = self.env.event()
        self._pending_connects[conn_id] = (qp, established)
        self._send(
            remote_host,
            _CmMessage(
                kind="REQ",
                src_host=self.device.host.name,
                dst_port=port,
                conn_id=conn_id,
                client_qp=qp.qp_num,
            ),
        )
        return conn_id, established

    def abort_connect(self, conn_id: int) -> bool:
        """Abandon a pending active open (handshake timed out).

        A REP/REJ that arrives later for this id is dropped as stale.
        Returns True if the attempt was still pending.
        """
        return self._pending_connects.pop(conn_id, None) is not None

    def add_event_watcher(self, watcher: Callable[[CmEvent], None]) -> None:
        """Invoke ``watcher(event)`` for every CM event (RUBIN's hook)."""
        self._event_watchers.append(watcher)

    # -- wire protocol ---------------------------------------------------------

    def _send(self, remote_host: str, message: _CmMessage) -> None:
        self.device.host.nic.transmit(
            Frame(
                src=self.device.host.name,
                dst=remote_host,
                protocol=self.PROTOCOL,
                wire_bytes=CM_FRAME_BYTES,
                payload=message,
            )
        )

    def _emit(self, event: CmEvent) -> None:
        self.events.post(event)
        for watcher in list(self._event_watchers):
            watcher(event)

    def _on_frame(self, frame: Frame) -> None:
        message: _CmMessage = frame.payload
        if message.kind == "REQ":
            listener = self._listeners.get(message.dst_port)
            if listener is None or listener.closed:
                self._send(
                    message.src_host,
                    _CmMessage(
                        kind="REJ",
                        src_host=self.device.host.name,
                        dst_port=message.dst_port,
                        conn_id=message.conn_id,
                        reason=f"no listener on port {message.dst_port}",
                    ),
                )
                return
            request = ConnectRequest(
                self,
                message.conn_id,
                message.src_host,
                message.client_qp,
                message.dst_port,
            )
            self._emit(
                CmEvent(
                    kind="CONNECT_REQUEST",
                    conn_id=message.conn_id,
                    listener_port=message.dst_port,
                    request=request,
                )
            )
        elif message.kind == "REP":
            pending = self._pending_connects.pop(message.conn_id, None)
            if pending is None:
                return
            qp, established = pending
            if qp.state is not QpState.RESET:
                # The QP died (or was destroyed) while the handshake was
                # in flight; the active side must retry with a fresh QP.
                self._emit(CmEvent(kind="REJECTED", conn_id=message.conn_id))
                established.fail(
                    RdmaError("local QP no longer in RESET at REP time")
                ).defused()
                return
            qp.connect(message.src_host, message.server_qp)
            self._send(
                message.src_host,
                _CmMessage(
                    kind="RTU",
                    src_host=self.device.host.name,
                    dst_port=message.dst_port,
                    conn_id=message.conn_id,
                ),
            )
            self._emit(CmEvent(kind="ESTABLISHED", conn_id=message.conn_id, qp=qp))
            established.succeed(qp)
        elif message.kind == "RTU":
            qp = self._pending_accepts.pop(message.conn_id, None)
            if qp is None:
                return
            self._emit(CmEvent(kind="ESTABLISHED", conn_id=message.conn_id, qp=qp))
        elif message.kind == "REJ":
            pending = self._pending_connects.pop(message.conn_id, None)
            if pending is None:
                return
            _qp, established = pending
            self._emit(CmEvent(kind="REJECTED", conn_id=message.conn_id))
            established.fail(
                RdmaError(f"connection rejected: {message.reason}")
            ).defused()
        else:  # pragma: no cover - exhaustive
            raise RdmaError(f"unknown CM message kind {message.kind!r}")

    def __repr__(self) -> str:
        return (
            f"<ConnectionManager {self.device.host.name} "
            f"listeners={sorted(self._listeners)}>"
        )
