"""DiSNI-style endpoints: a blocking convenience layer over raw verbs.

The paper builds RUBIN on IBM's DiSNI, which "offers two interfaces for
RDMA programming: the low-level Verbs interface and an endpoints
interface, which is an abstraction of the native Verbs functions similar
to the regular socket functions" (Section IV).  This module is that
second interface for the simulated stack: an endpoint owns its QP, CQs
and pre-posted receive buffers, connects through the CM, and exposes
blocking ``send``/``recv`` message calls — the natural API for tests,
examples and simple applications, with RUBIN remaining the non-blocking
selector-based layer on top of the same verbs.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import RdmaError
from repro.rdma.cm import ConnectionManager
from repro.rdma.cq import CompletionChannel
from repro.rdma.mr import alloc_registered
from repro.rdma.qp import QpCapabilities
from repro.rdma.verbs import Opcode, QpState, WcStatus
from repro.rdma.wr import RecvWorkRequest, SendWorkRequest, Sge
from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import RdmaDevice
    from repro.sim import Environment, Event

__all__ = ["EndpointGroup", "ActiveEndpoint", "PassiveEndpoint"]

_wr_ids = itertools.count(1)


class EndpointGroup:
    """Factory and shared configuration for endpoints on one device.

    Mirrors DiSNI's ``RdmaEndpointGroup``: it owns the connection manager
    and stamps every endpoint with the same buffer geometry.
    """

    def __init__(
        self,
        device: "RdmaDevice",
        cm: Optional[ConnectionManager] = None,
        buffer_size: int = 64 * 1024,
        buffer_count: int = 32,
        caps: Optional[QpCapabilities] = None,
    ):
        if buffer_size < 1 or buffer_count < 1:
            raise RdmaError("endpoint buffers must be positive")
        self.device = device
        self.env: "Environment" = device.env
        self.cm = cm if cm is not None else ConnectionManager(device)
        self.buffer_size = buffer_size
        self.buffer_count = buffer_count
        self.caps = caps if caps is not None else QpCapabilities(
            max_send_wr=buffer_count, max_recv_wr=buffer_count
        )
        self._accept_queues: Dict[int, Store] = {}
        self.cm.add_event_watcher(self._on_cm_event)

    # -- factories ----------------------------------------------------------

    def create_endpoint(self) -> "ActiveEndpoint":
        """A fresh, unconnected endpoint."""
        return ActiveEndpoint(self)

    def listen(self, port: int) -> "PassiveEndpoint":
        """A passive (server) endpoint accepting connections on ``port``."""
        self.cm.listen(port)
        queue = Store(self.env)
        self._accept_queues[port] = queue
        return PassiveEndpoint(self, port, queue)

    def _on_cm_event(self, event) -> None:
        if event.kind != "CONNECT_REQUEST":
            return
        queue = self._accept_queues.get(event.listener_port)
        if queue is not None:
            queue.post(event.request)

    def __repr__(self) -> str:
        return (
            f"<EndpointGroup on {self.device.name} "
            f"{self.buffer_count}x{self.buffer_size}B>"
        )


class PassiveEndpoint:
    """A listening endpoint (DiSNI's server endpoint)."""

    def __init__(self, group: EndpointGroup, port: int, queue: Store):
        self.group = group
        self.port = port
        self._queue = queue

    def accept(self) -> "Event":
        """Accept the next connection; event value is an ActiveEndpoint."""
        return self.group.env.process(self._accept_proc(), name="ep.accept")

    def _accept_proc(self):
        request = yield self._queue.get()
        endpoint = ActiveEndpoint(self.group)
        request.accept(endpoint.qp)
        endpoint._prepost_receives()
        endpoint.connected = True
        return endpoint

    def __repr__(self) -> str:
        return f"<PassiveEndpoint {self.group.device.host.name}:{self.port}>"


class ActiveEndpoint:
    """A connected endpoint with blocking message send/recv.

    Receive buffers are pre-posted at connect/accept time; ``recv``
    returns complete messages in arrival order.  ``send`` blocks until
    the message is acknowledged by the remote RNIC (its completion).
    """

    def __init__(self, group: EndpointGroup):
        self.group = group
        self.env = group.env
        device = group.device
        self.pd = device.alloc_pd()
        self._channel = CompletionChannel(self.env)
        self.send_cq = device.create_cq(name="ep.send", channel=self._channel)
        self.recv_cq = device.create_cq(name="ep.recv", channel=self._channel)
        self.qp = device.create_qp(self.pd, self.send_cq, self.recv_cq, group.caps)
        self.connected = False
        self._recv_buffers: Dict[int, object] = {}
        self._messages: Store = Store(self.env)
        self._send_waiters: Dict[int, "Event"] = {}
        self._pump_started = False

    # -- connection -----------------------------------------------------------

    def connect(self, remote_host: str, port: int) -> "Event":
        """Dial a passive endpoint; event triggers when established."""
        return self.env.process(
            self._connect_proc(remote_host, port), name="ep.connect"
        )

    def _connect_proc(self, remote_host: str, port: int):
        established = self.group.cm.connect(remote_host, port, self.qp)
        yield established
        self._prepost_receives()
        self.connected = True
        return self

    def _prepost_receives(self) -> None:
        device = self.group.device
        size = self.group.buffer_size
        memory = alloc_registered(self.group.buffer_count * size)
        batch = []
        for start in range(0, len(memory), size):
            mr = device.reg_mr(self.pd, memory[start : start + size])
            wr_id = next(_wr_ids)
            self._recv_buffers[wr_id] = mr
            batch.append(RecvWorkRequest(wr_id=wr_id, sge=Sge(mr)))
        self.qp.post_recv_batch(batch)
        if not self._pump_started:
            self._pump_started = True
            self.env.process(self._completion_pump(), name="ep.pump")

    # -- messaging ------------------------------------------------------------

    def send(self, data: bytes) -> "Event":
        """Send one message; completes when the RNIC reports completion."""
        if len(data) > self.group.buffer_size:
            raise RdmaError(
                f"message of {len(data)}B exceeds endpoint buffer "
                f"{self.group.buffer_size}B"
            )
        return self.env.process(self._send_proc(bytes(data)), name="ep.send")

    def _send_proc(self, data: bytes):
        if not self.connected or self.qp.state is not QpState.RTS:
            raise RdmaError("endpoint is not connected")
        device = self.group.device
        mr = device.reg_mr(self.pd, bytearray(data) or bytearray(1))
        wr_id = next(_wr_ids)
        done = self.env.event()
        self._send_waiters[wr_id] = done
        cpu = self.group.device.host.cpu
        yield cpu.execute(cpu.costs.post_wr + cpu.costs.doorbell)
        self.qp.post_send(
            SendWorkRequest(
                wr_id=wr_id,
                opcode=Opcode.SEND,
                sge=Sge(mr, 0, len(data)),
            )
        )
        status = yield done
        if status is not WcStatus.SUCCESS:
            raise RdmaError(f"send failed: {status.value}")
        return len(data)

    def recv(self) -> "Event":
        """Next complete inbound message (blocking; value is bytes)."""
        return self._messages.get()

    def try_recv(self) -> Optional[bytes]:
        """Non-blocking receive."""
        return self._messages.try_get()

    def _completion_pump(self):
        """Single pump translating completions into messages/acks."""
        cpu = self.group.device.host.cpu
        while self.qp.state is not QpState.ERROR:
            # Arm both CQs and wait for either to fire.
            for cq in (self.send_cq, self.recv_cq):
                if len(cq) == 0:
                    cq.request_notify()
            if len(self.send_cq) == 0 and len(self.recv_cq) == 0:
                yield self._channel.get_cq_event()
            yield cpu.execute(cpu.costs.cqe_poll)
            for wc in self.recv_cq.poll():
                mr = self._recv_buffers.pop(wc.wr_id, None)
                if wc.status is WcStatus.SUCCESS and mr is not None:
                    self._messages.post(bytes(mr.buffer[: wc.byte_len]))
                    # Recycle: re-post the same buffer.
                    new_id = next(_wr_ids)
                    self._recv_buffers[new_id] = mr
                    if self.qp.state is QpState.RTS:
                        yield cpu.execute(cpu.costs.post_wr + cpu.costs.doorbell)
                        self.qp.post_recv(RecvWorkRequest(wr_id=new_id, sge=Sge(mr)))
            for wc in self.send_cq.poll():
                waiter = self._send_waiters.pop(wc.wr_id, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(wc.status)

    def close(self) -> None:
        """Tear the endpoint down (QP to error, flush everything)."""
        self.qp._enter_error()

    def __repr__(self) -> str:
        state = "connected" if self.connected else "idle"
        return f"<ActiveEndpoint qp{self.qp.qp_num} {state}>"
