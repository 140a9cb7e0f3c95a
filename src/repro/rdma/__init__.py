"""Simulated RDMA verbs layer.

A behavioural model of the OFED verbs stack the paper builds RUBIN on:
protection domains, registered memory regions with lkeys/rkeys, reliable-
connection queue pairs, work requests (two-sided SEND/RECV and one-sided
RDMA READ/WRITE), completion queues with notification channels, inline
sends, selective signaling, RNR/retry handling, and an ``rdma_cm``-style
connection manager with an event channel.

Host CPU is bypassed on the data path — the whole point of RDMA — while
the RNIC pipeline and DMA transfers take simulated time calibrated in
``repro.bench.calibration``.
"""

from repro.rdma.cm import CmEvent, CmListener, ConnectionManager, ConnectRequest
from repro.rdma.endpoints import ActiveEndpoint, EndpointGroup, PassiveEndpoint
from repro.rdma.cq import CompletionChannel, CompletionQueue, WorkCompletion
from repro.rdma.device import DeviceAttributes, RdmaDevice
from repro.rdma.mr import (
    MemoryRegion,
    ProtectionDomain,
    RemoteAddress,
    StalePermissionError,
    UnauthorizedAccessError,
    alloc_registered,
)
from repro.rdma.qp import QpCapabilities, QueuePair
from repro.rdma.transport import PacketType, RocePacket
from repro.rdma.verbs import (
    ACK_WIRE_BYTES,
    DEFAULT_MTU,
    ROCE_HEADER_BYTES,
    Access,
    Opcode,
    QpState,
    WcStatus,
)
from repro.rdma.wr import RecvWorkRequest, SendWorkRequest, Sge

__all__ = [
    "RdmaDevice",
    "DeviceAttributes",
    "ProtectionDomain",
    "MemoryRegion",
    "alloc_registered",
    "RemoteAddress",
    "StalePermissionError",
    "UnauthorizedAccessError",
    "QueuePair",
    "QpCapabilities",
    "CompletionQueue",
    "CompletionChannel",
    "WorkCompletion",
    "SendWorkRequest",
    "RecvWorkRequest",
    "Sge",
    "EndpointGroup",
    "ActiveEndpoint",
    "PassiveEndpoint",
    "ConnectionManager",
    "CmListener",
    "CmEvent",
    "ConnectRequest",
    "PacketType",
    "RocePacket",
    "Opcode",
    "WcStatus",
    "QpState",
    "Access",
    "ROCE_HEADER_BYTES",
    "ACK_WIRE_BYTES",
    "DEFAULT_MTU",
]
