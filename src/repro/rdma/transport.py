"""RoCE-style wire packets for the RC (reliable connection) transport.

The simulated transport keeps the properties protocol code depends on:

* per-direction packet sequence numbers (PSNs) with cumulative ACKs,
  NAK-based go-back-N recovery and sender retry timers;
* receiver-not-ready (RNR) NAKs when a SEND arrives and no receive work
  request is posted, with bounded retries;
* remote-access NAKs when a one-sided operation fails rkey/bounds/
  permission validation — both QPs transition to ERROR, as in IB;
* RDMA READ as a request plus a stream of response chunks reassembled by
  the requester (responses are matched by ``read_id``; a lost response
  re-triggers the idempotent request — a simplification of the IB
  response-channel PSN scheme, with identical observable behaviour on an
  in-order fabric).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.rdma.verbs import ACK_WIRE_BYTES, ROCE_HEADER_BYTES

__all__ = ["PacketType", "RocePacket"]

_packet_ids = itertools.count(1)


class PacketType:
    """Wire packet kinds (BTH opcodes, collapsed to what we need)."""

    SEND_FIRST = "SEND_FIRST"
    SEND_MIDDLE = "SEND_MIDDLE"
    SEND_LAST = "SEND_LAST"
    SEND_ONLY = "SEND_ONLY"
    WRITE_FIRST = "WRITE_FIRST"
    WRITE_MIDDLE = "WRITE_MIDDLE"
    WRITE_LAST = "WRITE_LAST"
    WRITE_ONLY = "WRITE_ONLY"
    READ_REQUEST = "READ_REQUEST"
    READ_RESPONSE = "READ_RESPONSE"
    ACK = "ACK"
    NAK_SEQUENCE = "NAK_SEQUENCE"
    NAK_RNR = "NAK_RNR"
    NAK_ACCESS = "NAK_ACCESS"

    #: Packet types that occupy the request PSN space.
    SEQUENCED = frozenset(
        {
            SEND_FIRST,
            SEND_MIDDLE,
            SEND_LAST,
            SEND_ONLY,
            WRITE_FIRST,
            WRITE_MIDDLE,
            WRITE_LAST,
            WRITE_ONLY,
            READ_REQUEST,
        }
    )

    #: First/only packets, which begin a new message.
    STARTS_MESSAGE = frozenset({SEND_FIRST, SEND_ONLY, WRITE_FIRST, WRITE_ONLY})

    #: Last/only packets, which finish a message (and elicit an ACK).
    ENDS_MESSAGE = frozenset({SEND_LAST, SEND_ONLY, WRITE_LAST, WRITE_ONLY})


@dataclass(slots=True)
class RocePacket:
    """One RoCE packet.

    ``psn`` orders request packets per direction; ACK/NAK packets carry
    the cumulative/expected PSN in ``psn`` instead.  One-sided packets
    carry the RETH fields (``rkey``/``remote_offset``/``total_length``)
    on their first/only packet; READ traffic additionally carries
    ``read_id`` so responses match their request.
    """

    kind: str
    src_host: str
    src_qp: int
    dst_host: str
    dst_qp: int
    psn: int = 0
    payload: bytes = field(default=b"", repr=False)
    total_length: int = 0
    rkey: Optional[int] = None
    remote_offset: int = 0
    read_id: int = 0
    chunk_index: int = 0
    chunk_count: int = 0
    rnr_timer: float = 0.0
    #: Cumulative posted-receive count advertised by the responder on
    #: ACK/NAK packets (the IB AETH credit field; -1 = not carried).
    #: Rides in header bits already accounted for in ACK_WIRE_BYTES.
    credit: int = -1
    #: Out-of-band trace context (never serialized, no wire bytes).
    trace_ctx: Optional[object] = field(default=None, repr=False)
    packet_id: int = field(default_factory=_packet_ids.__next__)

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire: RoCE headers plus payload."""
        if self.kind in (
            PacketType.ACK,
            PacketType.NAK_SEQUENCE,
            PacketType.NAK_RNR,
            PacketType.NAK_ACCESS,
        ):
            return ACK_WIRE_BYTES
        extra = 16 if self.rkey is not None else 0  # RETH on one-sided ops
        return ROCE_HEADER_BYTES + extra + len(self.payload)

    def __repr__(self) -> str:
        return (
            f"<RocePacket {self.kind} {self.src_host}/qp{self.src_qp}->"
            f"{self.dst_host}/qp{self.dst_qp} psn={self.psn} "
            f"len={len(self.payload)}>"
        )
