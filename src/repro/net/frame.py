"""Wire frames: the unit every link transports.

A frame is protocol-agnostic: the TCP stack puts segments in frames, the
RDMA transport puts RoCE packets in frames.  ``wire_bytes`` is what occupies
the link (payload plus protocol headers); ``payload`` is an opaque object
handed to the receiver's protocol handler, so no serialization happens in
the simulator itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import NetworkError

__all__ = ["Frame", "ETHERNET_HEADER_BYTES"]

#: Ethernet + IP overhead used by both stacks when computing wire size
#: (14 B Ethernet + 4 B FCS + 20 B IP; preamble/IFG folded into link rate).
ETHERNET_HEADER_BYTES = 38

_frame_ids = itertools.count(1)


@dataclass(slots=True)
class Frame:
    """One link-level transmission.

    Attributes
    ----------
    src, dst:
        Host names (the fabric's address space).
    protocol:
        Receiver-side demultiplexing key, e.g. ``"tcp"`` or ``"roce"``.
    wire_bytes:
        Total bytes occupying the wire, headers included.
    payload:
        Opaque protocol object delivered to the handler.
    frame_id:
        Monotonic id for deterministic tracing and loss injection.
    trace_ctx:
        Optional :class:`~repro.trace.SpanContext` riding out-of-band
        with the frame.  Never serialized: it does not contribute to
        ``wire_bytes`` and has no effect on link behaviour.
    """

    src: str
    dst: str
    protocol: str
    wire_bytes: int
    payload: Any
    trace_ctx: Any = field(default=None, repr=False, compare=False)
    frame_id: int = field(default_factory=_frame_ids.__next__)

    def __post_init__(self) -> None:
        if self.wire_bytes <= 0:
            raise NetworkError(f"frame must occupy wire ({self.wire_bytes} bytes)")

    def __repr__(self) -> str:
        return (
            f"<Frame #{self.frame_id} {self.src}->{self.dst} "
            f"{self.protocol} {self.wire_bytes}B>"
        )
