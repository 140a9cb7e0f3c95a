"""The RNIC: device attributes, object factories and the packet engine.

One :class:`RdmaDevice` per host.  It owns the verbs object tables (PDs,
MRs by rkey, QPs by number), demultiplexes arriving RoCE packets to queue
pairs, and models the NIC's processing pipeline.  Crucially, *none* of the
data path consumes host CPU — the kernel-bypass property the paper builds
on.  Host CPU is only charged where software really runs: posting WRs,
ringing doorbells and reaping completions (see
:class:`repro.net.cpu.CpuCosts`), which the RUBIN layer accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import RdmaError
from repro.net.frame import Frame
from repro.rdma.cq import CompletionChannel, CompletionQueue
from repro.rdma.mr import MemoryRegion, ProtectionDomain
from repro.rdma.qp import QpCapabilities, QueuePair
from repro.rdma.transport import RocePacket
from repro.rdma.verbs import DEFAULT_MTU, Access
from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.host import Host
    from repro.sim import Event

__all__ = ["RdmaDevice", "DeviceAttributes"]


@dataclass(frozen=True)
class DeviceAttributes:
    """RNIC hardware attributes and pipeline costs.

    ``max_post_batch`` is the device limit the paper refers to when it
    posts requests "in batches of the maximum number of requests supported
    by the device".
    """

    mtu: int = DEFAULT_MTU
    max_inline: int = 256
    max_qp_wr: int = 4096
    max_cq_entries: int = 65536
    max_post_batch: int = 64
    wqe_fetch: float = 0.3e-6
    packet_process: float = 0.05e-6
    #: Extra PCIe round trip for the RNIC to fetch a non-inline payload
    #: from host memory (inline sends carry the payload in the WQE and
    #: skip it — the latency win of inlining).
    gather_setup: float = 0.4e-6
    mr_register_base: float = 1.5e-6
    mr_register_per_page: float = 0.08e-6
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.mtu < 256:
            raise RdmaError(f"mtu {self.mtu} is unreasonably small")
        if self.max_post_batch < 1:
            raise RdmaError("max_post_batch must be >= 1")


class RdmaDevice:
    """An RDMA-capable NIC (modeled after the testbed's Mellanox MT27520)."""

    PROTOCOL = "roce"

    def __init__(self, host: "Host", attrs: Optional[DeviceAttributes] = None):
        self.host = host
        self.env = host.env
        self.attrs = attrs if attrs is not None else DeviceAttributes()
        self.name = f"{host.name}.rnic"
        self._qps: Dict[int, QueuePair] = {}
        self._mrs: Dict[int, MemoryRegion] = {}
        #: Tombstones for every rkey this device ever deregistered.  Keys
        #: are allocated from a process-wide monotonic counter and never
        #: recycled, so a late one-sided WR that quotes a retired rkey is
        #: classified as *stale* (REM_ACCESS_ERR) rather than aliasing a
        #: recycled region — the STag-reuse hazard of the paper's §III-C.
        self._retired_rkeys: set = set()
        self._rx_queue: Store = Store(self.env)
        host.install("rdma", self)
        host.nic.register_protocol(self.PROTOCOL, self._on_frame)
        # The rx pipeline starts where the generator loop it replaces
        # started: on the urgent lane.
        self.env._urgent.append(self._rx_next)

    # -- verbs object factories ---------------------------------------------

    def alloc_pd(self) -> ProtectionDomain:
        """Allocate a protection domain."""
        return ProtectionDomain(self)

    def reg_mr(
        self,
        pd: ProtectionDomain,
        buffer: bytearray | memoryview,
        access: Access = Access.LOCAL_WRITE,
    ) -> MemoryRegion:
        """Register ``buffer`` for RDMA (no simulated time; see
        :meth:`reg_mr_timed` for the cost-charging variant)."""
        if pd.device is not self:
            raise RdmaError(f"{self.name}: PD belongs to another device")
        mr = MemoryRegion(pd, buffer, access)
        if mr.rkey in self._mrs or mr.rkey in self._retired_rkeys:
            raise RdmaError(
                f"{self.name}: rkey {mr.rkey:#x} reused — key allocation "
                "must be monotonic"
            )
        self._mrs[mr.rkey] = mr
        return mr

    def reg_mr_timed(
        self,
        pd: ProtectionDomain,
        buffer: bytearray | memoryview,
        access: Access = Access.LOCAL_WRITE,
    ) -> "Event":
        """Like :meth:`reg_mr` but charges the (expensive) pin+map cost.

        Registration cost is why RUBIN pre-registers reusable buffer pools
        instead of registering per message; the ablation benchmark
        quantifies the difference.  Event value is the memory region.
        """

        def register():
            pages = max(1, -(-len(buffer) // self.attrs.page_size))
            cost = (
                self.host.cpu.costs.syscall
                + self.attrs.mr_register_base
                + pages * self.attrs.mr_register_per_page
            )
            yield self.host.cpu.execute(cost)
            return self.reg_mr(pd, buffer, access)

        return self.env.process(register(), name=f"{self.name}.reg_mr")

    def dereg_mr(self, mr: MemoryRegion) -> None:
        """Deregister (invalidate) a memory region.

        The rkey is retired permanently: it can never name another region
        on this device, and :meth:`is_retired_rkey` lets the QP layer
        classify late one-sided WRs against it as stale accesses.
        """
        self._mrs.pop(mr.rkey, None)
        self._retired_rkeys.add(mr.rkey)
        mr.invalidate()

    def find_mr(self, rkey: Optional[int]) -> Optional[MemoryRegion]:
        """RNIC-side rkey lookup for one-sided operations."""
        if rkey is None:
            return None
        return self._mrs.get(rkey)

    def is_retired_rkey(self, rkey: Optional[int]) -> bool:
        """True when ``rkey`` once named a region that was deregistered."""
        return rkey is not None and rkey in self._retired_rkeys

    def create_cq(
        self,
        capacity: Optional[int] = None,
        channel: Optional[CompletionChannel] = None,
        name: str = "",
    ) -> CompletionQueue:
        """Create a completion queue (optionally bound to a channel)."""
        capacity = capacity if capacity is not None else self.attrs.max_cq_entries
        if capacity > self.attrs.max_cq_entries:
            raise RdmaError(
                f"{self.name}: CQ capacity {capacity} exceeds device limit "
                f"{self.attrs.max_cq_entries}"
            )
        return CompletionQueue(self.env, capacity, channel, name=name)

    def create_comp_channel(self) -> CompletionChannel:
        """Create a completion notification channel."""
        return CompletionChannel(self.env)

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        caps: Optional[QpCapabilities] = None,
    ) -> QueuePair:
        """Create a reliable-connection queue pair."""
        caps = caps if caps is not None else QpCapabilities()
        if caps.max_send_wr > self.attrs.max_qp_wr:
            raise RdmaError(
                f"{self.name}: max_send_wr {caps.max_send_wr} exceeds device "
                f"limit {self.attrs.max_qp_wr}"
            )
        if caps.max_inline > self.attrs.max_inline:
            raise RdmaError(
                f"{self.name}: max_inline {caps.max_inline} exceeds device "
                f"limit {self.attrs.max_inline}"
            )
        return QueuePair(self, pd, send_cq, recv_cq, caps)

    def _register_qp(self, qp: QueuePair) -> None:
        self._qps[qp.qp_num] = qp

    def _unregister_qp(self, qp: QueuePair) -> None:
        self._qps.pop(qp.qp_num, None)

    def destroy_qp(self, qp: QueuePair) -> None:
        """Destroy a queue pair: flush it and remove it from the QP table.

        Packets still in flight toward the old QP number are dropped by
        the rx pipeline, so a replacement QP on the same logical
        connection never sees stale traffic.
        """
        if qp.device is not self:
            raise RdmaError(f"{self.name}: QP belongs to another device")
        qp.destroy()

    def qp(self, qp_num: int) -> QueuePair:
        """Look up a queue pair by number."""
        try:
            return self._qps[qp_num]
        except KeyError:
            raise RdmaError(f"{self.name}: no QP {qp_num}") from None

    # -- packet engine -------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        # The private tail of a link arrival: the arrival's bare entry
        # calls Link._deliver, which ends with this host's receiver,
        # Nic._on_frame returns what its handler returns, and this is all
        # the handler does — so a parked rx pipeline takes the packet in
        # place (rule 7).
        self._rx_queue.post_tail(frame.payload)

    # The rx pipeline serializes inbound packet processing.  It is a
    # callback machine — wait for a packet, charge its processing, hand
    # it to its QP, wait for the QP's DMA if there is one — that arms the
    # entries the generator loop it replaces waited on, in the same
    # order.  The pipeline is the only subscriber of its queue hand-over
    # and of its charge, so both are bare entries (repro.sim.core).

    def _rx_next(self, _event: Optional["Event"] = None) -> None:
        """Wait for the next inbound packet."""
        self._rx_queue.get_call(self._rx_charge)

    def _rx_charge(self, packet: RocePacket) -> None:
        """Charge the packet's processing on the pipeline."""
        env = self.env
        env._eid += 1
        done = env._now + self.attrs.packet_process
        _heappush(env._far, (done, 1, env._eid, None, self._rx_process, packet))

    def _rx_process(self, packet: RocePacket) -> None:
        """Hand the packet to its QP; go on once the QP is done with it."""
        qp = self._qps.get(packet.dst_qp)
        # A stray packet for a destroyed QP is dropped silently (the
        # peer's retry machinery will eventually error out).
        if qp is not None:
            landing = qp.handle_packet(packet)
            if landing is not None:
                landing.callbacks.append(self._rx_next)
                return
        self._rx_next()

    def __repr__(self) -> str:
        return f"<RdmaDevice {self.name} qps={len(self._qps)}>"
