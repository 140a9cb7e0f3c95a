"""The reference RNIC pipelines: the generator loops that ran under
``repro.sim.Drive`` before the device's rx pipeline and the QP's send
pipeline became callback machines, kept so the differential tests can
hold the callback versions to their agenda.

The send loop and its helpers are kept verbatim, as functions of the QP.
The rx loop is kept with one adaptation: ``QueuePair.handle_packet`` is a
plain method now, returning the payload DMA it finishes the packet on
(or None), so the loop waits on that event where it used to ``yield
from`` the handler's generator.  The QP's own callback is subscribed
first, so the packet's tail runs before the loop takes the next one —
where the generator resumed.

:func:`install` swaps a device's or QP's pipeline start for a ``Drive``
over the reference loop, in the same place on the urgent lane.
"""

from repro.errors import RdmaError
from repro.rdma import qp as qp_module
from repro.rdma.transport import PacketType, RocePacket
from repro.rdma.verbs import Opcode, QpState, WcStatus
from repro.sim import Drive, Timeout
from repro.trace import get_tracer


def rx_loop(device):
    """Serialize inbound packet processing (the RNIC's rx pipeline)."""
    while True:
        packet: RocePacket = yield device._rx_queue.get()
        yield Timeout(device.env, device.attrs.packet_process)
        qp = device._qps.get(packet.dst_qp)
        if qp is None:
            # Stray packet for a destroyed QP: drop silently (the
            # peer's retry machinery will eventually error out).
            continue
        landing = qp.handle_packet(packet)
        if landing is not None:
            yield landing


def sq_loop(self):
    attrs = self.device.attrs
    nic = self.device.host.nic
    while self.state is QpState.RTS:
        entry = yield self._sq_store.get()
        if self.state is not QpState.RTS:
            return
        wr = entry.wr
        tracer = get_tracer(self.env)
        span = None
        if tracer.enabled and wr.trace_ctx is not None:
            span = tracer.start_span(
                "qp.send",
                layer="qp",
                parent=wr.trace_ctx,
                track=self.device.host.name,
                wr_id=wr.wr_id,
                opcode=wr.opcode.value,
                nbytes=wr.length,
            )
        yield Timeout(self.env, attrs.wqe_fetch)
        try:
            data = self._gather_payload_check(wr)
        except RdmaError:
            entry.status = WcStatus.LOC_PROT_ERR
            entry.done = True
            if span is not None:
                span.end(error=WcStatus.LOC_PROT_ERR.value)
            self._enter_error()
            return
        if wr.opcode is Opcode.RDMA_READ:
            yield from _issue_read(self, entry)
            if span is not None:
                span.end()
            continue
        if data is None:
            # Gather DMA from host memory (zero-copy: the RNIC reads
            # the registered application buffer directly).  The setup
            # round trip is what inline sends avoid.
            assert wr.sge is not None
            yield Timeout(self.env, attrs.gather_setup)
            yield nic.dma_transfer(wr.sge.length, trace_ctx=wr.trace_ctx)
            mr = wr.sge.mr
            if wr.snapshot is not None:
                data = wr.snapshot
            elif mr.stable:
                data = mr.read_view(wr.sge.offset, wr.sge.length)
            else:
                data = mr.read_bytes(wr.sge.offset, wr.sge.length)
        yield from _emit_message(self, entry, data)
        if span is not None:
            span.end()


def _emit_message(self, entry, data):
    """Packetize one SEND/WRITE message and transmit it."""
    attrs = self.device.attrs
    wr = entry.wr
    mtu = attrs.mtu
    size = len(data)
    if size <= mtu:
        chunks = [data] if size else [b""]
    else:
        view = data if isinstance(data, memoryview) else memoryview(data)
        chunks = [view[i : i + mtu] for i in range(0, size, mtu)]
    is_write = wr.opcode is Opcode.RDMA_WRITE
    # Reserve the whole PSN range up front so a cumulative ACK of a
    # partial prefix can never mark the message complete early.
    first_psn = self._next_psn
    self._next_psn += len(chunks)
    entry.last_psn = first_psn + len(chunks) - 1
    for index, chunk in enumerate(chunks):
        first = index == 0
        last = index == len(chunks) - 1
        if first and last:
            kind = PacketType.WRITE_ONLY if is_write else PacketType.SEND_ONLY
        elif first:
            kind = PacketType.WRITE_FIRST if is_write else PacketType.SEND_FIRST
        elif last:
            kind = PacketType.WRITE_LAST if is_write else PacketType.SEND_LAST
        else:
            kind = PacketType.WRITE_MIDDLE if is_write else PacketType.SEND_MIDDLE
        packet = RocePacket(
            kind=kind,
            src_host=self.device.host.name,
            src_qp=self.qp_num,
            dst_host=self.remote_host,
            dst_qp=self.remote_qp,
            psn=first_psn + index,
            payload=chunk,
            total_length=len(data) if first else 0,
            rkey=wr.remote.rkey if (is_write and first) else None,
            remote_offset=wr.remote.offset if (is_write and first) else 0,
            trace_ctx=wr.trace_ctx,
        )
        yield from _wait_inflight_space(self)
        if self.state is not QpState.RTS:
            return
        yield Timeout(self.env, attrs.packet_process)
        self._unacked.append((packet, self.env.now))
        self._transmit(packet)


def _issue_read(self, entry):
    """Send a READ request and set up response reassembly."""
    wr = entry.wr
    read_id = next(qp_module._read_ids)
    entry.read_id = read_id
    self._reads[read_id] = qp_module._ReadContext(entry)
    packet = RocePacket(
        kind=PacketType.READ_REQUEST,
        src_host=self.device.host.name,
        src_qp=self.qp_num,
        dst_host=self.remote_host,
        dst_qp=self.remote_qp,
        psn=self._next_psn,
        total_length=wr.sge.length,
        rkey=wr.remote.rkey,
        remote_offset=wr.remote.offset,
        read_id=read_id,
        trace_ctx=wr.trace_ctx,
    )
    self._next_psn += 1
    entry.last_psn = packet.psn
    yield from _wait_inflight_space(self)
    if self.state is not QpState.RTS:
        return
    yield Timeout(self.env, self.device.attrs.packet_process)
    self._unacked.append((packet, self.env.now))
    self._transmit(packet)


def _wait_inflight_space(self):
    while len(self._unacked) >= self.caps.max_inflight_packets:
        self._space_event = self.env.event()
        yield self._space_event
        self._space_event = None


def _replace_start(env, start, generator):
    """Put a Drive over ``generator`` where ``start`` waits on the
    urgent lane."""
    urgent = env._urgent
    index = urgent.index(start)
    drive = Drive(env, generator)  # its start goes to the end of the lane
    urgent.pop()
    urgent[index] = drive._advance


def install(monkeypatch):
    """Run every RNIC created from now on with the reference pipelines."""
    from repro.rdma.device import RdmaDevice
    from repro.rdma.qp import QueuePair

    device_init = RdmaDevice.__init__
    connect = QueuePair.connect

    def reference_device_init(self, host, attrs=None):
        device_init(self, host, attrs)
        _replace_start(self.env, self._rx_next, rx_loop(self))

    def reference_connect(self, remote_host, remote_qp_num):
        connect(self, remote_host, remote_qp_num)
        _replace_start(self.env, self._sq_next, sq_loop(self))

    monkeypatch.setattr(RdmaDevice, "__init__", reference_device_init)
    monkeypatch.setattr(QueuePair, "connect", reference_connect)
