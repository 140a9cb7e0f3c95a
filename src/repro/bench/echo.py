"""Figure 3 micro-benchmark workloads.

"A simple client-server echo application between two machines... We
compare the throughput and the latency of TCP, RDMA Read/Write, and RDMA
Send/Receive with our implementation of an RDMA channel including the
optimizations" (paper, Section V).

Four workloads, one per curve:

* :func:`tcp_echo` — blocking sockets over the simulated TCP stack;
* :func:`rdma_send_recv_echo` — raw two-sided verbs, one signaled CQE per
  message, no intermediate copies (the application consumes the
  registered receive buffer in place);
* :func:`rdma_read_write_echo` — one-sided RDMA WRITE: "only the client
  writes messages to the server without waiting for a response", so one
  message = one write completion;
* :func:`rubin_channel_echo` — the RUBIN channel with all Section-IV
  optimizations (inline sends, selective signaling, zero-copy send,
  batched receive posting) and its receive-side copy.

Raw-verbs workloads charge the host-software costs (posting, doorbells,
completion reaping) explicitly, since the verbs layer models only the
RNIC; the RUBIN channel charges its own costs internally.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.calibration import (
    TESTBED_DEVICE_ATTRS,
    Testbed,
    build_testbed,
    testbed_registry,
)
from repro.bench.results import EchoResult
from repro.errors import ReproError
from repro.nio import ByteBuffer
from repro.rdma import (
    Access,
    ConnectionManager,
    Opcode,
    QpCapabilities,
    RecvWorkRequest,
    SendWorkRequest,
    Sge,
    alloc_registered,
)
from repro.rubin import RubinChannel, RubinConfig, RubinServerChannel
from repro.sim import grid_wait, inline

__all__ = [
    "tcp_echo",
    "rdma_send_recv_echo",
    "rdma_read_write_echo",
    "rubin_channel_echo",
    "run_echo",
]

#: Port used by the echo servers.
ECHO_PORT = 7777


def run_echo(
    transport: str,
    payload_bytes: int,
    messages: int,
    tracer=None,
    sampler=None,
) -> EchoResult:
    """Dispatch one echo run by transport name.

    ``tracer``/``sampler`` (observability hooks, see :mod:`repro.obs`)
    are only wired through the RUBIN channel workload — the raw-verbs
    and TCP baselines are comparison points, not the profiled system.
    """
    workloads = {
        "tcp": tcp_echo,
        "rdma_send_recv": rdma_send_recv_echo,
        "rdma_read_write": rdma_read_write_echo,
        "rdma_channel": rubin_channel_echo,
    }
    workload = workloads.get(transport)
    if workload is None:
        raise ReproError(
            f"unknown transport {transport!r} (have {sorted(workloads)})"
        )
    if transport == "rdma_channel":
        return workload(
            payload_bytes, messages, tracer=tracer, sampler=sampler
        )
    if tracer is not None or sampler is not None:
        raise ReproError(
            f"tracer/sampler hooks are only supported on rdma_channel, "
            f"not {transport!r}"
        )
    return workload(payload_bytes, messages)


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


def tcp_echo(payload_bytes: int, messages: int) -> EchoResult:
    """Sequential request-response echo over the TCP stack.

    Models the paper's plain Java socket echo: application data lives in
    heap arrays, so every send pays one extra heap-to-direct-buffer copy
    inside the JDK before the kernel copy (the DiSNI/RDMA paths use
    direct buffers end-to-end and skip this).
    """
    bed = build_testbed()
    env = bed.env
    result = EchoResult("tcp", payload_bytes, messages)
    payload = b"\xa5" * payload_bytes

    listener = bed.server.stack("tcp").listen(ECHO_PORT)

    def server(env):
        connection = yield listener.accept()
        for _ in range(messages):
            data = yield connection.receive(min_bytes=payload_bytes)
            yield bed.server.cpu.copy(len(data))  # heap -> direct buffer
            yield connection.send(data)

    def client(env):
        connection = bed.client.stack("tcp").connect("server", ECHO_PORT)
        yield connection.established
        start = env.now
        for _ in range(messages):
            t0 = env.now
            yield bed.client.cpu.copy(payload_bytes)  # heap -> direct buffer
            yield connection.send(payload)
            received = 0
            while received < payload_bytes:
                data = yield connection.receive(
                    max_bytes=payload_bytes - received
                )
                received += len(data)
            result.latencies_us.append((env.now - t0) * 1e6)
        result.duration_s = env.now - start

    env.process(server(env), name="echo.server")
    done = env.process(client(env), name="echo.client")
    env.run(until=done)
    result.messages = len(result.latencies_us)
    result.sim_events = env._eid
    return result


# ---------------------------------------------------------------------------
# raw verbs rigging
# ---------------------------------------------------------------------------


class _VerbsRig:
    """Connected QP pair on the calibrated testbed, with cost charging."""

    def __init__(self, payload_bytes: int, caps: Optional[QpCapabilities] = None):
        self.bed = build_testbed()
        self.env = self.bed.env
        client_dev = self.bed.client.stack("rdma")
        server_dev = self.bed.server.stack("rdma")
        self.client_pd = client_dev.alloc_pd()
        self.server_pd = server_dev.alloc_pd()
        self.client_send_cq = client_dev.create_cq(name="c.send")
        self.client_recv_cq = client_dev.create_cq(name="c.recv")
        self.server_send_cq = server_dev.create_cq(name="s.send")
        self.server_recv_cq = server_dev.create_cq(name="s.recv")
        caps = caps or QpCapabilities(max_send_wr=256, max_recv_wr=256)
        self.client_qp = client_dev.create_qp(
            self.client_pd, self.client_send_cq, self.client_recv_cq, caps
        )
        self.server_qp = server_dev.create_qp(
            self.server_pd, self.server_send_cq, self.server_recv_cq, caps
        )
        self.client_qp.connect("server", self.server_qp.qp_num)
        self.server_qp.connect("client", self.client_qp.qp_num)
        self.client_dev = client_dev
        self.server_dev = server_dev

    def charge_post(self, host, count: int = 1):
        """CPU cost of posting ``count`` WRs with one doorbell."""
        costs = host.cpu.costs
        return host.cpu.execute(costs.post_wr * count + costs.doorbell)

    def charge_poll(self, host, count: int = 1):
        """CPU cost of reaping ``count`` CQEs."""
        return host.cpu.execute(host.cpu.costs.cqe_poll * count)

    def charge_blocking_wake(self, host):
        """Cost of waking from a blocking completion-channel wait.

        The *unoptimized* verbs pattern (DiSNI default endpoints) blocks
        on the completion channel: the RNIC raises an interrupt, the
        kernel wakes the thread, and the ``get_cq_event`` read is a
        syscall.  This per-notification overhead is exactly what RUBIN's
        selective signaling and user-space hybrid event queue avoid.
        """
        costs = host.cpu.costs
        return host.cpu.execute(
            costs.interrupt + costs.context_switch + costs.syscall
        )

    def wait_cqe(self, cq):
        """Event for the next completion on ``cq`` (busy-poll model)."""
        channel = cq.channel
        if channel is None:
            from repro.rdma import CompletionChannel

            channel = CompletionChannel(self.env)
            cq.channel = channel
        cq.request_notify()
        return channel.get_cq_event()


def rdma_send_recv_echo(payload_bytes: int, messages: int) -> EchoResult:
    """Two-sided echo: every message is a SEND consumed by a posted RECV.

    No intermediate copies — applications use the registered buffers in
    place — and every send is signaled (no selective signaling): this is
    the plain Send/Receive baseline the RUBIN channel is compared to.
    """
    rig = _VerbsRig(payload_bytes)
    env = rig.env
    result = EchoResult("rdma_send_recv", payload_bytes, messages)

    size = max(payload_bytes, 1)
    client_send = rig.client_dev.reg_mr(rig.client_pd, alloc_registered(size))
    client_recv = rig.client_dev.reg_mr(rig.client_pd, alloc_registered(size))
    server_send = rig.server_dev.reg_mr(rig.server_pd, alloc_registered(size))
    server_recv = rig.server_dev.reg_mr(rig.server_pd, alloc_registered(size))
    client_send.buffer[:payload_bytes] = b"\xa5" * payload_bytes

    def server(env):
        host = rig.bed.server
        for i in range(messages):
            yield rig.charge_post(host)
            rig.server_qp.post_recv(RecvWorkRequest(wr_id=i, sge=Sge(server_recv)))
            yield rig.wait_cqe(rig.server_recv_cq)
            # Blocking completion-channel wait: interrupt + wake + syscall.
            yield rig.charge_blocking_wake(host)
            yield rig.charge_poll(host)
            wc = rig.server_recv_cq.poll(1)[0]
            assert wc.ok
            # Echo straight out of the receive buffer (zero copy).
            server_send.buffer[:payload_bytes] = server_recv.buffer[:payload_bytes]
            yield rig.charge_post(host)
            rig.server_qp.post_send(
                SendWorkRequest(
                    wr_id=1000 + i,
                    opcode=Opcode.SEND,
                    sge=Sge(server_send, 0, payload_bytes),
                )
            )
            # Send completions (signaled on every message — no selective
            # signaling in the baseline) are reaped lazily when present.
            if len(rig.server_send_cq):
                yield rig.charge_poll(host)
                rig.server_send_cq.poll(1)

    def client(env):
        host = rig.bed.client
        start = env.now
        for i in range(messages):
            t0 = env.now
            yield rig.charge_post(host)
            rig.client_qp.post_recv(RecvWorkRequest(wr_id=i, sge=Sge(client_recv)))
            yield rig.charge_post(host)
            rig.client_qp.post_send(
                SendWorkRequest(
                    wr_id=2000 + i,
                    opcode=Opcode.SEND,
                    sge=Sge(client_send, 0, payload_bytes),
                )
            )
            yield rig.wait_cqe(rig.client_recv_cq)
            yield rig.charge_blocking_wake(host)
            yield rig.charge_poll(host)
            wc = rig.client_recv_cq.poll(1)[0]
            assert wc.ok
            result.latencies_us.append((env.now - t0) * 1e6)
            # Drain the per-message send CQE (lazy, non-blocking).
            if len(rig.client_send_cq):
                yield rig.charge_poll(host)
                rig.client_send_cq.poll(1)
        result.duration_s = env.now - start

    env.process(server(env), name="sr.server")
    done = env.process(client(env), name="sr.client")
    env.run(until=done)
    result.messages = len(result.latencies_us)
    result.sim_events = env._eid
    return result


def rdma_read_write_echo(payload_bytes: int, messages: int) -> EchoResult:
    """One-sided workload: the client WRITEs each message into the
    server's memory; the server CPU is never involved.  Latency is the
    time from posting the write to its completion (transport ACK)."""
    rig = _VerbsRig(payload_bytes)
    env = rig.env
    result = EchoResult("rdma_read_write", payload_bytes, messages)

    size = max(payload_bytes, 1)
    client_src = rig.client_dev.reg_mr(rig.client_pd, alloc_registered(size))
    client_src.buffer[:payload_bytes] = b"\xa5" * payload_bytes
    server_dst = rig.server_dev.reg_mr(
        rig.server_pd,
        alloc_registered(size),
        Access.LOCAL_WRITE | Access.REMOTE_WRITE,
    )

    def client(env):
        host = rig.bed.client
        start = env.now
        for i in range(messages):
            t0 = env.now
            yield rig.charge_post(host)
            rig.client_qp.post_send(
                SendWorkRequest(
                    wr_id=i,
                    opcode=Opcode.RDMA_WRITE,
                    sge=Sge(client_src, 0, payload_bytes),
                    remote=server_dst.remote_address(),
                )
            )
            yield rig.wait_cqe(rig.client_send_cq)
            # Blocking wait for the write completion (the client must know
            # the buffer is reusable before overwriting it).
            yield rig.charge_blocking_wake(host)
            yield rig.charge_poll(host)
            wc = rig.client_send_cq.poll(1)[0]
            assert wc.ok
            result.latencies_us.append((env.now - t0) * 1e6)
        result.duration_s = env.now - start

    done = env.process(client(env), name="rw.client")
    env.run(until=done)
    result.messages = len(result.latencies_us)
    result.sim_events = env._eid
    return result


def _read_exactly(channel, host, buffer, nbytes):
    """Read a whole message, charging one event-queue wake per block.

    The channel application blocks on RUBIN's user-space hybrid event
    queue — a thread wake-up, but no interrupt and no syscall (the
    notification arrived via the event manager, and selective
    signaling keeps send completions off this path entirely).
    """
    env = channel.env
    got = 0
    blocked = False
    while got < nbytes:
        n = yield from inline(env, channel.read_gen(buffer), "rubin.read")
        if n is None:
            raise ReproError("channel closed mid-message")
        if n == 0:
            blocked = True
            yield env.timeout(0.2e-6)  # wait for the event notification
            # While nothing has arrived a read would drain an empty CQ
            # and return 0, so only the reader's place on the 0.2 us poll
            # grid matters — and that costs no events (DESIGN §11).
            yield from grid_wait(
                env,
                0.2e-6,
                lambda: channel.receivable or channel.closed,
                channel.when_readable,
            )
        else:
            if blocked:
                yield host.cpu.execute(host.cpu.costs.context_switch)
                blocked = False
            got += n
    return got


def _write_all(channel, buffer, trace_ctx=None):
    """Write one message from a *reused* application buffer.

    Reuse is the point of the zero-copy send path: the buffer is
    registered on first use and every later write gathers from it
    directly (paper, Section IV).
    """
    env = channel.env
    while buffer.has_remaining():
        n = yield from inline(
            env, channel.write_gen(buffer, trace_ctx=trace_ctx), "rubin.write"
        )
        if n == 0:
            yield env.timeout(0.2e-6)


def rubin_channel_echo(
    payload_bytes: int,
    messages: int,
    config: Optional[RubinConfig] = None,
    tracer=None,
    sampler=None,
) -> EchoResult:
    """Echo over the RUBIN channel with the Section-IV optimizations.

    With ``tracer`` each message becomes one causal trace (root span
    ``echo.request``) whose context rides the channel writes in both
    directions; with ``sampler`` (a bound-free
    :class:`~repro.obs.MetricsSampler`) the testbed's CPU/NIC/link
    probes are sampled on the sim clock for the duration of the run.
    Both default off and leave the schedule untouched.
    """
    bed = build_testbed()
    env = bed.env
    result = EchoResult("rdma_channel", payload_bytes, messages)
    if config is None:
        config = RubinConfig()
    if tracer is not None:
        from repro.trace import install_tracer

        install_tracer(env, tracer)
    if sampler is not None:
        sampler.bind(env, testbed_registry(bed))

    client_cm = ConnectionManager(bed.client.stack("rdma"))
    server_cm = ConnectionManager(bed.server.stack("rdma"))
    server_chan = RubinServerChannel(
        bed.server.stack("rdma"), server_cm, ECHO_PORT, config
    )
    client_chan = RubinChannel.connect(
        bed.client.stack("rdma"), client_cm, "server", ECHO_PORT, config
    )

    def server(env):
        host = bed.server
        while not server_chan.connect_pending:
            yield env.timeout(1e-6)
        accepted = server_chan.accept(config)
        while not accepted.established:
            yield env.timeout(1e-6)
        inbuf = ByteBuffer.allocate(max(payload_bytes, 1))
        for _ in range(messages):
            inbuf.clear()
            yield from _read_exactly(accepted, host, inbuf, payload_bytes)
            # Echo straight from the same application buffer: it was
            # registered on the first write and reused ever since.
            inbuf.flip()
            yield from _write_all(
                accepted, inbuf, trace_ctx=accepted.last_read_trace_ctx
            )

    def client(env):
        host = bed.client
        while not client_chan.established:
            yield env.timeout(1e-6)
        if sampler is not None:
            sampler.start()
        outbuf = ByteBuffer.allocate(max(payload_bytes, 1))
        outbuf.put(b"\xa5" * payload_bytes)
        scratch = ByteBuffer.allocate(max(payload_bytes, 1))
        start = env.now
        for i in range(messages):
            t0 = env.now
            root = None
            if tracer is not None and tracer.enabled:
                root = tracer.start_trace(
                    "echo.request", layer="client", track="client", msg=i
                )
            outbuf.rewind()
            yield from _write_all(
                client_chan, outbuf,
                trace_ctx=root.context if root is not None else None,
            )
            scratch.clear()
            yield from _read_exactly(client_chan, host, scratch, payload_bytes)
            result.latencies_us.append((env.now - t0) * 1e6)
            if root is not None:
                root.end()
        result.duration_s = env.now - start
        if sampler is not None:
            sampler.sample_now()
            sampler.stop()

    env.process(server(env), name="rubin.server")
    done = env.process(client(env), name="rubin.client")
    env.run(until=done)
    result.messages = len(result.latencies_us)
    result.sim_events = env._eid
    return result
