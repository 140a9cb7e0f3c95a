"""Figure 4 workload: echo through the Reptor communication stack.

"We also evaluate the performance of the RUBIN selector compared to the
Java NIO selector with an echo server using the Reptor communication
stack...  For both protocols, the window size and batching was set to 30
and 10 messages, respectively" (paper, Section V).

Both sides run the full stack: selector-driven event loop, length-prefixed
framing, HMAC authentication, write batching (10) and a 30-message flow
window.  The client keeps the window full (pipelined echo), so throughput
and latency relate by Little's law — exactly the regime the paper's
Figure 4 numbers describe.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.calibration import Testbed, build_testbed, testbed_registry
from repro.bench.results import EchoResult
from repro.crypto import KeyStore
from repro.errors import ReproError
from repro.reptor import ReptorConfig, ReptorEndpoint
from repro.rubin import RubinConfig

__all__ = ["reptor_echo", "FIG4_WINDOW", "FIG4_BATCH"]

#: The paper's Figure 4 parameters.
FIG4_WINDOW = 30
FIG4_BATCH = 10

ECHO_PORT = 7878


def reptor_echo(
    transport: str,
    payload_bytes: int,
    messages: int,
    window: int = FIG4_WINDOW,
    batch: int = FIG4_BATCH,
    authenticate: bool = True,
    rubin_config: Optional[RubinConfig] = None,
    tracer=None,
    sampler=None,
) -> EchoResult:
    """One Figure-4 run: pipelined echo over the Reptor stack.

    ``transport`` is ``"nio"`` (the Java NIO selector baseline) or
    ``"rubin"``.  Latency is measured per message from submission to the
    matching reply; throughput is completed echoes per second.

    ``tracer`` roots one ``echo.request`` trace per message (the context
    rides ``connection.send`` through framing, signing, the channel and
    the selector); ``sampler`` records the testbed's probe time series
    for the run.  Both default off with zero schedule impact.
    """
    if transport not in ("nio", "rubin"):
        raise ReproError(f"transport must be 'nio' or 'rubin', not {transport!r}")
    bed = build_testbed()
    env = bed.env
    label = "rubin" if transport == "rubin" else "nio_tcp"
    result = EchoResult(label, payload_bytes, messages)
    if tracer is not None:
        from repro.trace import install_tracer

        install_tracer(env, tracer)
    if sampler is not None:
        sampler.bind(env, testbed_registry(bed))

    config = ReptorConfig(
        window=window,
        batch_size=batch,
        authenticate=authenticate,
        max_message=max(payload_bytes, 1024),
        read_buffer=max(128 * 1024, payload_bytes + 64),
    )
    if rubin_config is None:
        rubin_config = RubinConfig(
            buffer_size=max(128 * 1024, payload_bytes + 1024)
        )
    keystore = KeyStore()
    server = ReptorEndpoint(
        bed.server, transport, config=config, keystore=keystore,
        rubin_config=rubin_config,
    )
    client = ReptorEndpoint(
        bed.client, transport, config=config, keystore=keystore,
        rubin_config=rubin_config,
    )
    server.listen(ECHO_PORT)

    def echo_server(connection):
        def loop(env):
            for _ in range(messages):
                message = yield connection.receive()
                # Attribute the reply path to the most recently read
                # frame's trace (exact under rubin; nio has no ctx).
                yield connection.send(
                    message, trace_ctx=connection.channel.last_read_trace_ctx
                )

        env.process(loop(env), name="fig4.server")

    server.on_connection(echo_server)

    payload = b"\xa5" * payload_bytes
    submit_times: dict[int, float] = {}
    roots: dict[int, object] = {}

    def client_proc(env):
        connection = yield client.connect("server", ECHO_PORT)
        if sampler is not None:
            sampler.start()
        start = env.now

        def pump(env):
            for i in range(messages):
                if tracer is not None and tracer.enabled:
                    roots[i] = tracer.start_trace(
                        "echo.request", layer="client", track="client", msg=i
                    )
                ctx = roots[i].context if i in roots else None
                yield connection.send(payload, trace_ctx=ctx)
                # Latency is measured from *window admission* (Reptor's
                # send() returning) to the reply, so the figure reflects
                # the stack's service time rather than the unbounded
                # client-side submission queue.
                submit_times[i] = env.now

        env.process(pump(env), name="fig4.pump")
        for i in range(messages):
            yield connection.receive()
            result.latencies_us.append((env.now - submit_times[i]) * 1e6)
            if i in roots:
                roots[i].end()
        result.duration_s = env.now - start
        if sampler is not None:
            sampler.sample_now()
            sampler.stop()

    return result.finish(env, env.process(client_proc(env), name="fig4.client"))
