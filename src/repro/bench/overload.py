"""Overload benchmark: goodput and shedding under 2x saturation.

Drives a BFT cluster with an open-loop request burst sized at roughly
twice the replicas' admission budget and measures how gracefully the
stack degrades: goodput (accepted requests per second), the shed rate
(Busy replies per submitted request) and the latency tail of requests
that *did* complete, including those that had to back off and retry.

This is the robustness counterpart to the Figure 3/4 panels: instead of
asking "how fast is the happy path", it asks "does the system stay
correct and responsive when offered more load than it admits".  The run
is fully deterministic, so the committed ``BENCH_overload.json`` baseline
is exact and the ``--check`` gate bands only absorb intentional model
changes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.bft import BftCluster, BftConfig
from repro.errors import ReproError
from repro.rubin import RubinConfig
from repro.sim import SummaryStats

__all__ = ["run_overload", "run_burst", "OVERLOAD_DEFAULTS"]

#: Baseline scenario parameters (recorded in every point so the gate can
#: rerun it exactly).
OVERLOAD_DEFAULTS: Dict[str, Any] = {
    "transport": "rubin",
    "payload_bytes": 64,
    "messages": 48,
    "num_clients": 4,
    "admission_budget": 8,
    "view_change_timeout": 200e-3,
}


def run_burst(
    name: str,
    config: BftConfig,
    transport: str,
    payload_bytes: int,
    messages: int,
    num_clients: int,
    rubin_config: Optional[RubinConfig],
    tracer,
    sampler,
) -> Tuple[BftCluster, Dict[str, Any], float]:
    """Submit ``messages`` requests open-loop (all at once) against a
    fresh cluster; return it, the point's common fields (the run's
    parameters, latency distribution, duration and audit violations) and
    the requests completed per modeled second.

    The requests are split evenly across ``num_clients`` clients, each
    one a process named ``<name>.c<client>.<index>``.  ``tracer`` is
    handed to the cluster (every invocation roots a ``bft.request``
    trace); ``sampler`` runs over the cluster's metrics registry for the
    duration of the burst.  Both default off.
    """
    if messages % num_clients:
        raise ReproError("messages must divide evenly across clients")
    cluster = BftCluster(
        transport=transport,
        config=config,
        num_clients=num_clients,
        rubin_config=rubin_config,
        tracer=tracer,
    )
    cluster.start()
    env = cluster.env
    if sampler is not None:
        sampler.bind(env, cluster.metrics_registry())
        sampler.start()

    per_client = messages // num_clients
    payload = b"\x5a" * payload_bytes
    latencies_us: List[float] = []
    pending = []
    start = env.now

    def submit(client, index):
        submitted = env.now
        result = yield client.invoke(b"PUT k%d=" % index + payload)
        if result is None:
            raise ReproError("invocation returned no result")
        latencies_us.append((env.now - submitted) * 1e6)

    for c in range(num_clients):
        client = cluster.client(c)
        for i in range(per_client):
            pending.append(
                env.process(
                    submit(client, c * per_client + i),
                    name=f"{name}.c{c}.{i}",
                )
            )
    env.run(until=env.all_of(pending))
    duration = env.now - start
    if sampler is not None:
        sampler.sample_now()
        sampler.stop()
    violations = len(cluster.audit.violations) if cluster.audit.enabled else 0
    record = {
        "transport": transport,
        "payload_bytes": payload_bytes,
        "messages": messages,
        "num_clients": num_clients,
        "latency_us": SummaryStats(latencies_us).to_dict(),
        "duration_s": duration,
        "audit_violations": violations,
    }
    return cluster, record, messages / duration if duration > 0 else 0.0


def run_overload(
    transport: str = "rubin",
    payload_bytes: int = 64,
    messages: int = 48,
    num_clients: int = 4,
    admission_budget: int = 8,
    view_change_timeout: float = 200e-3,
    rubin_config: Optional[RubinConfig] = None,
    tracer=None,
    sampler=None,
) -> Dict[str, Any]:
    """One overload run; returns a JSON-ready baseline point.

    The open-loop :func:`run_burst` offers far more concurrent work than
    ``admission_budget`` admits per replica — replicas shed the excess
    with ``Busy`` and clients converge via seeded exponential backoff.
    """
    config = BftConfig(
        admission_budget=admission_budget,
        view_change_timeout=view_change_timeout,
    )
    cluster, record, rate = run_burst(
        "overload", config, transport, payload_bytes, messages, num_clients,
        rubin_config, tracer, sampler,
    )
    shed_total = sum(
        replica.shed_requests.value for replica in cluster.replicas.values()
    )
    return {
        **record,
        "admission_budget": admission_budget,
        "view_change_timeout": view_change_timeout,
        "goodput_rps": rate,
        "shed_rate": shed_total / messages,
        "shed_total": shed_total,
        "busy_backoffs": sum(
            client.busy_backoffs for client in cluster.clients.values()
        ),
        "retransmissions": sum(
            client.retransmissions for client in cluster.clients.values()
        ),
    }
