"""Consensus-oriented parallelization throughput benchmark (``--fig cop``).

One sweep point runs an open-loop request burst against a BFT cluster
with ``group_count`` independent ordering pipelines and reports
committed-request throughput plus client-observed latency.  The sweep
holds everything else fixed — transport, payload, batch ceiling, the
adaptive-batching controller — so the only variable is how many
consensus groups shard the sequence space.

The regime is deliberately signature-like: ``handler_cost`` is two
orders of magnitude above the MAC-authenticator default, which makes
protocol-message processing the bottleneck.  A single group serializes
every handler through one pipeline process; ``G`` groups spread the
same message load over ``G`` processes (one core each, CPU permitting),
which is exactly the parallelization the COP design argues for.  The
shape check asserts the headline claim: at four groups the cluster
commits at least twice the single-group request rate without giving up
median latency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.bench.overload import run_burst
from repro.bft import BftConfig
from repro.errors import ReproError
from repro.rubin import RubinConfig

__all__ = [
    "COP_GROUP_COUNTS",
    "run_cop_point",
    "check_cop_shape",
]

#: The default sweep: sequential baseline, then doubling group counts.
COP_GROUP_COUNTS = (1, 2, 4)

#: Signature-regime handler cost (seconds of CPU per protocol message).
#: The MAC default is 0.3us; authenticating with signatures costs tens
#: of microseconds — the regime where ordering CPU dominates and COP's
#: per-group pipelines pay off (paper Section II-C).
SIGNATURE_HANDLER_COST = 50e-6


def run_cop_point(
    group_count: int,
    transport: str = "rubin",
    payload_bytes: int = 64,
    messages: int = 256,
    num_clients: int = 4,
    batch_size: int = 8,
    handler_cost: float = SIGNATURE_HANDLER_COST,
    rubin_config: Optional[RubinConfig] = None,
    tracer=None,
    sampler=None,
) -> Dict[str, Any]:
    """One COP sweep point, an open-loop :func:`run_burst`; returns a
    JSON-ready baseline record.

    ``tracer``/``sampler`` hook the run up to ``repro.obs`` (per-request
    span trees with group-tagged phases, metrics time series); both
    default off.
    """
    config = BftConfig(
        group_count=group_count,
        batch_size=batch_size,
        adaptive_batching=True,
        batch_size_min=1,
        handler_cost=handler_cost,
        view_change_timeout=400e-3,
        checkpoint_interval=8,
        log_window=16,
        merge_fill_interval=200e-6,
    )
    cluster, record, rate = run_burst(
        "cop", config, transport, payload_bytes, messages, num_clients,
        rubin_config, tracer, sampler,
    )
    snapshot = cluster.metrics_registry().snapshot()
    batch_limits = [
        pipeline._batcher.limit
        for replica in cluster.replicas.values()
        for pipeline in replica.group_pipelines()
        if getattr(pipeline, "_batcher", None) is not None
    ]
    return {
        **record,
        "figure_point": "cop",
        "group_count": group_count,
        "batch_size": batch_size,
        "handler_cost": handler_cost,
        "committed_rps": rate,
        "per_group_committed": {
            str(g): snapshot[f"bft.group.{g}.committed"]
            for g in range(group_count)
        },
        "max_batch_limit": max(batch_limits) if batch_limits else 0,
    }


def check_cop_shape(points: Sequence[Dict[str, Any]]) -> List[str]:
    """Assert the sweep reproduces the COP headline claims.

    Returns human-readable facts; raises :class:`ReproError` when the
    shape is wrong.  Requires a G=1 and a G=4 point measured at the
    same batch ceiling.
    """
    by_group = {point["group_count"]: point for point in points}
    if 1 not in by_group or 4 not in by_group:
        raise ReproError("cop sweep needs both G=1 and G=4 points")
    base, parallel = by_group[1], by_group[4]
    if base["batch_size"] != parallel["batch_size"]:
        raise ReproError(
            "cop shape check compares unequal batch ceilings: "
            f"{base['batch_size']} vs {parallel['batch_size']}"
        )
    speedup = parallel["committed_rps"] / base["committed_rps"]
    p50_base = base["latency_us"]["p50"]
    p50_parallel = parallel["latency_us"]["p50"]
    facts = [
        f"G=1 committed {base['committed_rps']:,.0f} req/s "
        f"(p50 {p50_base:,.0f} us)",
        f"G=4 committed {parallel['committed_rps']:,.0f} req/s "
        f"(p50 {p50_parallel:,.0f} us)",
        f"throughput speedup {speedup:.2f}x at equal batch ceiling",
    ]
    if speedup < 2.0:
        raise ReproError(
            f"G=4 speedup {speedup:.2f}x is below the required 2x"
        )
    if p50_parallel > 1.25 * p50_base:
        raise ReproError(
            f"G=4 median latency {p50_parallel:,.0f} us exceeds "
            f"1.25x the G=1 median {p50_base:,.0f} us"
        )
    for point in points:
        if point["audit_violations"]:
            raise ReproError(
                f"G={point['group_count']} run recorded "
                f"{point['audit_violations']} audit violations"
            )
    return facts
