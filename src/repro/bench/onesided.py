"""One-sided agreement benchmark: latency win and quantified blast radius.

Two questions, one figure (the paper's Section III trade-off):

1. **How much latency does the Write-based fast path buy?**  The same
   closed-loop workload runs over the one-sided proposal/ack rings
   (``mode="onesided"``) and over ordinary message-passing PBFT
   (``mode="twosided"``); the delta is the fast path's win.

2. **What does it cost in safety, and does the guard pay for itself?**
   A replica armed with :func:`~repro.bft.faults.compromise_rkey` forges
   leader proposals into its peers' rings mid-workload, once with the dynamic
   permission guard armed (``mode="attack-guarded"``) and once with it
   off (``mode="attack-unguarded"``).  The *blast radius* — distinct
   (host, offset) pairs a forged write actually landed on — must be
   zero when guarded and strictly positive when not, and in both modes
   the audit layer must detect every attempt.

All four points are deterministic, so the committed
``BENCH_onesided.json`` is exact; the ``--check`` bands on the latency
percentiles only absorb intentional model changes while blast radius
and detection counts are gated exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.bft import BftCluster, BftConfig, faults
from repro.errors import ReproError
from repro.rubin import RubinConfig
from repro.sim import SummaryStats

__all__ = [
    "ONESIDED_MODES",
    "ONESIDED_DEFAULTS",
    "run_onesided_point",
    "check_onesided_shape",
]

#: The four benchmark modes, in baseline order.
ONESIDED_MODES: Tuple[str, ...] = (
    "onesided",
    "twosided",
    "attack-guarded",
    "attack-unguarded",
)

#: Baseline scenario parameters (recorded in every point so the gate can
#: rerun it exactly).
ONESIDED_DEFAULTS: Dict[str, Any] = {
    "transport": "rubin",
    "payload_bytes": 64,
    "messages": 16,
    "request_gap": 150e-6,
    "attack_at": 1e-3,
}


def _config(mode: str) -> BftConfig:
    return BftConfig(
        batch_delay=50e-6,
        batch_size=1,
        view_change_timeout=200e-3,
        onesided=mode != "twosided",
        onesided_guard=mode != "attack-unguarded",
    )


def run_onesided_point(
    mode: str,
    payload_bytes: int = 64,
    messages: int = 16,
    request_gap: float = 150e-6,
    attack_at: float = 1e-3,
    tracer=None,
    sampler=None,
) -> Dict[str, Any]:
    """One mode of the one-sided figure; returns a JSON-ready point.

    A single client issues ``messages`` requests closed-loop with
    ``request_gap`` between them; in the attack modes ``r3`` forges
    proposals with stolen rkeys from ``attack_at`` on, so the forgeries
    overlap the workload.
    """
    if mode not in ONESIDED_MODES:
        raise ReproError(
            f"unknown onesided mode {mode!r} (have {ONESIDED_MODES})"
        )
    cluster = BftCluster(
        transport="rubin",
        config=_config(mode),
        rubin_config=RubinConfig(
            retry_timeout=1e-3,
            retry_count=3,
            buffer_size=8192,
            num_recv_buffers=8,
            num_send_buffers=8,
            post_batch=4,
        ),
        tracer=tracer,
    )
    cluster.start()
    env = cluster.env
    if sampler is not None:
        sampler.bind(env, cluster.metrics_registry())
        sampler.start()
    attack = None
    if mode.startswith("attack-"):
        attack = faults.compromise_rkey(cluster.replica("r3"), attack_at)

    payload = b"\x5a" * payload_bytes
    latencies_us: List[float] = []

    def load():
        client = cluster.client(0)
        for i in range(messages):
            submitted = env.now
            result = yield client.invoke(b"PUT k%d=" % i + payload)
            if result is None:
                raise ReproError("invocation returned no result")
            latencies_us.append((env.now - submitted) * 1e6)
            yield env.timeout(request_gap)

    proc = env.process(load(), name="onesided.load")
    env.run(until=proc)
    # Let any forgeries still in flight land before scoring.
    cluster.run_for(2e-3)
    if sampler is not None:
        sampler.sample_now()
        sampler.stop()

    audit = cluster.audit
    violations = list(audit.violations) if audit.enabled else []
    landed = set()
    detections = 0
    safety_rules = []
    for violation in violations:
        detail = dict(violation.detail)
        if violation.rule in (
            "rdma.unauthorized-write",
            "rdma.unauthorized-read",
            "rdma.stale-permission-access",
            "bft.onesided-slot-overwrite",
        ):
            detections += 1
            # A denial carries no declared_writer; a *landed* forged
            # write does — those are the corrupted bytes.
            if "declared_writer" in detail:
                landed.add((detail["host"], detail["offset"]))
        else:
            safety_rules.append(violation.rule)

    counters = {"writes": 0, "corrupted_slots": 0, "fallbacks": 0}
    for replica in cluster.replicas.values():
        if replica.onesided is not None:
            for name in counters:
                counters[name] += getattr(replica.onesided, name).value

    return {
        "mode": mode,
        "transport": "rubin",
        "payload_bytes": payload_bytes,
        "messages": messages,
        "request_gap": request_gap,
        "attack_at": attack_at,
        "latency_us": SummaryStats(latencies_us).to_dict(),
        "completed": len(latencies_us),
        "blast_radius": len(landed),
        "detections": detections,
        "forged_attempts": 0 if attack is None else attack.forged_attempts,
        "safety_violations": sorted(set(safety_rules)),
        "onesided_writes": counters["writes"],
        "corrupted_slots": counters["corrupted_slots"],
        "fallbacks": counters["fallbacks"],
    }


def check_onesided_shape(points: List[Dict[str, Any]]) -> List[str]:
    """Assert the figure's qualitative claims; returns human-readable
    facts, raises :class:`ReproError` on any violation."""
    by_mode = {point["mode"]: point for point in points}
    missing = [mode for mode in ONESIDED_MODES if mode not in by_mode]
    if missing:
        raise ReproError(f"onesided figure missing modes: {missing}")
    facts: List[str] = []

    fast = by_mode["onesided"]
    slow = by_mode["twosided"]
    if fast["latency_us"]["p50"] >= slow["latency_us"]["p50"]:
        raise ReproError(
            "one-sided fast path is not faster than message passing: "
            f"p50 {fast['latency_us']['p50']:.1f} us >= "
            f"{slow['latency_us']['p50']:.1f} us"
        )
    facts.append(
        f"one-sided p50 {fast['latency_us']['p50']:.1f} us < two-sided "
        f"p50 {slow['latency_us']['p50']:.1f} us"
    )
    for mode in ("onesided", "twosided"):
        point = by_mode[mode]
        if point["detections"] or point["blast_radius"]:
            raise ReproError(f"benign {mode} run tripped the auditors")

    guarded = by_mode["attack-guarded"]
    if guarded["blast_radius"] != 0:
        raise ReproError(
            "guarded attack landed writes: blast radius "
            f"{guarded['blast_radius']} != 0"
        )
    if not guarded["detections"]:
        raise ReproError("guarded attack produced no detections")
    if guarded["safety_violations"]:
        raise ReproError(
            "guarded attack broke safety: "
            f"{guarded['safety_violations']}"
        )
    if guarded["completed"] != guarded["messages"]:
        raise ReproError(
            "guarded cluster stopped committing under attack: "
            f"{guarded['completed']}/{guarded['messages']}"
        )
    facts.append(
        f"guard on: blast radius 0, {guarded['detections']} denials, "
        f"{guarded['completed']}/{guarded['messages']} committed"
    )

    unguarded = by_mode["attack-unguarded"]
    if unguarded["blast_radius"] < 1:
        raise ReproError(
            "unguarded attack corrupted nothing — the figure's threat "
            "is vacuous"
        )
    if not unguarded["detections"]:
        raise ReproError("unguarded attack evaded the declared-writer audit")
    facts.append(
        f"guard off: blast radius {unguarded['blast_radius']} "
        f"({unguarded['detections']} detections)"
    )
    return facts
