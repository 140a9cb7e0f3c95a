"""The four workloads and their seeded inputs.

Runs in the parent process and imports nothing from ``repro``: the
program under test receives only the inputs generated here.  Op counts
are fixed (never durations) so every modeled number is exact per
``(code, seed)``; why each workload exists is recorded once, in
``BENCHMARK.json`` (one line) and ``perfbench/README.md`` (in full).
"""

from __future__ import annotations

import random
from typing import Any, Dict

__all__ = ["WORKLOADS", "make_inputs"]

#: Modeled deadline of every measured phase.  The longest workload needs
#: ~0.13 modeled seconds; a run still going at 1.0 s is wedged, and its
#: unfinished ops count as failed.
MODELED_DEADLINE_S = 1.0

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # Closed loop: each client submits its next PUT when the previous
    # one has f+1 matching replies.
    "pbft_rubin": {
        "kind": "pbft",
        "transport": "rubin",
        "clients": 4,
        "ops": 1200,
        "bft_config": {"batch_size": 1, "batch_delay": 0.0},
    },
    "pbft_nio": {
        "kind": "pbft",
        "transport": "nio",
        "clients": 4,
        "ops": 1600,
        "bft_config": {"batch_size": 1, "batch_delay": 0.0},
    },
    # Closed loop, one client: Fig-3's RDMA-channel echo above the
    # 16 KB buffer-copy threshold.
    "echo_rdma_bulk": {
        "kind": "echo",
        "messages": 1000,
        "payload_bytes": 32 * 1024,
    },
    # Open loop: ops fall due on a fixed schedule whatever the cluster
    # does, and are timed from their due time, so the outage's queueing
    # is counted.  The dispatcher keeps one request per client (PBFT's
    # client contract; see README "Findings" for what happens otherwise).
    "pbft_sched_crash": {
        "kind": "pbft",
        "transport": "rubin",
        "clients": 8,
        "ops": 2000,
        "bft_config": {"batch_size": 10, "batch_delay": 50e-6},
        "rubin_config": {"retry_timeout": 1e-3, "retry_count": 3},
        "faulty_fabric": True,
        "rate_per_s": 20000.0,
        "crash_replica": "r0",
        # The leader dies 30 % into the schedule: +30 ms at full scale.
        "crash_at_fraction": 0.3,
    },
}

#: A PUT is 256 B on average.  The seed spreads sizes a little so that
#: no two seeds share a modeled-latency vector.
_OP_BYTES = (224, 288)
#: Same idea for the echo: 32 KiB +- 128 B moves latency by < 0.4 %.
_ECHO_JITTER_BYTES = 128
#: Crash-time jitter.  Kept well under the 1 ms the issue allows: a
#: whole millisecond would move ``sim_p50_us`` by more than its bound.
_CRASH_JITTER_S = 0.25e-3


def _put(rng: random.Random, seed: int, index: int) -> bytes:
    """One ``PUT key=value`` with a unique key and a seeded hex value."""
    head = f"PUT s{seed}k{index:05d}="
    digits = rng.randint(*_OP_BYTES) - len(head)
    return (head + "%0*x" % (digits, rng.getrandbits(4 * digits))).encode()


def make_inputs(name: str, seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Everything a worker needs to run ``name``, as picklable data.

    ``scale`` multiplies op counts, for smoke runs only; numbers from a
    scaled run are not comparable with anything.
    """
    inputs = dict(WORKLOADS[name])
    inputs["name"] = name
    inputs["modeled_deadline_s"] = MODELED_DEADLINE_S
    rng = random.Random(f"perfbench:{name}:{seed}")
    if inputs["kind"] == "echo":
        inputs["messages"] = max(1, round(inputs["messages"] * scale))
        inputs["payload_bytes"] += rng.randint(
            -_ECHO_JITTER_BYTES, _ECHO_JITTER_BYTES
        )
        return inputs
    clients = inputs["clients"]
    count = max(clients, round(inputs["ops"] * scale))
    inputs["ops"] = [_put(rng, seed, index) for index in range(count)]
    # Closed loop: which client submits each op, in op order.  Open
    # loop: the order in which idle clients are first handed work.
    client_of = [index % clients for index in range(count)]
    rng.shuffle(client_of)
    inputs["client_of"] = client_of
    if "rate_per_s" in inputs:
        schedule_s = count / inputs["rate_per_s"]
        inputs["crash_after_s"] = (
            inputs["crash_at_fraction"] * schedule_s
            + rng.random() * _CRASH_JITTER_S
        )
    return inputs
