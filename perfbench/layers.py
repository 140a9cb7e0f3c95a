"""Per-layer attribution: which names exist and how raw data folds into them.

Layers are this repo's module names.  Host self time and call counts
come from a ``cProfile`` pass folded by source file; modeled self time
comes from ``repro.obs.critical_path`` over a ``Tracer`` pass, by
blocking-chain node.  The lists here and the ``per_layer`` section of
``BENCHMARK.json`` must name the same metrics (the smoke test checks).
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Any, Dict, Tuple

__all__ = [
    "LAYERS",
    "CRITICAL_NODES",
    "COUNTERS",
    "per_layer_units",
    "fold_profile",
    "fold_critical_path",
]

#: Source path under ``src/repro`` -> layer; first match wins.
_LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/core.py", "sim.core"),
    ("sim/calqueue.py", "sim.calqueue"),
    ("sim/events.py", "sim.events"),
    ("sim/process.py", "sim.process"),
    ("sim/resources.py", "sim.resources"),
    # Counters and trackers are telemetry wherever they live.
    ("sim/monitor.py", "obs"),
    ("sim/copystats.py", "obs"),
    ("sim/", "sim.core"),
    ("net/link.py", "net.link"),
    ("net/nic.py", "net.nic"),
    ("net/cpu.py", "net.cpu"),
    ("net/", "net.fabric"),
    ("rdma/qp.py", "rdma.qp"),
    ("rdma/cq.py", "rdma.cq"),
    ("rdma/mr.py", "rdma.mr"),
    ("rdma/device.py", "rdma.device"),
    ("rdma/", "rdma.verbs"),
    ("tcpstack/", "tcpstack"),
    # ByteBuffer serves RUBIN and Reptor too; kept apart so that ``nio``
    # means the NIO transport and is ~0 on the RUBIN workloads.
    ("nio/buffer.py", "nio.buffer"),
    ("nio/", "nio"),
    ("rubin/", "rubin"),
    ("reptor/", "reptor"),
    ("crypto/", "crypto"),
    ("bft/", "bft"),
    ("audit/", "audit"),
    ("trace/", "trace"),
    ("obs/", "obs"),
    ("bench/", "bench"),
)
#: Where everything else goes: builtins, the standard library (``hmac``
#: included), and the few repro files no rule names.
_REST = "python"
#: perfbench's own frames (load generators, the guard) count as harness.
_HARNESS = "bench"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([layer for _prefix, layer in _LAYER_RULES] + [_REST])
)

#: Blocking-chain nodes the tracer can emit on these workloads.
CRITICAL_NODES: Tuple[str, ...] = (
    "bft.request", "bft.batching", "bft.handle", "bft.prepare",
    "bft.commit", "bft.execute", "reptor.send", "reptor.deliver",
    "selector.dispatch", "channel.write", "channel.read", "qp.send",
    "qp.recv", "cq.wait", "nic.dma", "link.serialize", "link.propagate",
    "echo.request",
)

#: Exact counters -> unit.  ``sim.events_per_host_s`` is the one
#: exception to "exact": it divides a count by host seconds.
COUNTERS: Dict[str, str] = {
    "sim.events_per_op": "count",
    "sim.events_per_host_s": "1/s",
    "sim.copies_per_op": "count",
    "sim.copied_bytes_per_op": "B",
    "sim.dma_bytes_per_op": "B",
    "net.link.frames_per_op": "count",
    "net.link.bytes_per_op": "B",
    "net.link.utilization_max": "ratio",
    "net.cpu.utilization_max": "ratio",
    "rdma.rnr_naks": "count",
    "rdma.rnr_exhausted": "count",
    "rubin.credit_stalls": "count",
    "rubin.pool_stalls": "count",
    "rubin.reconnects": "count",
    "reptor.backpressure_s": "s",
    "bft.ops_per_batch": "count",
    "bft.client_retransmissions": "count",
    "bft.view_changes": "count",
    "bft.state_transfers": "count",
    "bft.steady_p99_us": "us",
    "bft.recovery_ms": "ms",
    "bft.dispatch_lag_max_us": "us",
    "audit.events_per_op": "count",
    "profile.overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.host_self_us_per_op"] = "us"
        units[f"{layer}.calls_per_op"] = "count"
    for node in CRITICAL_NODES:
        units[f"{node}.sim_self_us_per_op"] = "us"
    units.update(COUNTERS)
    return units


def _layer_of(filename: str, repro_root: str, harness_root: str) -> str:
    if filename.startswith(repro_root):
        relative = filename[len(repro_root):]
        for prefix, layer in _LAYER_RULES:
            if relative.startswith(prefix):
                return layer
    elif filename.startswith(harness_root):
        return _HARNESS
    return _REST


def fold_profile(profiler: Any, repro_root: Path, ops: int) -> Dict[str, Any]:
    """Exclusive time and call counts of a finished profile, by layer.

    ``tottime`` is a function's own time with its callees taken out, so
    the layers partition the profiled total exactly.
    """
    repro_prefix = str(repro_root) + "/"
    harness_prefix = str(Path(__file__).resolve().parent) + "/"
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total = 0.0
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        _primitive, ncalls, tottime = row[:3]
        layer = _layer_of(filename, repro_prefix, harness_prefix)
        self_s[layer] += tottime
        calls[layer] += ncalls
        total += tottime
    return {
        "total_us_per_op": total * 1e6 / ops,
        "layers": {
            layer: {
                "host_self_us_per_op": self_s[layer] * 1e6 / ops,
                "calls_per_op": calls[layer] / ops,
                "share": self_s[layer] / total if total else 0.0,
            }
            for layer in LAYERS
        },
    }


def fold_critical_path(report: Any) -> Dict[str, Any]:
    """Mean modeled self time per request of every blocking-chain node.

    The chain's segments partition each request's window, so the nodes
    sum to the mean end-to-end latency of the traced requests.
    """
    from repro.obs import node_label

    totals: Dict[str, float] = {}
    for chain in report.chains:
        for _stack, span, lo, hi in chain["segments"]:
            label = node_label(span)
            totals[label] = totals.get(label, 0.0) + (hi - lo)
    traces = report.traces
    return {
        "traces": traces,
        "end_to_end_mean_us": (
            sum(chain["end_to_end"] for chain in report.chains) * 1e6 / traces
            if traces
            else 0.0
        ),
        "nodes": {
            label: seconds * 1e6 / traces
            for label, seconds in sorted(totals.items())
        },
    }
