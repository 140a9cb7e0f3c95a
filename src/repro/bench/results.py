"""Result containers and table rendering for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import SummaryStats

__all__ = [
    "EchoResult",
    "FigureTable",
    "echo_record",
    "percent_lower",
    "percent_higher",
]


@dataclass
class EchoResult:
    """Measurements of one echo run at one payload size."""

    transport: str
    payload_bytes: int
    messages: int
    latencies_us: List[float] = field(default_factory=list)
    duration_s: float = 0.0
    #: Total kernel events scheduled by the run's Environment (its final
    #: ``_eid``), pinned per sweep in ``tests/sim/test_event_budget.py``.
    sim_events: int = 0

    def finish(self, env, done) -> "EchoResult":
        """Run ``env`` until ``done``; record the echoes completed and the
        agenda entries taken."""
        env.run(until=done)
        self.messages = len(self.latencies_us)
        self.sim_events = env._eid
        return self

    @property
    def mean_latency_us(self) -> float:
        """Mean per-message latency in microseconds."""
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    @property
    def requests_per_second(self) -> float:
        """Completed echo round trips per second."""
        if self.duration_s <= 0:
            return 0.0
        return self.messages / self.duration_s

    def stats(self) -> SummaryStats:
        """Full latency distribution statistics."""
        return SummaryStats(self.latencies_us)

    def __repr__(self) -> str:
        return (
            f"<EchoResult {self.transport} {self.payload_bytes}B "
            f"lat={self.mean_latency_us:.1f}us "
            f"rps={self.requests_per_second:.0f}>"
        )


def echo_record(result: EchoResult) -> Dict[str, object]:
    """One sweep point as a JSON-ready dict (a ``BENCH_fig3/4.json`` point):
    the full latency distribution and the achieved throughput."""
    return {
        "transport": result.transport,
        "payload_bytes": result.payload_bytes,
        "messages": result.messages,
        "latency_us": result.stats().to_dict(),
        "throughput_rps": result.requests_per_second,
        "duration_s": result.duration_s,
    }


def percent_lower(value: float, baseline: float) -> float:
    """How many percent ``value`` is below ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline * 100.0


def percent_higher(value: float, baseline: float) -> float:
    """How many percent ``value`` is above ``baseline``."""
    if baseline == 0:
        return 0.0
    return (value - baseline) / baseline * 100.0


class FigureTable:
    """A figure's data: payload sizes x transports -> metric values."""

    def __init__(self, title: str, metric: str, unit: str):
        self.title = title
        self.metric = metric
        self.unit = unit
        self.payloads: List[int] = []
        self.series: Dict[str, Dict[int, float]] = {}

    def add(self, transport: str, payload_bytes: int, value: float) -> None:
        """Record one data point."""
        if payload_bytes not in self.payloads:
            self.payloads.append(payload_bytes)
            self.payloads.sort()
        self.series.setdefault(transport, {})[payload_bytes] = value

    def value(self, transport: str, payload_bytes: int) -> float:
        """Look up one data point."""
        return self.series[transport][payload_bytes]

    def transports(self) -> List[str]:
        """Series names in insertion order."""
        return list(self.series)

    def render(self, float_format: str = "{:>12.1f}") -> str:
        """Plain-text table matching the paper's figure series."""
        width = max(16, max((len(n) for n in self.series), default=0) + 2)
        lines = [f"{self.title} — {self.metric} [{self.unit}]"]
        header = f"{'payload':>10}" + "".join(
            f"{name:>{width}}" for name in self.series
        )
        lines.append(header)
        lines.append("-" * len(header))
        for payload in self.payloads:
            cells = []
            for name in self.series:
                value = self.series[name].get(payload)
                cells.append(
                    float_format.format(value) if value is not None else ""
                )
            label = (
                f"{payload // 1024}KB" if payload % 1024 == 0 else f"{payload}B"
            )
            lines.append(
                f"{label:>10}" + "".join(f"{c:>{width}}" for c in cells)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<FigureTable {self.title!r} series={list(self.series)} "
            f"points={len(self.payloads)}>"
        )
