"""The performance-regression gate (``python -m repro.bench --check``).

Re-runs every point recorded in a committed ``BENCH_<figure>.json``
baseline with its recorded parameters (:attr:`Figure.rerun`) and compares
the fresh numbers against the stored ones under the figure's per-metric
tolerance bands (:attr:`Figure.tolerances`).  The
simulation is deterministic, so an unchanged tree reproduces the
baseline exactly; the bands only absorb intentional model changes small
enough not to count as regressions.

Latency percentiles regress *upward* (fresh may not exceed baseline by
more than the band); throughput regresses *downward*.  Every check run
appends one JSON line to ``BENCH_history.jsonl`` so the performance
trajectory of the tree is queryable from CI artifacts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.bench.figures import FIGURES
from repro.errors import ReproError

__all__ = [
    "HISTORY_MAX_LINES",
    "MetricCheck",
    "PointReport",
    "CheckReport",
    "load_baseline",
    "check_figure",
    "run_check",
    "append_history",
]

#: Lines kept in the history file: the gate appends one per run, and the
#: oldest are dropped so the file stays bounded.
HISTORY_MAX_LINES = 200


@dataclass(frozen=True)
class MetricCheck:
    """One metric of one point compared against its baseline."""

    metric: str
    baseline: float
    fresh: float
    tolerance: float
    regressed: bool


@dataclass
class PointReport:
    """All metric checks for one sweep point, labelled by its transport,
    payload and (COP) group count."""

    label: str
    checks: List[MetricCheck] = field(default_factory=list)


@dataclass
class CheckReport:
    """The gate's verdict for one figure baseline."""

    figure: str
    points: List[PointReport] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricCheck]:
        return [c for p in self.points for c in p.checks if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_baseline(path: str) -> Dict[str, Any]:
    """Read and structurally validate one ``BENCH_fig*.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    figure = document.get("figure")
    points = document.get("points")
    if not isinstance(figure, str) or not isinstance(points, list):
        raise ReproError(f"{path}: not a baseline document")
    for point in points:
        for key in ("transport", "payload_bytes", "messages", "latency_us"):
            if key not in point:
                raise ReproError(f"{path}: point missing {key!r}")
    return document


def _metric(record: Mapping[str, Any], path: str) -> float:
    node: Any = record
    for part in path.split("."):
        node = node[part]
    return float(node)


def check_figure(document: Mapping[str, Any]) -> CheckReport:
    """Re-run every point of ``document`` and band-check each metric under
    its figure's tolerance table."""
    figure = FIGURES.get(document["figure"])
    if figure is None:
        raise ReproError(
            f"unknown figure {document['figure']!r} (have {', '.join(FIGURES)})"
        )
    report = CheckReport(figure=figure.name)
    for point in document["points"]:
        fresh = figure.rerun(point)
        label = f"{point['transport']} {point['payload_bytes']}B"
        if "group_count" in point:
            label += f" G={point['group_count']}"
        point_report = PointReport(label)
        for metric, (tolerance, direction) in sorted(figure.tolerances.items()):
            baseline_value = _metric(point, metric)
            fresh_value = _metric(fresh, metric)
            band = abs(baseline_value) * tolerance
            if direction > 0:
                regressed = fresh_value > baseline_value + band
            else:
                regressed = fresh_value < baseline_value - band
            point_report.checks.append(
                MetricCheck(
                    metric=metric,
                    baseline=baseline_value,
                    fresh=fresh_value,
                    tolerance=tolerance,
                    regressed=regressed,
                )
            )
        report.points.append(point_report)
    return report


def append_history(
    history_path: str,
    reports: List[CheckReport],
    max_lines: int = HISTORY_MAX_LINES,
) -> Dict[str, Any]:
    """Append one JSON line describing this check run; returns the entry.

    The file keeps the newest ``max_lines`` lines and is rewritten via
    temp + rename, so the history stays bounded no matter how many runs
    touch it and a reader never sees a torn file.
    """
    entry = {
        "checked_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "ok": all(r.ok for r in reports),
        "figures": {
            r.figure: {
                "ok": r.ok,
                "points": len(r.points),
                "regressions": [asdict(c) for c in r.regressions],
            }
            for r in reports
        },
    }
    directory = os.path.dirname(history_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    try:
        with open(history_path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except FileNotFoundError:
        lines = []
    lines = [*lines, json.dumps(entry, sort_keys=True)][-max_lines:]
    tmp = history_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, history_path)
    return entry


def run_check(
    baseline_dir: str,
    figures: Tuple[str, ...] = tuple(FIGURES),
    history_path: Optional[str] = None,
) -> Tuple[bool, List[CheckReport]]:
    """Gate entry point: check every committed figure baseline (by
    default every registered figure).

    Missing baseline files are an error — the gate exists to stop the
    trajectory from silently going dark.
    """
    reports: List[CheckReport] = []
    for figure in figures:
        path = os.path.join(baseline_dir, f"BENCH_{figure}.json")
        if not os.path.exists(path):
            raise ReproError(f"baseline {path} not found")
        reports.append(check_figure(load_baseline(path)))
    if history_path is not None:
        append_history(history_path, reports)
    return all(r.ok for r in reports), reports
