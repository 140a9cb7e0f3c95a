"""Wall-clock throughput harness (``python -m repro.bench --wallclock``).

Everything else in :mod:`repro.bench` measures *modeled* time; this module
measures the *simulator itself*: how many kernel events per host second it
retires, how many host seconds one Figure-3/Figure-4 sweep costs, and how
many bytes the host CPU copies per delivered link frame (via the
:mod:`repro.sim.copystats` probe).  The point is to keep the reproduction
usable as it grows — the ROADMAP's large sweeps are gated by simulator
wall-clock, not by modeled latency — and to stop future PRs from quietly
re-introducing copies or per-event allocation.

Two passes per run:

1. **Timed sweeps** (probe *off*): the Fig-3 and Fig-4 sweeps,
   :data:`ROUNDS` rounds each, the median round reported — on a shared
   host the available CPU drifts by tens of percent between minutes, so
   a single round would just sample the drift.
2. **Copy pass** (probe *on*, untimed): one representative workload per
   data path, reporting bytes-copied-per-delivered-frame.

The copy metrics are exactly reproducible (the schedule is deterministic
and the probe never feeds back into it), so the gate holds them to a tight
band; the sweeps' agenda-entry counts (``sim_events``) are exact too and
may only fall.  The timing metrics depend on the machine: the baseline
records a host fingerprint, and when the current host differs the gate
*warns* instead of failing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import time
from typing import Any, Dict, List, Mapping, Tuple

from repro.bench.echo import run_echo
from repro.bench.figures import FIG3_PAYLOADS, FIG4_PAYLOADS, fig3_sweep, fig4_sweep
from repro.bench.selector_echo import reptor_echo
from repro.errors import ReproError
from repro.sim.copystats import COPYSTATS

__all__ = [
    "SCHEMA",
    "WALLCLOCK_TOLERANCES",
    "host_fingerprint",
    "run_wallclock",
    "check_wallclock",
    "write_wallclock_baseline",
    "load_wallclock_baseline",
    "append_wallclock_history",
]

SCHEMA = "wallclock-v3"

#: Messages per sweep point.  Small enough for a CI gate step, large
#: enough that per-run setup cost does not dominate the rate metrics.
FIG3_MESSAGES = 10
FIG4_MESSAGES = 30

#: Rounds per timed sweep; the median round is reported.
ROUNDS = 3

#: History file cap (satellite: the gate appends one line per CI run and
#: the file must not grow without bound).  Oldest lines are dropped.
HISTORY_MAX_LINES = 200


#: Copy-accounting workloads: one representative point per data path.
#: (key, callable) — each returns an EchoResult; the probe snapshot taken
#: around the call is the metric source.
def _copy_workloads():
    return (
        ("fig3_rdma", lambda: run_echo("rdma_channel", 10 * 1024, 20)),
        ("fig3_tcp", lambda: run_echo("tcp", 10 * 1024, 20)),
        ("fig4_rubin", lambda: reptor_echo("rubin", 20 * 1024, 30)),
        ("fig4_nio", lambda: reptor_echo("nio", 20 * 1024, 30)),
    )


#: metric -> (relative tolerance, direction, host_dependent).  Positive
#: direction = regresses when it grows; negative = when it shrinks.
#: Host-dependent metrics are only *warned* about when the baseline was
#: recorded on different hardware (fingerprint mismatch).
WALLCLOCK_TOLERANCES: Dict[str, Tuple[float, int, bool]] = {
    # Timed sweeps (absolute rates: wide, host-dependent).
    "fig3.events_per_sec": (0.50, -1, True),
    "fig3.host_seconds": (1.00, +1, True),
    "fig4.events_per_sec": (0.50, -1, True),
    "fig4.host_seconds": (1.00, +1, True),
    # Agenda entries per sweep: schedule-exact and host-independent, so
    # the band is zero on any host.  The count may fall (re-record the
    # baseline then), never grow.
    "fig3.sim_events": (0.0, +1, False),
    "fig4.sim_events": (0.0, +1, False),
    # Copy accounting: schedule-exact, tight band, host-independent.
    "copies.fig3_rdma.copied_per_frame": (0.05, +1, False),
    "copies.fig3_tcp.copied_per_frame": (0.05, +1, False),
    "copies.fig4_rubin.copied_per_frame": (0.05, +1, False),
    "copies.fig4_nio.copied_per_frame": (0.05, +1, False),
}


def host_fingerprint() -> str:
    """A short stable id for "the same class of machine".

    Deliberately coarse (architecture, python version, core count): the
    gate should fail on a regression introduced by code, not on a
    developer running the gate on a laptop instead of the CI runner.
    """
    raw = "|".join(
        (
            platform.machine(),
            platform.system(),
            platform.python_version(),
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _timed_sweep(sweep) -> Dict[str, float]:
    """Run one sweep callable; return host seconds and event totals."""
    gc.collect()
    start = time.perf_counter()
    results = sweep()
    elapsed = time.perf_counter() - start
    events = sum(r.sim_events for r in results.values())
    return {
        "host_seconds": elapsed,
        "sim_events": float(events),
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
    }


def _median_sweep(label: str, sweep, say) -> Dict[str, float]:
    """``ROUNDS`` timed rounds of ``sweep``; the median-rate round."""
    runs = []
    for round_no in range(ROUNDS):
        runs.append(_timed_sweep(sweep))
        say(f"    round {round_no} {label}: {runs[-1]['events_per_sec']:,.0f} ev/s")
    runs.sort(key=lambda r: r["events_per_sec"])
    return runs[len(runs) // 2]


def run_wallclock(verbose: bool = False) -> Dict[str, Any]:
    """Run both passes; return the wallclock document (baseline schema)."""
    if COPYSTATS.enabled:
        raise ReproError("copy probe must be disabled before the timed pass")

    say = print if verbose else (lambda *_args, **_kw: None)

    say(f"  timed sweeps: median of {ROUNDS} rounds...")
    fig3 = _median_sweep(
        "fig3", lambda: fig3_sweep(FIG3_MESSAGES, FIG3_PAYLOADS), say
    )
    fig4 = _median_sweep(
        "fig4", lambda: fig4_sweep(FIG4_MESSAGES, FIG4_PAYLOADS), say
    )

    copies: Dict[str, Dict[str, float]] = {}
    try:
        COPYSTATS.enabled = True
        for key, workload in _copy_workloads():
            COPYSTATS.reset()
            workload()
            snap = COPYSTATS.snapshot()
            copies[key] = snap
            say(
                f"  copy pass: {key}: "
                f"{snap['copied_per_frame']:,.0f} B copied/frame "
                f"({snap['copies']} copies, {snap['frames_delivered']} frames)"
            )
    finally:
        COPYSTATS.enabled = False
        COPYSTATS.reset()

    return {
        "schema": SCHEMA,
        "host": {
            "fingerprint": host_fingerprint(),
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "cpus": os.cpu_count() or 0,
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fig3_messages": FIG3_MESSAGES,
        "fig4_messages": FIG4_MESSAGES,
        "rounds": ROUNDS,
        "fig3": fig3,
        "fig4": fig4,
        "copies": copies,
    }


def _metric(document: Mapping[str, Any], path: str) -> float:
    node: Any = document
    for part in path.split("."):
        node = node[part]
    return float(node)


def check_wallclock(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance_scale: float = 1.0,
) -> Tuple[bool, List[Dict[str, Any]]]:
    """Band-check ``fresh`` against ``baseline``.

    Returns ``(ok, checks)`` where each check dict carries metric,
    baseline/fresh values, the band, and whether it ``regressed`` or was
    merely ``warned`` (host-dependent metric on foreign hardware).
    """
    if tolerance_scale <= 0:
        raise ReproError("tolerance scale must be positive")
    same_host = (
        baseline.get("host", {}).get("fingerprint") == host_fingerprint()
    )
    checks: List[Dict[str, Any]] = []
    ok = True
    for metric, (tolerance, direction, host_dependent) in sorted(
        WALLCLOCK_TOLERANCES.items()
    ):
        try:
            baseline_value = _metric(baseline, metric)
        except (KeyError, TypeError):
            raise ReproError(f"wallclock baseline missing metric {metric!r}")
        fresh_value = _metric(fresh, metric)
        band = abs(baseline_value) * tolerance * tolerance_scale
        if direction > 0:
            out_of_band = fresh_value > baseline_value + band
        else:
            out_of_band = fresh_value < baseline_value - band
        enforced = not (host_dependent and not same_host)
        regressed = out_of_band and enforced
        if regressed:
            ok = False
        checks.append(
            {
                "metric": metric,
                "baseline": baseline_value,
                "fresh": fresh_value,
                "tolerance": tolerance * tolerance_scale,
                "direction": direction,
                "enforced": enforced,
                "regressed": regressed,
                "warned": out_of_band and not enforced,
            }
        )
    return ok, checks


def write_wallclock_baseline(document: Dict[str, Any], path: str) -> None:
    """Write the baseline JSON atomically (temp file + rename).

    ``--update-baseline`` may race a concurrent ``--check`` reading the
    file (CI retries, local runs against a shared checkout); the rename
    guarantees readers see the old or the new document, never a torn
    one.
    """
    from repro.obs.sampler import write_json_atomic

    write_json_atomic(document, path)


def load_wallclock_baseline(path: str) -> Dict[str, Any]:
    """Read and structurally validate a wallclock baseline."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    schema = document.get("schema")
    if schema == "wallclock-v2":
        raise ReproError(
            f"{path}: {schema} baseline predates {SCHEMA}; "
            "re-record with --update-baseline"
        )
    if schema != SCHEMA:
        raise ReproError(f"{path}: not a {SCHEMA} baseline document")
    for key in ("host", "fig3", "fig4", "copies"):
        if key not in document:
            raise ReproError(f"{path}: baseline missing {key!r}")
    return document


def append_wallclock_history(
    history_path: str,
    document: Dict[str, Any],
    checks: List[Dict[str, Any]],
    max_lines: int = HISTORY_MAX_LINES,
) -> Dict[str, Any]:
    """Append one JSON line for this wallclock run; returns the entry.

    The file is capped at ``max_lines``: when an append would exceed the
    cap the oldest lines are dropped and the file rewritten via temp +
    rename, so the history stays bounded no matter how many runs
    touch it.
    """
    entry = {
        "checked_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kind": "wallclock",
        "ok": not any(c["regressed"] for c in checks),
        "host": document["host"]["fingerprint"],
        "metrics": {
            c["metric"]: c["fresh"] for c in checks
        },
        "regressions": [c for c in checks if c["regressed"]],
        "warnings": [c for c in checks if c["warned"]],
    }
    directory = os.path.dirname(history_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    line = json.dumps(entry, sort_keys=True)
    try:
        with open(history_path, "r", encoding="utf-8") as fh:
            lines = [l for l in fh.read().splitlines() if l.strip()]
    except FileNotFoundError:
        lines = []
    lines.append(line)
    if len(lines) > max_lines:
        lines = lines[-max_lines:]
        tmp = history_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, history_path)
    else:
        with open(history_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return entry
