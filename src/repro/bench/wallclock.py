"""Wall-clock throughput harness (``python -m repro.bench --wallclock``).

Everything else in :mod:`repro.bench` measures *modeled* time; this module
measures the *simulator itself*: how many kernel events per host second it
retires, how many host seconds one Figure-3/Figure-4 sweep costs, and how
many bytes the host CPU copies per delivered link frame (via the
:mod:`repro.sim.copystats` probe).  The point is to keep the reproduction
usable as it grows — the ROADMAP's large sweeps are gated by simulator
wall-clock, not by modeled latency — and to stop future PRs from quietly
re-introducing copies or per-event allocation.

Three passes per run:

1. **Scheduler matrix** (probe *off*): the Fig-3 and Fig-4 sweeps under
   every kernel scheduler (``heap`` and ``calendar``), *interleaved* —
   heap then calendar within each round, several rounds, medians
   reported.  Back-to-back interleaving matters: on a shared host the
   available CPU drifts by tens of percent between minutes, far more
   than the real difference between the schedulers, and pairwise ratios
   cancel that drift while split measurements would just sample it.
2. **Parallel smoke**: the scaled echo mesh (8 hosts) once sequentially
   and once sharded across ``N_SHARDS`` (default 2) worker processes,
   reporting both rates and the speedup.  On a single-core runner the
   "speedup" is honestly below 1 (the barrier IPC costs real time and
   there is no second core to buy it back); the row exists to keep the
   sharded path exercised and its determinism gated, and to measure the
   real speedup on hosts that have the cores.
3. **Copy pass** (probe *on*, untimed): one representative workload per
   data path, reporting bytes-copied-per-delivered-frame.

The copy metrics are exactly reproducible (the schedule is deterministic
and the probe never feeds back into it), so the gate holds them to a tight
band; the sweeps' agenda-entry counts (``sim_events``) are exact too and
may only fall.  The timing metrics depend on the machine: the baseline records a
host fingerprint, and when the current host differs the gate *warns*
instead of failing.  The scheduler *ratios* sit in between — interleaving
cancels most host drift — and get a tighter band than the absolute rates.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.bench.echo import run_echo
from repro.bench.figures import FIG3_PAYLOADS, FIG4_PAYLOADS, fig3_sweep, fig4_sweep
from repro.bench.selector_echo import reptor_echo
from repro.errors import ReproError
from repro.sim.copystats import COPYSTATS
from repro.sim.core import SCHEDULERS

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

SCHEMA = "wallclock-v2"

#: Messages per sweep point.  Small enough for a CI gate step, large
#: enough that per-run setup cost does not dominate the rate metrics.
FIG3_MESSAGES = 10
FIG4_MESSAGES = 30

#: Interleaved heap/calendar rounds in the scheduler matrix.
SCHEDULER_ROUNDS = 3

#: The parallel smoke workload: the scaled echo mesh (2 * pairs hosts).
MESH_PAIRS = 4
MESH_MESSAGES = 30
MESH_PAYLOAD = 1024

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
    # Default-scheduler sweeps (absolute rates: wide, host-dependent).
    "fig3.events_per_sec": (0.50, -1, True),
    "fig3.host_seconds": (1.00, +1, True),
    "fig4.events_per_sec": (0.50, -1, True),
    "fig4.host_seconds": (1.00, +1, True),
    # Per-mode rows of the scheduler matrix.
    "schedulers.heap.fig3.events_per_sec": (0.50, -1, True),
    "schedulers.heap.fig4.events_per_sec": (0.50, -1, True),
    "schedulers.calendar.fig3.events_per_sec": (0.50, -1, True),
    "schedulers.calendar.fig4.events_per_sec": (0.50, -1, True),
    # Interleaved ratios: host drift mostly cancels, so the band is
    # tighter than the absolute rates but still host-tagged (a different
    # CPython or CPU can legitimately move the heap/calendar balance).
    "ratios.calendar_vs_heap.fig3": (0.15, -1, True),
    "ratios.calendar_vs_heap.fig4": (0.15, -1, True),
    # Sharded-kernel smoke (spawn + barrier IPC included in the rate).
    "parallel.sharded.events_per_sec": (0.50, -1, True),
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


def _timed_sweep(label: str, sweep) -> Dict[str, float]:
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


class _forced_scheduler:
    """Context manager pinning ``REPRO_SCHEDULER`` for a sweep."""

    def __init__(self, mode: str):
        self.mode = mode
        self._prior: Optional[str] = None

    def __enter__(self):
        self._prior = os.environ.get("REPRO_SCHEDULER")
        os.environ["REPRO_SCHEDULER"] = self.mode
        return self

    def __exit__(self, *_exc):
        if self._prior is None:
            os.environ.pop("REPRO_SCHEDULER", None)
        else:
            os.environ["REPRO_SCHEDULER"] = self._prior
        return False


def _median_run(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """The run whose events/sec is the median of its rounds."""
    ordered = sorted(runs, key=lambda r: r["events_per_sec"])
    return dict(ordered[len(ordered) // 2])


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _scheduler_matrix(say) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Interleaved per-scheduler sweeps; returns (matrix, ratios)."""
    rounds: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        mode: {"fig3": [], "fig4": []} for mode in SCHEDULERS
    }
    for round_no in range(SCHEDULER_ROUNDS):
        for mode in SCHEDULERS:
            with _forced_scheduler(mode):
                fig3 = _timed_sweep(
                    "fig3", lambda: fig3_sweep(FIG3_MESSAGES, FIG3_PAYLOADS)
                )
                fig4 = _timed_sweep(
                    "fig4", lambda: fig4_sweep(FIG4_MESSAGES, FIG4_PAYLOADS)
                )
            rounds[mode]["fig3"].append(fig3)
            rounds[mode]["fig4"].append(fig4)
            say(
                f"    round {round_no} {mode:>8}: "
                f"fig3 {fig3['events_per_sec']:,.0f} ev/s, "
                f"fig4 {fig4['events_per_sec']:,.0f} ev/s"
            )
    matrix = {
        mode: {
            "fig3": _median_run(rounds[mode]["fig3"]),
            "fig4": _median_run(rounds[mode]["fig4"]),
        }
        for mode in SCHEDULERS
    }
    # Pairwise per-round ratios, then the median: each round's heap and
    # calendar runs are back to back, so host drift divides out.
    ratios = {
        "calendar_vs_heap": {
            figure: _median(
                [
                    c["events_per_sec"] / h["events_per_sec"]
                    for h, c in zip(
                        rounds["heap"][figure], rounds["calendar"][figure]
                    )
                    if h["events_per_sec"] > 0
                ]
            )
            for figure in ("fig3", "fig4")
        }
    }
    return matrix, ratios


def _mesh_events(shard_results: List[Any]) -> int:
    """Total kernel events across shards of one echo-mesh run.

    Every :class:`~repro.bench.results.EchoResult` a shard returns
    carries that shard's final event id, so one result per shard counts
    the whole shard exactly once.
    """
    total = 0
    for per_pair in shard_results:
        if per_pair:
            total += next(iter(per_pair.values())).sim_events
    return total


def _timed_mesh(shards: int) -> Dict[str, float]:
    from repro.bench.parallel_echo import echo_mesh_shard
    from repro.sim.parallel import run_sharded

    gc.collect()
    start = time.perf_counter()
    results = run_sharded(
        echo_mesh_shard,
        shards,
        {
            "transport": "nio",
            "payload_bytes": MESH_PAYLOAD,
            "messages": MESH_MESSAGES,
            "pairs": MESH_PAIRS,
        },
    )
    elapsed = time.perf_counter() - start
    events = _mesh_events(results)
    return {
        "host_seconds": elapsed,
        "sim_events": float(events),
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
    }


def _parallel_smoke(shards: int, say) -> Dict[str, Any]:
    say(f"  parallel pass: echo mesh sequential vs {shards} shards...")
    sequential = _timed_mesh(1)
    sharded = _timed_mesh(shards)
    speedup = (
        sequential["host_seconds"] / sharded["host_seconds"]
        if sharded["host_seconds"] > 0
        else 0.0
    )
    say(
        f"    sequential {sequential['host_seconds']:.2f}s, "
        f"{shards} shards {sharded['host_seconds']:.2f}s "
        f"(speedup {speedup:.2f}x; spawn + barrier IPC included)"
    )
    return {
        "shards": shards,
        "mesh_pairs": MESH_PAIRS,
        "mesh_messages": MESH_MESSAGES,
        "mesh_payload": MESH_PAYLOAD,
        "sequential": sequential,
        "sharded": sharded,
        "speedup": speedup,
    }


def run_wallclock(verbose: bool = False, shards: int = 2) -> Dict[str, Any]:
    """Run all passes; return the wallclock document (baseline schema).

    ``shards`` sets the sharded-smoke worker count (the CLI reads it
    from ``$N_SHARDS``).  The top-level ``fig3``/``fig4`` sections are
    the *default-scheduler* medians from the matrix, so v1-era metric
    paths keep meaning "the configuration users actually run".
    """
    if COPYSTATS.enabled:
        raise ReproError("copy probe must be disabled before the timed pass")
    if shards < 2:
        raise ReproError("the parallel smoke needs at least 2 shards")

    say = print if verbose else (lambda *_args, **_kw: None)

    say(
        f"  scheduler matrix: {SCHEDULER_ROUNDS} interleaved rounds x "
        f"{list(SCHEDULERS)}..."
    )
    matrix, ratios = _scheduler_matrix(say)

    parallel = _parallel_smoke(shards, say)

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

    from repro.sim.core import DEFAULT_SCHEDULER

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
        "scheduler_rounds": SCHEDULER_ROUNDS,
        "default_scheduler": DEFAULT_SCHEDULER,
        "fig3": dict(matrix[DEFAULT_SCHEDULER]["fig3"]),
        "fig4": dict(matrix[DEFAULT_SCHEDULER]["fig4"]),
        "schedulers": matrix,
        "ratios": ratios,
        "parallel": parallel,
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
    if document.get("schema") != SCHEMA:
        raise ReproError(f"{path}: not a {SCHEMA} baseline document")
    for key in ("host", "fig3", "fig4", "schedulers", "ratios", "parallel",
                "copies"):
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
    rename, so the committed history stays bounded no matter how many
    CI runs touch it.
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
