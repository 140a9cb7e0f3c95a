"""Parent side: spawn one worker at a time, aggregate, verify.

Every repetition is a fresh interpreter (``python -m perfbench.worker``)
with ``PYTHONHASHSEED=0``, never two at once.  The parent holds a harder
watchdog than the worker's own, so a wedged child is killed and
reported as a failed repetition; the harness itself never hangs, and
every worker is reaped before the next one starts.  (``subprocess``,
not ``multiprocessing``: the latter's resource tracker is a second
process that outlives the command.)
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench.layers import CRITICAL_NODES, LAYERS, per_layer_units
from perfbench.worker import HOST_WATCHDOG_S, SRC
from perfbench.workloads import make_inputs

__all__ = ["ROOT", "OUT_DIR", "EXACT", "load_spec", "measure", "trace", "write_json"]

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Modeled results that must repeat exactly for one (code, seed).
EXACT = ("sim_p50_us", "sim_p99_us", "sim_ops_per_s")
#: Fewest repetitions a time-budgeted run makes.
MIN_REPS = 3
#: Host seconds after which a time-budgeted run starts no further
#: repetition, whatever its count (the contract allows a run 180 s).
RUN_BUDGET_S = 150.0
#: What the parent grants a worker beyond the worker's own watchdog.
_KILL_GRACE_S = 20.0


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn_pass(inputs: Dict[str, Any], mode: str) -> Dict[str, Any]:
    """Run one pass in a fresh process and return what it reports."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: nothing to measure, {SRC}/repro is missing")
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", mode],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    result: Dict[str, Any]
    try:
        reply, _ = process.communicate(
            pickle.dumps(inputs), timeout=HOST_WATCHDOG_S + _KILL_GRACE_S
        )
        result = pickle.loads(reply)
    except subprocess.TimeoutExpired:
        result = {"mode": mode, "crashed": "killed by the parent watchdog"}
    except (EOFError, pickle.UnpicklingError):
        result = {"mode": mode, "crashed": "worker died without a result"}
    finally:
        # Whatever ended the wait (Ctrl-C included): no worker survives it.
        process.kill()
        process.communicate()
    if "crashed" in result:
        attempted = len(inputs.get("ops", ())) or inputs.get("messages", 0)
        result.update(
            attempted=attempted,
            failed=attempted,
            errors=[result["crashed"].strip().splitlines()[-1]],
            sim_digest="crashed",
        )
    return result


def summary(values: List[float], unit: str) -> Dict[str, Any]:
    """Median and quartiles of one metric over the repetitions."""
    out: Dict[str, Any] = {
        "value": statistics.median(values),
        "unit": unit,
        "values": values,
    }
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def _same_digest(passes: List[Dict[str, Any]], errors: List[str]) -> str:
    digests = list(dict.fromkeys(p["sim_digest"] for p in passes))
    if len(digests) > 1:
        errors.append("sim_digest differs between passes: " + " != ".join(digests))
    return digests[0]


def measure(
    name: str,
    seed: int,
    scale: float = 1.0,
    reps: Optional[int] = None,
    seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """End-to-end metrics of one workload: ``reps`` plain repetitions, or
    as many as fit ``seconds`` of measured host time (at least three)."""
    spec = load_spec()
    inputs = make_inputs(name, seed, scale)
    started = time.perf_counter()
    passes: List[Dict[str, Any]] = []
    while True:
        passes.append(spawn_pass(inputs, "plain"))
        if reps is not None:
            if len(passes) >= reps:
                break
        elif time.perf_counter() - started > RUN_BUDGET_S or (
            len(passes) >= MIN_REPS
            and sum(p.get("measure_s", 0.0) for p in passes) >= seconds
        ):
            break
    errors = [e for p in passes for e in p["errors"]]
    digest = _same_digest(passes, errors)
    good = [p for p in passes if "crashed" not in p]
    metrics, wall = {}, {}
    if good:
        metrics = {
            m["name"]: summary([p[m["name"]] for p in good], m["unit"])
            for m in spec["end_to_end"]
        }
        # What the wall clock said, before scaling to reference-host
        # seconds; host_speed > 1 means this box ran faster than that.
        wall = {
            key: summary([p[key] for p in good], unit)
            for key, unit in (
                ("ops_per_wall_s", "1/s"),
                ("setup_wall_s", "s"),
                ("host_speed", "ratio"),
            )
        }
        for key in EXACT:
            if len(set(metrics[key]["values"])) > 1:
                errors.append(f"{key} differs between repetitions of one seed")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "reps": len(passes),
        "samples": good[0]["samples"] if good else 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "sim_digest": digest,
        "correct": not errors and failed == 0,
        "errors": errors,
        "metrics": metrics,
        "wall": wall,
    }


def trace(name: str, seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """Per-layer metrics of one workload: a plain, a profiled and a traced
    pass, each in its own process.  Writes ``<name>.layers.json`` and
    ``<name>.trace.json`` under ``perfbench/out/``."""
    inputs = make_inputs(name, seed, scale)
    passes = {mode: spawn_pass(inputs, mode) for mode in ("plain", "profile", "trace")}
    errors = [e for p in passes.values() for e in p["errors"]]
    digest = _same_digest(list(passes.values()), errors)
    attempted = sum(p["attempted"] for p in passes.values())
    failed = sum(p["failed"] for p in passes.values())
    units = per_layer_units()
    values: Dict[str, float] = {}
    checks: Dict[str, float] = {}
    shares: Dict[str, float] = {}
    if not any("crashed" in p for p in passes.values()):
        plain, profile, traced = passes["plain"], passes["profile"], passes["trace"]
        for layer, row in profile["profile"]["layers"].items():
            values[f"{layer}.host_self_us_per_op"] = row["host_self_us_per_op"]
            values[f"{layer}.calls_per_op"] = row["calls_per_op"]
            shares[layer] = row["share"]
        for node, self_us in traced["critical_path"]["nodes"].items():
            values[f"{node}.sim_self_us_per_op"] = self_us
        values.update(plain["counters"])
        values.update(traced["copies"])
        values["profile.overhead_ratio"] = profile["measure_s"] / plain["measure_s"]
        values["trace.overhead_ratio"] = traced["measure_s"] / plain["measure_s"]
        unknown = sorted(set(values) - set(units))
        if unknown:
            errors.append(f"per-layer metrics BENCHMARK.json does not list: {unknown}")
        # Both partitions must be complete: the layers add up to the
        # profiled total, the nodes to the modeled latency.
        checks = {
            "layers_over_profiled_total": sum(
                values[f"{layer}.host_self_us_per_op"] for layer in LAYERS
            ) / profile["profile"]["total_us_per_op"],
            "nodes_over_modeled_latency": sum(
                values.get(f"{node}.sim_self_us_per_op", 0.0)
                for node in CRITICAL_NODES
            ) / plain["sim_service_mean_us"],
        }
        for check, ratio in checks.items():
            if abs(ratio - 1.0) > 0.01:
                errors.append(f"{check} = {ratio:.4f}, expected 1 +- 0.01")
    document = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "attempted": attempted,
        "failed": failed,
        "sim_digest": digest,
        "correct": not errors and failed == 0,
        "errors": errors,
        "checks": checks,
        # Metrics this workload does not produce (a node the tracer never
        # emitted, a counter of a layer it bypasses) are absent, not zero.
        "absent": [key for key in units if key not in values],
        "per_layer": {
            key: {"value": values[key], "unit": units[key]}
            for key in units
            if key in values
        },
        # A layer's share of host self time bounds what speeding it up
        # can save.
        "layer_shares": shares,
    }
    write_json(OUT_DIR / f"{name}.layers.json", document)
    write_json(
        OUT_DIR / f"{name}.trace.json",
        {
            "harness_spans": [
                dict(span, **{"pass": mode})
                for mode, p in passes.items()
                for span in p.get("harness_spans", ())
            ],
            "modeled_spans_recorded": passes["trace"].get("modeled_spans", 0),
            "traceEvents": passes["trace"].get("chrome_events", []),
        },
    )
    return document


def write_json(path: Any, document: Dict[str, Any]) -> None:
    """Write ``document`` to ``path``, creating ``perfbench/out/`` if needed."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
