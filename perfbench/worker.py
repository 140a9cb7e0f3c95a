"""One pass of one workload, inside a fresh process.

Everything here runs in the child (``python -m perfbench.worker MODE``,
inputs pickled on stdin, result pickled on stdout).  ``repro`` is imported only after
the clock has started, so imports are part of ``setup_s``; the parent
never imports it.  Three kinds of pass, selected by ``mode``:

* ``plain``   — nothing switched on; the only source of end-to-end
  numbers and of the exact counters;
* ``profile`` — the measured phase under ``cProfile``, folded by source
  file into layers (host self time and call counts);
* ``trace``   — ``Tracer`` + ``COPYSTATS`` on; modeled self time per
  blocking-chain node, copy counts, and a Chrome trace.

All three must produce the same ``sim_digest``.
"""

from __future__ import annotations

import cProfile
import ctypes
import hashlib
import os
import pickle
import resource
import signal
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.layers import fold_critical_path, fold_profile

__all__ = ["run_pass", "HOST_WATCHDOG_S"]

SRC = Path(__file__).resolve().parent.parent / "src"

#: Host seconds after which a worker gives up on its measured phase.
HOST_WATCHDOG_S = 120.0
#: Modeled interval at which the guard process looks at both clocks and
#: takes the host's pulse.
_GUARD_TICK_S = 1e-3
#: Size of one pulse, and what it takes on the reference box in the mode
#: that box is mostly in (see README "Host speed").
_PULSE_STEPS = 20000
_PULSE_REFERENCE_S = 2.25e-3
#: Modeled time granted after the last reply for lagging replicas to
#: execute what the others already have (verification, not measurement).
_QUIESCE_S = 5e-3
#: Requests whose modeled spans are exported to ``<workload>.trace.json``.
_EXPORTED_REQUESTS = 32


def _pulse() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The reference box drifts between speed modes 25 % apart that last
    5-15 s each, so raw wall time is bimodal.  Host times are therefore
    reported in *reference-host seconds*: each slice of the measured
    phase is scaled by how fast the pulses around it ran.  The loop
    calls nothing, so a profile sees one frame per pulse.
    """
    started = time.perf_counter()
    cells = [0] * 64
    table = {}
    total = 0
    for i in range(_PULSE_STEPS):
        slot = i & 63
        cells[slot] = total = (total + i * i) % 1000003
        table[slot] = (total, i)
    return time.perf_counter() - started


class DeadlineExpired(Exception):
    """The modeled deadline or the host watchdog tripped."""


class Instruments:
    """Clocks, counters and switches of one pass.

    Doubles as the ``sampler`` argument of ``run_echo`` — that hook is
    the one public place where the echo tells an outsider "set-up is
    over, the first message goes out now" (``start``) and "the last one
    is back" (``stop``).  The PBFT driver calls the same methods itself.
    Unlike a real sampler it schedules nothing but the guard below.
    """

    def __init__(self, mode: str, t0: float, modeled_deadline_s: float):
        from repro.sim import COPYSTATS
        from repro.trace import Tracer

        self.t0 = t0
        self.modeled_deadline_s = modeled_deadline_s
        self.tracer = Tracer() if mode == "trace" else None
        self.profiler = cProfile.Profile() if mode == "profile" else None
        self.copystats = COPYSTATS
        COPYSTATS.enabled = mode == "trace"
        #: The harness's own spans: sequential phases under one pass.
        self.spans: List[Dict[str, Any]] = []
        self.phase("setup")

    # -- harness spans ---------------------------------------------------

    def phase(self, name: Optional[str]) -> float:
        """Close the running phase span and open ``name`` (host clock)."""
        now = time.perf_counter() - self.t0
        if self.spans:
            self.spans[-1]["end_s"] = now
        if name is not None:
            self.spans.append(
                {"name": name, "start_s": now, "end_s": None, "parent": "pass"}
            )
        return now

    # -- the sampler surface run_echo drives -----------------------------

    def bind(self, env: Any, registry: Any) -> None:
        self.env = env
        self.registry = registry

    def start(self) -> None:
        """First op is about to be submitted."""
        self.setup_s = self.phase("calibrate")
        self.before = self.registry.snapshot()
        self.events_before = self.env._eid
        self.sim_start = self.env.now
        self.copystats.reset()
        self.env.process(self._guard(), name="perfbench.guard")
        # Three pulses here: set-up is scaled by this one reading alone.
        self.pulse = sorted(_pulse() for _ in range(3))[1]
        self.setup_speed = _PULSE_REFERENCE_S / self.pulse
        #: (host seconds, reference-host seconds) of each measured slice.
        self.slices: List[Tuple[float, float]] = []
        self.slice_start = self.phase("measure") + self.t0

    def sample_now(self) -> None:
        pass

    def stop(self) -> None:
        """Last op completed (or a deadline tripped)."""
        self._close_slice()
        self.phase("verify")
        self.events = self.env._eid - self.events_before
        self.sim_end = self.env.now
        self.after = self.registry.snapshot()
        self.copies = self.copystats.snapshot()

    def _close_slice(self) -> None:
        """End the running slice with a pulse and start the next one."""
        elapsed = time.perf_counter() - self.slice_start
        before, self.pulse = self.pulse, _pulse()
        speed = _PULSE_REFERENCE_S / ((before + self.pulse) / 2)
        self.slices.append((elapsed, elapsed * speed))
        self.slice_start = time.perf_counter()

    @property
    def measure_wall_s(self) -> float:
        """Host seconds of the measured phase, pulses excluded."""
        return sum(wall for wall, _reference in self.slices)

    @property
    def measure_s(self) -> float:
        """The same in reference-host seconds."""
        return sum(reference for _wall, reference in self.slices)

    def _guard(self):
        """Raise out of ``env.run`` once either clock is past its limit.

        A failed process nobody waits on is surfaced by the kernel's run
        loop, which is exactly the exit needed here.  The guard's timers
        take event ids but reorder nothing.  Each tick also closes a
        timing slice — except under ``cProfile``, where the phase is one
        slice so that the profile holds the program and little else.
        """
        host_limit = self.t0 + HOST_WATCHDOG_S
        modeled_limit = self.sim_start + self.modeled_deadline_s
        while True:
            yield self.env.timeout(_GUARD_TICK_S)
            if self.profiler is None:
                self._close_slice()
            if self.env.now >= modeled_limit:
                raise DeadlineExpired(
                    f"modeled deadline ({self.modeled_deadline_s} s) passed"
                )
            if time.perf_counter() >= host_limit:
                raise DeadlineExpired(
                    f"host watchdog ({HOST_WATCHDOG_S} s) tripped"
                )

    # -- profiling -------------------------------------------------------

    def profiled(self, call: Callable[[], Any]) -> Any:
        """Run ``call``, under the profiler in a profile pass."""
        if self.profiler is None:
            return call()
        self.profiler.enable()
        try:
            return call()
        finally:
            self.profiler.disable()


def _counter_sum(instr: Instruments, prefix: str, suffix: str) -> float:
    """Growth over the measured phase of every matching registry counter."""
    total = 0
    for key, value in instr.after.items():
        if key.startswith(prefix) and key.endswith(suffix):
            total += value - instr.before.get(key, 0)
    return total


def _busiest(instr: Instruments, prefix: str, suffix: str) -> float:
    """Highest busy share of the measured phase among matching trackers."""
    duration = instr.sim_end - instr.sim_start
    if duration <= 0:
        return 0.0
    return max(
        (
            (value["busy_time"] - instr.before[key]["busy_time"]) / duration
            for key, value in instr.after.items()
            if key.startswith(prefix) and key.endswith(suffix)
        ),
        default=0.0,
    )


def _shared_counters(instr: Instruments, ops: int) -> Dict[str, float]:
    """Counters both the cluster's and the testbed's registry carry."""
    return {
        "net.link.frames_per_op": _counter_sum(instr, "link.", ".frames_sent") / ops,
        "net.link.bytes_per_op": _counter_sum(instr, "link.", ".bytes_sent") / ops,
        "net.link.utilization_max": _busiest(instr, "link.", ".utilization"),
        "net.cpu.utilization_max": _busiest(instr, "host.", ".cpu"),
        "rdma.rnr_naks": _counter_sum(instr, "host.", ".nic.rnr_naks"),
        "rdma.rnr_exhausted": _counter_sum(instr, "host.", ".nic.rnr_exhausted"),
    }


# ---------------------------------------------------------------------------
# PBFT workloads (closed loop, and open loop with a leader crash)
# ---------------------------------------------------------------------------


def _cluster_faults(
    cluster: Any, live: List[str], ops: Optional[List[bytes]]
) -> List[str]:
    """What is wrong with the cluster's final state (nothing, one hopes).

    With ``ops`` (every one of them acknowledged) the replicas' state
    must also equal a reference store that applied them.
    """
    from repro.bft import KeyValueStore

    faults: List[str] = []
    digests = cluster.state_digests()
    if len({digests[rid] for rid in live}) != 1:
        faults.append(f"replica state diverged: {digests}")
    elif ops is not None:
        reference = KeyValueStore()
        for op in ops:
            reference.apply(op)
        if digests[live[0]] != reference.digest():
            faults.append("replica state differs from the ops submitted")
    executed = cluster.executed_sequences()
    if len({executed[rid] for rid in live}) != 1:
        faults.append(f"executed sequences differ: {executed}")
    if cluster.audit.violations:
        faults.append(f"audit violations: {cluster.audit.violations[:3]}")
    return faults


def _pbft_counters(
    instr: Instruments, live: List[str], attempted: int, completed: int
) -> Dict[str, float]:
    """Counters only ``BftCluster.metrics_registry()`` carries."""

    def grown(key: str) -> float:
        return instr.after[key] - instr.before[key]

    batches = max(grown(f"replica.{rid}.committed") for rid in live)
    return {
        "rubin.credit_stalls": _counter_sum(instr, "endpoint.", ".credit_stalls"),
        "rubin.pool_stalls": _counter_sum(instr, "endpoint.", ".pool_stalls"),
        "rubin.reconnects": _counter_sum(instr, "endpoint.", ".supervisor.reconnects"),
        "reptor.backpressure_s": sum(
            value["count"] * value["mean"]
            - instr.before[key]["count"] * instr.before[key]["mean"]
            for key, value in instr.after.items()
            if key.endswith(".backpressure_time")
        ),
        "bft.ops_per_batch": completed / batches if batches else 0.0,
        "bft.client_retransmissions": _counter_sum(
            instr, "client.", ".retransmissions"
        ),
        "bft.view_changes": max(grown(f"replica.{rid}.view_changes") for rid in live),
        "bft.state_transfers": _counter_sum(instr, "replica.", ".state_transfers"),
        "audit.events_per_op": _counter_sum(instr, "audit.", "events_recorded")
        / attempted,
    }


def _outage_metrics(
    done: List[Optional[float]], due: List[Optional[float]], crash_at: float
) -> Dict[str, float]:
    """Steady-state latency before the crash, time without service after."""
    from repro.sim import SummaryStats

    out: Dict[str, float] = {}
    before_crash = [
        (done[i] - due[i]) * 1e6
        for i in range(len(done))
        if done[i] is not None and done[i] <= crash_at
    ]
    if before_crash:
        out["bft.steady_p99_us"] = SummaryStats(before_crash).p99
    # The longest wait for the next completion once the leader is gone.
    completions = sorted(t for t in done if t is not None)
    gaps = [
        later - max(earlier, crash_at)
        for earlier, later in zip([crash_at] + completions, completions)
        if later > crash_at
    ]
    if gaps:
        out["bft.recovery_ms"] = max(gaps) * 1e3
    return out


def _run_pbft(inputs: Dict[str, Any], instr: Instruments) -> Dict[str, Any]:
    from repro.bft import BftCluster, BftConfig
    from repro.rubin import RubinConfig

    rubin_config = inputs.get("rubin_config")
    cluster = BftCluster(
        transport=inputs["transport"],
        config=BftConfig(**inputs["bft_config"]),
        rubin_config=RubinConfig(**rubin_config) if rubin_config else None,
        faulty_fabric=inputs.get("faulty_fabric", False),
        num_clients=inputs["clients"],
        tracer=instr.tracer,
    )
    cluster.start()
    env = cluster.env
    ops: List[bytes] = inputs["ops"]
    client_of: List[int] = inputs["client_of"]
    count = len(ops)
    due: List[Optional[float]] = [None] * count
    submitted: List[Optional[float]] = [None] * count
    finished_at: List[Optional[float]] = [None] * count
    replied: List[Optional[bytes]] = [None] * count
    extras: Dict[str, float] = {}

    def invoke(client, index):
        submitted[index] = env.now
        replied[index] = yield client.invoke(ops[index])
        finished_at[index] = env.now

    def closed_loop(client, indices):
        for index in indices:
            due[index] = env.now
            yield from invoke(client, index)

    def open_loop(interval):
        idle = deque(cluster.client(c) for c in dict.fromkeys(client_of))
        wake = [None]
        lag = 0.0

        def serve(client, index):
            yield from invoke(client, index)
            idle.append(client)
            if wake[0] is not None and not wake[0].triggered:
                wake[0].succeed()

        start = env.now
        serving = []
        for index in range(count):
            due[index] = start + index * interval
            if env.now < due[index]:
                yield env.timeout(due[index] - env.now)
            while not idle:
                wake[0] = env.event()
                yield wake[0]
            lag = max(lag, env.now - due[index])
            extras["bft.dispatch_lag_max_us"] = lag * 1e6
            serving.append(env.process(serve(idle.popleft(), index)))
        yield env.all_of(serving)

    def crash(after_s, replica_id):
        yield env.timeout(after_s)
        cluster.crash_replica(replica_id)

    instr.bind(env, cluster.metrics_registry())
    instr.start()
    rate = inputs.get("rate_per_s")
    crash_at = None
    if rate is None:
        finished = env.all_of(
            [
                env.process(
                    closed_loop(
                        cluster.client(c),
                        [i for i in range(count) if client_of[i] == c],
                    ),
                    name=f"perfbench.client{c}",
                )
                for c in range(inputs["clients"])
            ]
        )
    else:
        finished = env.process(open_loop(1.0 / rate), name="perfbench.dispatch")
        crash_at = env.now + inputs["crash_after_s"]
        env.process(
            crash(inputs["crash_after_s"], inputs["crash_replica"]),
            name="perfbench.crash",
        )
    errors: List[str] = []
    try:
        instr.profiled(lambda: env.run(until=finished))
    except DeadlineExpired as exc:
        errors.append(str(exc))
    instr.stop()
    # Frozen here: an op the clients finish during the quiescence below
    # did not finish by the deadline.
    done, replies = list(finished_at), list(replied)

    # -- verification ----------------------------------------------------
    cluster.run_for(_QUIESCE_S)
    wrong = [
        index
        for index in range(count)
        if done[index] is None or replies[index] != b"OK"
    ]
    if wrong:
        errors.append(
            f"{len(wrong)} of {count} ops without a correct reply "
            f"(first: op {wrong[0]}, reply {replies[wrong[0]]!r})"
        )
    live = [
        rid for rid in cluster.replica_ids if rid != inputs.get("crash_replica")
    ]
    tainted = _cluster_faults(cluster, live, ops if not wrong else None)
    # A cluster-level failure taints every op, not only the late ones.
    failed = count if tainted else len(wrong)
    errors.extend(tainted)

    counters = _shared_counters(instr, count)
    counters.update(_pbft_counters(instr, live, count, count - len(wrong)))
    counters.update(extras)
    if crash_at is not None:
        counters.update(_outage_metrics(done, due, crash_at))
    return {
        "latencies_us": [
            None if done[i] is None else (done[i] - due[i]) * 1e6
            for i in range(count)
        ],
        "service_us": [
            (done[i] - submitted[i]) * 1e6
            for i in range(count)
            if done[i] is not None
        ],
        "duration_s": max((t for t in done if t is not None), default=env.now)
        - instr.sim_start,
        "failed": failed,
        "errors": errors,
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# Echo workload
# ---------------------------------------------------------------------------


def _run_echo(inputs: Dict[str, Any], instr: Instruments) -> Dict[str, Any]:
    from repro.bench import run_echo

    count = inputs["messages"]
    errors: List[str] = []
    latencies: List[Optional[float]] = [None] * count
    duration = 0.0
    try:
        result = instr.profiled(
            lambda: run_echo(
                "rdma_channel",
                inputs["payload_bytes"],
                count,
                tracer=instr.tracer,
                sampler=instr,
            )
        )
    except DeadlineExpired as exc:
        # run_echo keeps its latency list to itself until it returns.
        errors.append(str(exc))
        instr.stop()
    else:
        if len(result.latencies_us) != count or result.messages != count:
            errors.append(
                f"{len(result.latencies_us)} of {count} echoes came back"
            )
        latencies[: len(result.latencies_us)] = result.latencies_us[:count]
        duration = result.duration_s
    completed = [value for value in latencies if value is not None]
    return {
        "latencies_us": latencies,
        "service_us": completed,
        "duration_s": duration,
        "failed": count - len(completed),
        "errors": errors,
        "counters": _shared_counters(instr, count),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _digest(latencies: List[Optional[float]]) -> str:
    """sha256 of the modeled-latency vector, in op order."""
    text = ",".join("-" if v is None else repr(v) for v in latencies)
    return hashlib.sha256(text.encode()).hexdigest()


def _one_pass(inputs: Dict[str, Any], mode: str, t0: float) -> Dict[str, Any]:
    sys.path.insert(0, str(SRC))
    instr = Instruments(mode, t0, inputs["modeled_deadline_s"])
    driver = _run_echo if inputs["kind"] == "echo" else _run_pbft
    raw = driver(inputs, instr)
    from repro.sim import SummaryStats

    attempted = len(raw["latencies_us"])
    completed = [v for v in raw["latencies_us"] if v is not None]
    latency = SummaryStats(completed)  # nearest rank; 0.0 when empty
    measure_s = instr.measure_s
    out: Dict[str, Any] = {
        "mode": mode,
        "attempted": attempted,
        "failed": raw["failed"],
        "errors": raw["errors"],
        "samples": len(completed),
        "sim_digest": _digest(raw["latencies_us"]),
        "sim_p50_us": latency.p50,
        "sim_p99_us": latency.p99,
        "sim_ops_per_s": (
            len(completed) / raw["duration_s"] if raw["duration_s"] > 0 else 0.0
        ),
        "sim_service_mean_us": (
            sum(raw["service_us"]) / len(raw["service_us"])
            if raw["service_us"]
            else 0.0
        ),
        # Host times are in reference-host seconds; *_wall_* is raw.
        "measure_s": measure_s,
        "host_speed": measure_s / instr.measure_wall_s,
        "ops_per_host_s": len(completed) / measure_s,
        "ops_per_wall_s": len(completed) / instr.measure_wall_s,
        "setup_s": instr.setup_s * instr.setup_speed,
        "setup_wall_s": instr.setup_s,
        "counters": dict(
            raw["counters"],
            **{
                "sim.events_per_op": instr.events / attempted,
                "sim.events_per_host_s": instr.events / measure_s,
            },
        ),
    }
    if mode == "profile":
        out["profile"] = fold_profile(instr.profiler, SRC / "repro", attempted)
    if mode == "trace":
        from repro.obs import critical_path
        from repro.trace import chrome_trace_events

        out["critical_path"] = fold_critical_path(critical_path(instr.tracer))
        out["copies"] = {
            "sim.copies_per_op": instr.copies["copies"] / attempted,
            "sim.copied_bytes_per_op": instr.copies["copied_bytes"] / attempted,
            "sim.dma_bytes_per_op": instr.copies["dma_bytes"] / attempted,
        }
        exported = [
            span
            for span in instr.tracer.spans
            if span.context.trace_id <= _EXPORTED_REQUESTS
        ]
        out["modeled_spans"] = len(instr.tracer.spans)
        out["chrome_events"] = chrome_trace_events(SimpleNamespace(spans=exported))
    end_s = instr.phase(None)
    out["harness_spans"] = [
        {"name": "pass", "start_s": 0.0, "end_s": end_s, "parent": None}
    ] + instr.spans
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return out


def run_pass(channel: Any, inputs: Dict[str, Any], mode: str) -> None:
    """Run one pass and write its result to the parent."""
    t0 = time.perf_counter()
    try:
        result = _one_pass(inputs, mode, t0)
    except Exception:
        # The boundary that must keep reporting: whatever broke inside
        # the program, the parent gets a failed repetition, not a hang.
        result = {"mode": mode, "crashed": traceback.format_exc()}
    pickle.dump(result, channel)
    channel.close()


def main() -> None:
    """Worker entry point."""
    # Should the parent be killed outright, the kernel ends this worker
    # too (PR_SET_PDEATHSIG; Linux only, elsewhere the call is skipped).
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    # The result goes out on what was stdout; anything the program
    # prints goes to stderr and cannot corrupt it.
    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    run_pass(channel, pickle.load(sys.stdin.buffer), sys.argv[1])


if __name__ == "__main__":
    main()
