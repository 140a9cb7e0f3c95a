"""Per-figure harnesses: regenerate every panel of the paper's evaluation.

:data:`FIGURES` declares each gated figure once — the paper's Fig. 3 and
Fig. 4 plus the overload, one-sided and COP extensions — as a
:class:`Figure` record; ``python -m repro.bench``, the regression gate
and the profile capture all loop over this one registry.

``fig3_sweep``/``fig4_sweep`` run an echo figure's workload sweep, and
``fig3_panels``/``fig4_panels`` turn it into the two
:class:`~repro.bench.results.FigureTable` panels whose rows/series match
what the paper plots.  The ``check_fig*_shape`` functions assert the
qualitative claims of Section V (who wins, by roughly what factor, where
the crossovers fall) — these are the reproduction's acceptance criteria
and are exercised by the benchmark suite.

Paper claims encoded here (Section V):

Figure 3 (micro-benchmark, payloads 1–100 KB):
  * RDMA Read/Write has the lowest latency: ≈46 % below Send/Receive and
    53–79 % below TCP;
  * the RDMA channel stays 33–43 % below TCP;
  * selective signaling makes the channel beat plain Send/Receive for
    small payloads (paper: up to 30 % below, noticeable under 16 KB) while
    the receive-side buffer copy degrades it for large payloads;
  * throughput orders inversely to latency.

Figure 4 (echo through the Reptor stack, window 30 / batching 10):
  * RUBIN's latency is ≈19 % below the Java NIO selector's at 1 KB and
    ≈20 % below at 100 KB;
  * RUBIN's throughput is 25 % (100 KB) to 38 % (20 KB) above TCP's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bench.cop import COP_GROUP_COUNTS, check_cop_shape, run_cop_point
from repro.bench.echo import run_echo
from repro.bench.onesided import (
    ONESIDED_DEFAULTS,
    ONESIDED_MODES,
    check_onesided_shape,
    run_onesided_point,
)
from repro.bench.overload import OVERLOAD_DEFAULTS, run_overload
from repro.bench.results import (
    EchoResult,
    FigureTable,
    echo_record,
    percent_higher,
    percent_lower,
)
from repro.bench.selector_echo import reptor_echo
from repro.errors import ReproError

__all__ = [
    "FIG3_PAYLOADS",
    "FIG4_PAYLOADS",
    "FIG3_TRANSPORTS",
    "FIGURES",
    "Figure",
    "fig3_sweep",
    "fig4_sweep",
    "sweep_points",
    "fig3_panels",
    "fig4_panels",
    "check_fig3_shape",
    "check_fig4_shape",
]

#: Payload sweep for Figure 3 ("message sizes between 1 KB and 100 KB").
FIG3_PAYLOADS = [1, 2, 5, 10, 16, 20, 50, 100]

#: Payload sweep for Figure 4 (its x-axis runs 20..100 KB; the 1 KB point
#: backs the paper's quoted 1 KB latency comparison).
FIG4_PAYLOADS = [1, 20, 40, 60, 80, 100]

#: The four Figure 3 curves.
FIG3_TRANSPORTS = ["tcp", "rdma_send_recv", "rdma_read_write", "rdma_channel"]

KB = 1024

#: A JSON-ready benchmark point, as stored in ``BENCH_<figure>.json``.
Point = Dict[str, Any]
#: An echo sweep: one run per (transport, payload_kb).
Sweep = Dict[Tuple[str, int], EchoResult]


def fig3_sweep(messages: int, payloads_kb: Iterable[int]) -> Sweep:
    """All Figure-3 echo runs, keyed by (transport, payload_kb)."""
    results = {}
    for transport in FIG3_TRANSPORTS:
        for kb in payloads_kb:
            results[(transport, kb)] = run_echo(transport, kb * KB, messages)
    return results


def fig4_sweep(messages: int, payloads_kb: Iterable[int]) -> Sweep:
    """All Figure-4 Reptor-stack runs, keyed by (transport, payload_kb)."""
    results = {}
    for transport in ("nio", "rubin"):
        for kb in payloads_kb:
            results[(transport, kb)] = reptor_echo(transport, kb * KB, messages)
    return results


def sweep_points(results: Sweep) -> List[Point]:
    """A sweep's JSON points, sorted by (transport, payload) for stable
    diffs: the ``points`` of ``BENCH_fig3.json`` / ``BENCH_fig4.json``."""
    return [echo_record(results[key]) for key in sorted(results)]


def _panels(figure: int, results: Sweep, unit: str, scale: float):
    """Panels a (mean latency, us) and b (throughput in ``unit``, the rate
    divided by ``scale``) of an echo figure, one series per transport."""
    latency = FigureTable(f"Figure {figure}a", "latency", "us")
    throughput = FigureTable(f"Figure {figure}b", "throughput", unit)
    for (_transport, kb), result in results.items():
        latency.add(result.transport, kb * KB, result.mean_latency_us)
        throughput.add(
            result.transport, kb * KB, result.requests_per_second / scale
        )
    return latency, throughput


def fig3_panels(results: Sweep) -> Tuple[FigureTable, FigureTable]:
    """Figures 3a (echo latency, us) and 3b (throughput, krps) of one
    :func:`fig3_sweep`."""
    return _panels(3, results, "krps", 1000.0)


def fig4_panels(results: Sweep) -> Tuple[FigureTable, FigureTable]:
    """Figures 4a (latency, us) and 4b (throughput, rps) of one
    :func:`fig4_sweep`: RUBIN vs Java NIO."""
    return _panels(4, results, "rps", 1.0)


def check_fig3_shape(latency: FigureTable) -> List[str]:
    """Assert Figure 3's qualitative claims; returns human-readable facts.

    Raises :class:`ReproError` on any violated claim.
    """
    facts: List[str] = []
    payloads = latency.payloads
    small = [p for p in payloads if p <= 4 * KB]
    for payload in payloads:
        tcp = latency.value("tcp", payload)
        sr = latency.value("rdma_send_recv", payload)
        rw = latency.value("rdma_read_write", payload)
        ch = latency.value("rdma_channel", payload)
        kb = payload // KB
        # Ordering: RW fastest, TCP slowest, at every payload.
        if not (rw < sr < tcp and rw < ch < tcp):
            raise ReproError(
                f"fig3a ordering broken at {kb}KB: "
                f"tcp={tcp:.1f} sr={sr:.1f} rw={rw:.1f} ch={ch:.1f}"
            )
        # Channel 33-43 % below TCP (tolerance band widened by 5 points).
        ch_vs_tcp = percent_lower(ch, tcp)
        if not 28.0 <= ch_vs_tcp <= 48.0:
            raise ReproError(
                f"fig3a: channel {ch_vs_tcp:.1f}% below TCP at {kb}KB, "
                "expected ~33-43%"
            )
        # Read/Write roughly half of Send/Receive (paper: ~46 %).
        rw_vs_sr = percent_lower(rw, sr)
        if not 35.0 <= rw_vs_sr <= 60.0:
            raise ReproError(
                f"fig3a: RW {rw_vs_sr:.1f}% below SR at {kb}KB, expected ~46%"
            )
        facts.append(
            f"{kb}KB: CH {ch_vs_tcp:.0f}% < TCP, RW {rw_vs_sr:.0f}% < SR, "
            f"RW {percent_lower(rw, tcp):.0f}% < TCP"
        )
    # Selective signaling: channel beats plain Send/Receive at small
    # payloads...
    for payload in small:
        ch = latency.value("rdma_channel", payload)
        sr = latency.value("rdma_send_recv", payload)
        if ch >= sr:
            raise ReproError(
                f"fig3a: channel ({ch:.1f}us) not below Send/Receive "
                f"({sr:.1f}us) at {payload // KB}KB"
            )
    # ...and the receive-side copy degrades it at the top of the sweep.
    top = payloads[-1]
    if latency.value("rdma_channel", top) <= latency.value(
        "rdma_send_recv", top
    ):
        raise ReproError(
            "fig3a: receive-copy degradation not visible at "
            f"{top // KB}KB (channel should fall behind Send/Receive)"
        )
    return facts


def check_fig4_shape(
    latency: FigureTable, throughput: FigureTable
) -> List[str]:
    """Assert Figure 4's qualitative claims; returns human-readable facts."""
    facts: List[str] = []
    for payload in latency.payloads:
        nio_lat = latency.value("nio_tcp", payload)
        rubin_lat = latency.value("rubin", payload)
        kb = payload // KB
        if rubin_lat >= nio_lat:
            raise ReproError(
                f"fig4a: RUBIN latency not below NIO at {kb}KB "
                f"({rubin_lat:.0f} vs {nio_lat:.0f}us)"
            )
        facts.append(
            f"{kb}KB: RUBIN latency {percent_lower(rubin_lat, nio_lat):.0f}% "
            "< NIO"
        )
    # 1KB latency advantage near the paper's 19 %.
    one_kb = KB
    if one_kb in latency.payloads:
        adv = percent_lower(
            latency.value("rubin", one_kb), latency.value("nio_tcp", one_kb)
        )
        if not 10.0 <= adv <= 40.0:
            raise ReproError(
                f"fig4a: 1KB latency advantage {adv:.1f}%, expected ~19%"
            )
    # Throughput 25-38 % above TCP over the 20-100 KB axis (tolerance
    # widened: we accept 15-60 %).
    for payload in throughput.payloads:
        if payload < 20 * KB:
            continue
        gain = percent_higher(
            throughput.value("rubin", payload),
            throughput.value("nio_tcp", payload),
        )
        kb = payload // KB
        if not 15.0 <= gain <= 60.0:
            raise ReproError(
                f"fig4b: RUBIN throughput +{gain:.1f}% at {kb}KB, "
                "expected ~25-38%"
            )
        facts.append(f"{kb}KB: RUBIN throughput +{gain:.0f}% vs NIO")
    return facts


@dataclass(frozen=True)
class Figure:
    """One gated figure, declared once.

    ``run(messages)`` returns the figure's results (an echo figure's raw
    sweep, so its printed means are the runs' own) and ``points(results)``
    their ``BENCH_<name>.json`` points; ``rerun(point)`` repeats one point
    with its recorded parameters.  ``tolerances`` maps a metric path to
    (relative band, direction): ``+1`` regresses when the metric grows,
    ``-1`` when it shrinks.  ``scenario(tracer, sampler)`` runs the traced
    profile scenario behind ``PROFILE_<name>.json``, returning its
    parameters.
    """

    name: str
    #: Header of the printed figure; ``{messages}`` is filled in.
    title: str
    run: Callable[[Optional[int]], Any]
    rerun: Callable[[Mapping[str, Any]], Point]
    tolerances: Mapping[str, Tuple[float, int]]
    check_shape: Callable[[Any], List[str]]
    #: Printed with the outcome: ``"<verdict>: PASS"``.
    verdict: str
    render: Callable[[Any, bool], List[str]]
    scenario: Callable[[Any, Any], Dict[str, Any]]
    points: Callable[[Any], List[Point]] = list
    #: Default ``--messages`` per point; the BFT figures fix their own.
    messages: Optional[int] = None
    #: Print the ``--json-dir`` note above the rendering, not below it.
    note_first: bool = False


#: The echo figures' bands.  Tail percentiles get wider bands: they move
#: more under legitimate model adjustments.
ECHO_TOLERANCES: Dict[str, Tuple[float, int]] = {
    "latency_us.p50": (0.25, +1),
    "latency_us.p95": (0.30, +1),
    "latency_us.p99": (0.40, +1),
    "throughput_rps": (0.25, -1),
}


def _rerun_echo(workload, protocols: Mapping[str, str]):
    """Re-run an echo point; ``protocols`` maps the transport label a
    point stores back to the name ``workload`` takes."""
    return lambda point: echo_record(
        workload(
            protocols.get(point["transport"], point["transport"]),
            point["payload_bytes"],
            point["messages"],
        )
    )


def _rerun(run, keys: Iterable[str]) -> Callable[[Mapping[str, Any]], Point]:
    """Re-run a BFT point: ``run`` called with the point's ``keys``."""
    return lambda point: run(**{key: point[key] for key in keys})


def _scenario(run, **params) -> Callable[[Any, Any], Dict[str, Any]]:
    """A profile scenario: one traced ``run(**params)``, recorded as
    ``params``."""

    def scenario(tracer, sampler) -> Dict[str, Any]:
        run(**params, tracer=tracer, sampler=sampler)
        return dict(params)

    return scenario


def _render_panels(panels, throughput_format: str, charted: int):
    """Print an echo figure's two panels, and the ASCII chart of panel
    ``charted`` when asked."""

    def render(results: Sweep, chart: bool) -> List[str]:
        tables = panels(results)
        lines = [tables[0].render(), "", tables[1].render(throughput_format)]
        if chart:
            from repro.bench.plotting import ascii_chart

            lines += ["", ascii_chart(tables[charted])]
        return lines + [""]

    return render


def _check_overload(points: List[Point]) -> List[str]:
    violations = sum(point["audit_violations"] for point in points)
    if violations:
        raise ReproError(f"{violations} audit violations")
    return []


def _scenario_onesided(tracer, sampler) -> Dict[str, Any]:
    """The guarded attack point: fast path + denial path both traced."""
    run_onesided_point("attack-guarded", tracer=tracer, sampler=sampler)
    return {"mode": "attack-guarded", **ONESIDED_DEFAULTS}


def _per_point(template: str) -> Callable[[List[Point], bool], List[str]]:
    """Print each point through ``template`` (``str.format`` fields)."""
    return lambda points, chart: [template.format(**point) for point in points]


#: Every gated figure, in the order ``--fig all`` prints them.
FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure(
            name="fig3",
            title="Figure 3 (echo micro-benchmark, {messages} msgs/point)",
            run=lambda messages: fig3_sweep(messages, FIG3_PAYLOADS),
            rerun=_rerun_echo(run_echo, {}),
            tolerances=ECHO_TOLERANCES,
            check_shape=lambda results: check_fig3_shape(fig3_panels(results)[0]),
            verdict="Figure 3 shape checks",
            render=_render_panels(fig3_panels, "{:>12.2f}", 0),
            scenario=_scenario(run_echo, transport="rdma_channel",
                               payload_bytes=10 * KB, messages=20),
            points=sweep_points,
            messages=200,
            note_first=True,
        ),
        Figure(
            name="fig4",
            title="Figure 4 (Reptor-stack echo, {messages} msgs/point)",
            run=lambda messages: fig4_sweep(messages, FIG4_PAYLOADS),
            rerun=_rerun_echo(reptor_echo, {"nio_tcp": "nio"}),
            tolerances=ECHO_TOLERANCES,
            check_shape=lambda results: check_fig4_shape(*fig4_panels(results)),
            verdict="Figure 4 shape checks",
            render=_render_panels(fig4_panels, "{:>12.0f}", 1),
            scenario=_scenario(reptor_echo, transport="rubin",
                               payload_bytes=20 * KB, messages=30),
            points=sweep_points,
            messages=150,
            note_first=True,
        ),
        Figure(
            name="overload",
            title="Overload (open-loop burst at ~2x admission budget)",
            run=lambda messages: [run_overload()],
            rerun=_rerun(run_overload, OVERLOAD_DEFAULTS),
            # Goodput must not drop, the shed rate and completed-request
            # tail must not blow up.  Shedding is intentionally generous —
            # its absolute value is a scenario property, not a performance
            # target; the band only catches it *doubling*.
            tolerances={
                "latency_us.p99": (0.40, +1),
                "goodput_rps": (0.25, -1),
                "shed_rate": (0.50, +1),
            },
            check_shape=_check_overload,
            verdict="Overload graceful-degradation check",
            render=_per_point(
                "  goodput:     {goodput_rps:>10.0f} req/s\n"
                "  shed_rate:   {shed_rate:>10.2f} sheds/request\n"
                "  backoffs:    {busy_backoffs:>10d}\n"
                "  p50 latency: {latency_us[p50]:>10.0f} us\n"
                "  p99 latency: {latency_us[p99]:>10.0f} us"
            ),
            scenario=_scenario(run_overload, **OVERLOAD_DEFAULTS),
        ),
        Figure(
            name="onesided",
            title="One-sided agreement (latency win + attack blast radius)",
            run=lambda messages: [run_onesided_point(m) for m in ONESIDED_MODES],
            rerun=_rerun(
                run_onesided_point,
                ("mode", "payload_bytes", "messages", "request_gap", "attack_at"),
            ),
            # Latency banded like the echo figures; the security metrics
            # gated *exactly* (tolerance 0, deterministic run): the blast
            # radius may never grow past its baseline — in particular the
            # guarded points' committed 0 — and detections and completed
            # requests may never drop.
            tolerances={
                "latency_us.p50": (0.25, +1),
                "latency_us.p99": (0.40, +1),
                "blast_radius": (0.0, +1),
                "detections": (0.0, -1),
                "completed": (0.0, -1),
            },
            check_shape=check_onesided_shape,
            verdict="One-sided shape checks",
            render=_per_point(
                "  {mode:>16}: p50 {latency_us[p50]:>7.1f} us  "
                "committed {completed:>3d}/{messages}  "
                "blast {blast_radius}  detections {detections}"
            ),
            scenario=_scenario_onesided,
        ),
        Figure(
            name="cop",
            # The COP sweep ignores --messages: its headline claim (G=4
            # commits 2x the G=1 rate) only holds once the pipelines are
            # saturated, so the request count is part of the benchmark
            # definition, not a knob.
            title="COP (multi-group ordering pipelines, 256 requests/point)",
            run=lambda messages: [run_cop_point(g) for g in COP_GROUP_COUNTS],
            rerun=_rerun(
                run_cop_point,
                ("group_count", "transport", "payload_bytes", "messages",
                 "num_clients", "batch_size", "handler_cost"),
            ),
            # Committed-request throughput per group count plus
            # client-observed latency.  The G=4/G=1 speedup itself is the
            # shape check's; the bands keep every point from drifting.
            tolerances={
                "latency_us.p50": (0.25, +1),
                "latency_us.p99": (0.40, +1),
                "committed_rps": (0.25, -1),
            },
            check_shape=check_cop_shape,
            verdict="COP shape checks",
            render=_per_point(
                "  G={group_count}: {committed_rps:>8.0f} req/s  "
                "p50 {latency_us[p50]:>7.0f} us  p99 {latency_us[p99]:>7.0f} us  "
                "max_batch {max_batch_limit}  per_group {per_group_committed}"
            ),
            scenario=_scenario(run_cop_point, group_count=4, payload_bytes=64,
                               messages=64, num_clients=4),
        ),
    )
}
