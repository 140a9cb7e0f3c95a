"""Regenerate the paper's full evaluation from the command line.

Usage::

    python -m repro.bench                 # all four panels, default sizes
    python -m repro.bench --fig 3         # just Figure 3
    python -m repro.bench --messages 500  # heavier run
    python -m repro.bench --chart         # add ASCII charts
    python -m repro.bench --check         # regression gate vs baselines
    python -m repro.bench --check --obs-dir artifacts/obs  # + obs artifacts
    python -m repro.bench --update-baseline   # refresh BENCH_* + PROFILE_*
    python -m repro.bench --wallclock     # simulator throughput report
    python -m repro.bench --wallclock --check   # wall-clock gate

When ``--check`` fails a figure's tolerance band, the gate re-runs that
figure's profile scenario and prints the ranked suspect layers against
the committed ``PROFILE_<figure>.json`` (also appended to the GitHub job
summary when ``$GITHUB_STEP_SUMMARY`` is set), so a red gate names the
layer that moved, not just the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.baseline import write_baseline
from repro.bench.figures import (
    FIG3_PAYLOADS,
    FIG4_PAYLOADS,
    check_fig3_shape,
    check_fig4_shape,
    fig3_sweep,
    fig3a_latency,
    fig3b_throughput,
    fig4_sweep,
    fig4a_latency,
    fig4b_throughput,
)
from repro.bench.plotting import ascii_chart
from repro.errors import ReproError

#: Where ``--check`` appends its trajectory line: the untracked artifact
#: directory, not the committed baselines.
DEFAULT_HISTORY = os.path.join("artifacts", "BENCH_history.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "--fig",
        choices=("3", "4", "overload", "onesided", "cop", "all"),
        default="all",
    )
    parser.add_argument(
        "--messages",
        type=int,
        default=None,
        help="messages per point (defaults: 200 for fig3, 150 for fig4; "
        "the cop sweep is fixed at 256)",
    )
    parser.add_argument(
        "--chart", action="store_true", help="render ASCII charts too"
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        metavar="DIR",
        help="also write BENCH_fig3.json / BENCH_fig4.json into DIR",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="regression gate: re-run the committed baselines and fail "
        "on any metric outside its tolerance band",
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        metavar="DIR",
        help="directory holding BENCH_fig*.json (for --check)",
    )
    parser.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        metavar="FILE",
        help="history JSONL appended by --check "
        f"(default: {DEFAULT_HISTORY}, beside the other run artifacts: "
        "a clean check leaves the tree clean)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.0,
        metavar="SCALE",
        help="scale every tolerance band by this factor (for --check)",
    )
    parser.add_argument(
        "--wallclock",
        action="store_true",
        help="measure simulator wall-clock throughput: the Fig-3/Fig-4 "
        "sweeps (median of three rounds) and bytes copied per delivered "
        "frame; with --check, gate against BENCH_wallclock.json",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="refresh the committed baselines for --fig: BENCH_*.json and "
        "the matching PROFILE_*.json critical-path profiles, written "
        "atomically together (with --wallclock: BENCH_wallclock.json)",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="with --check: also write fresh observability artifacts "
        "(PROFILE_*.json critical-path profiles and TIMESERIES_*.json "
        "metric dumps) for every checked figure into DIR",
    )
    args = parser.parse_args(argv)

    if args.wallclock:
        return run_wallclock_cli(args)

    if args.update_baseline:
        return run_update_baseline(args)

    if args.check:
        return run_gate(args)

    if args.json_dir is not None:
        os.makedirs(args.json_dir, exist_ok=True)
    failures = 0

    if args.fig in ("3", "all"):
        messages = args.messages or 200
        print(f"== Figure 3 (echo micro-benchmark, {messages} msgs/point) ==")
        results = fig3_sweep(messages, FIG3_PAYLOADS)
        latency = fig3a_latency(results=results)
        throughput = fig3b_throughput(results=results)
        if args.json_dir is not None:
            path = os.path.join(args.json_dir, "BENCH_fig3.json")
            write_baseline("fig3", results, path)
            print(f"  wrote {path}")
        print(latency.render())
        print()
        print(throughput.render(float_format="{:>12.2f}"))
        if args.chart:
            print()
            print(ascii_chart(latency))
        print()
        try:
            for fact in check_fig3_shape(latency):
                print("  ", fact)
            print("  Figure 3 shape checks: PASS")
        except ReproError as error:
            failures += 1
            print(f"  Figure 3 shape checks: FAIL — {error}")
        print()

    if args.fig in ("4", "all"):
        messages = args.messages or 150
        print(f"== Figure 4 (Reptor-stack echo, {messages} msgs/point) ==")
        results = fig4_sweep(messages, FIG4_PAYLOADS)
        latency = fig4a_latency(results=results)
        throughput = fig4b_throughput(results=results)
        if args.json_dir is not None:
            path = os.path.join(args.json_dir, "BENCH_fig4.json")
            write_baseline("fig4", results, path)
            print(f"  wrote {path}")
        print(latency.render())
        print()
        print(throughput.render(float_format="{:>12.0f}"))
        if args.chart:
            print()
            print(ascii_chart(throughput))
        print()
        try:
            for fact in check_fig4_shape(latency, throughput):
                print("  ", fact)
            print("  Figure 4 shape checks: PASS")
        except ReproError as error:
            failures += 1
            print(f"  Figure 4 shape checks: FAIL — {error}")
        print()

    if args.fig in ("overload", "all"):
        from repro.bench.overload import run_overload

        print("== Overload (open-loop burst at ~2x admission budget) ==")
        record = run_overload()
        print(
            f"  goodput:     {record['goodput_rps']:>10.0f} req/s\n"
            f"  shed_rate:   {record['shed_rate']:>10.2f} sheds/request\n"
            f"  backoffs:    {record['busy_backoffs']:>10d}\n"
            f"  p50 latency: {record['latency_us']['p50']:>10.0f} us\n"
            f"  p99 latency: {record['latency_us']['p99']:>10.0f} us"
        )
        if args.json_dir is not None:
            path = os.path.join(args.json_dir, "BENCH_overload.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {"figure": "overload", "points": [record]},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
            print(f"  wrote {path}")
        if record["audit_violations"]:
            failures += 1
            print(
                "  Overload graceful-degradation check: FAIL — "
                f"{record['audit_violations']} audit violations"
            )
        else:
            print("  Overload graceful-degradation check: PASS")
        print()

    if args.fig in ("onesided", "all"):
        from repro.bench.onesided import check_onesided_shape, run_onesided

        print(
            "== One-sided agreement (latency win + attack blast radius) =="
        )
        points = run_onesided()
        for point in points:
            print(
                f"  {point['mode']:>16}: "
                f"p50 {point['latency_us']['p50']:>7.1f} us  "
                f"committed {point['completed']:>3d}/{point['messages']}  "
                f"blast {point['blast_radius']}  "
                f"detections {point['detections']}"
            )
        if args.json_dir is not None:
            path = os.path.join(args.json_dir, "BENCH_onesided.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {"figure": "onesided", "points": points},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
            print(f"  wrote {path}")
        try:
            for fact in check_onesided_shape(points):
                print("  ", fact)
            print("  One-sided shape checks: PASS")
        except ReproError as error:
            failures += 1
            print(f"  One-sided shape checks: FAIL — {error}")
        print()

    if args.fig in ("cop", "all"):
        from repro.bench.cop import check_cop_shape, run_cop

        # The COP sweep ignores --messages: its headline claim (G=4
        # commits 2x the G=1 rate) only holds once the pipelines are
        # saturated, so the request count is part of the benchmark
        # definition, not a knob.
        print("== COP (multi-group ordering pipelines, 256 requests/point) ==")
        points = run_cop()
        for point in points:
            print(
                f"  G={point['group_count']}: "
                f"{point['committed_rps']:>8.0f} req/s  "
                f"p50 {point['latency_us']['p50']:>7.0f} us  "
                f"p99 {point['latency_us']['p99']:>7.0f} us  "
                f"max_batch {point['max_batch_limit']}  "
                f"per_group {point['per_group_committed']}"
            )
        if args.json_dir is not None:
            path = os.path.join(args.json_dir, "BENCH_cop.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    {"figure": "cop", "points": points},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
            print(f"  wrote {path}")
        try:
            for fact in check_cop_shape(points):
                print("  ", fact)
            print("  COP shape checks: PASS")
        except ReproError as error:
            failures += 1
            print(f"  COP shape checks: FAIL — {error}")

    return 1 if failures else 0


def run_wallclock_cli(args) -> int:
    """Run the wall-clock harness; with ``--check``, gate it."""
    from repro.bench.wallclock import (
        append_wallclock_history,
        check_wallclock,
        load_wallclock_baseline,
        run_wallclock,
        write_wallclock_baseline,
    )

    baseline_path = os.path.join(args.baseline_dir, "BENCH_wallclock.json")
    print("== Simulator wall-clock throughput ==")
    document = run_wallclock(verbose=True)
    if args.json_dir is not None:
        from repro.obs.sampler import write_json_atomic

        os.makedirs(args.json_dir, exist_ok=True)
        fresh_path = os.path.join(args.json_dir, "BENCH_wallclock.json")
        write_json_atomic(document, fresh_path)
        print(f"  wrote {fresh_path}")

    if args.update_baseline:
        write_wallclock_baseline(document, baseline_path)
        print(f"  wrote baseline {baseline_path}")
        return 0

    if not args.check:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    try:
        baseline = load_wallclock_baseline(baseline_path)
        ok, checks = check_wallclock(
            document, baseline, tolerance_scale=args.tolerance
        )
    except (OSError, ReproError) as error:
        print(f"wallclock gate error: {error}")
        return 2
    same_host = baseline["host"]["fingerprint"] == document["host"]["fingerprint"]
    if not same_host:
        print(
            "  note: baseline recorded on different hardware "
            f"({baseline['host'].get('machine')}, "
            f"py{baseline['host'].get('python')}) — "
            "host-dependent metrics warn instead of failing"
        )
    for check in checks:
        marker = "FAIL" if check["regressed"] else (
            "warn" if check["warned"] else "ok"
        )
        print(
            f"  [{marker:>4}] {check['metric']}: "
            f"baseline={check['baseline']:,.1f} "
            f"fresh={check['fresh']:,.1f} "
            f"(±{check['tolerance'] * 100:.0f}%)"
        )
    append_wallclock_history(args.history, document, checks)
    print(f"history appended to {args.history}")
    print("  wallclock gate: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


#: Which baseline figures each ``--fig`` choice gates.
GATE_FIGURES = {
    "3": ("fig3",),
    "4": ("fig4",),
    "overload": ("overload",),
    "onesided": ("onesided",),
    "cop": ("cop",),
    "all": ("fig3", "fig4", "overload", "onesided", "cop"),
}


def _append_step_summary(lines) -> None:
    """Append markdown to the GitHub Actions job summary, when in CI."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError:
        pass  # a broken summary file must not mask the gate verdict


def run_gate(args) -> int:
    """Run the performance-regression gate and report per metric.

    Failing figures additionally get a critical-path attribution pass:
    the figure's profile scenario is re-captured and diffed against the
    committed ``PROFILE_<figure>.json`` to rank the suspect layers.
    """
    from repro.bench.profiles import attribute_figure, capture_observability
    from repro.bench.regression import run_check
    from repro.obs.sampler import write_json_atomic

    figures = GATE_FIGURES[args.fig]
    try:
        ok, reports = run_check(
            args.baseline_dir,
            figures=figures,
            history_path=args.history,
            tolerance_scale=args.tolerance,
        )
    except ReproError as error:
        print(f"regression gate error: {error}")
        return 2

    # Fresh observability artifacts (profiles + time series) per checked
    # figure.  Captured once and reused by the attribution pass below.
    fresh_profiles = {}
    if args.obs_dir is not None:
        from repro.bench.profiles import profile_path, timeseries_path

        os.makedirs(args.obs_dir, exist_ok=True)
        for figure in figures:
            try:
                profile, timeseries = capture_observability(
                    figure, with_timeseries=True
                )
            except ReproError as error:
                print(f"  note: {figure} observability capture failed: {error}")
                continue
            fresh_profiles[figure] = profile
            write_json_atomic(profile, profile_path(args.obs_dir, figure))
            write_json_atomic(timeseries, timeseries_path(args.obs_dir, figure))
        print(f"observability artifacts written to {args.obs_dir}")

    for report in reports:
        print(f"== {report.figure} regression check ==")
        for point in report.points:
            label = f"{point.transport} {point.payload_bytes}B"
            if point.group_count is not None:
                label += f" G={point.group_count}"
            for check in point.checks:
                marker = "FAIL" if check.regressed else "ok"
                print(
                    f"  [{marker:>4}] {label} {check.metric}: "
                    f"baseline={check.baseline:.3f} "
                    f"fresh={check.fresh:.3f} "
                    f"(±{check.tolerance * 100:.0f}%)"
                )
        print(
            f"  {report.figure}: "
            + ("PASS" if report.ok else f"FAIL ({len(report.regressions)} regressions)")
        )
        if not report.ok:
            try:
                suspect_lines = attribute_figure(
                    report.figure,
                    args.baseline_dir,
                    fresh=fresh_profiles.get(report.figure),
                )
            except ReproError as error:
                suspect_lines = [f"attribution unavailable: {error}"]
            print(f"  -- {report.figure} critical-path suspects --")
            for line in suspect_lines:
                print(f"  {line}")
            _append_step_summary(
                [f"### {report.figure} regression suspects", "```"]
                + suspect_lines
                + ["```"]
            )
    print(f"history appended to {args.history}")
    return 0 if ok else 1


def run_update_baseline(args) -> int:
    """Refresh committed BENCH_* baselines and their PROFILE_* profiles.

    Every point of each selected figure's committed baseline is re-run
    with its recorded parameters and the document rewritten atomically;
    the figure's critical-path profile is re-captured in the same pass so
    the two can never drift apart.  ``--fig all`` also refreshes the
    chaos profile (which has no bench baseline of its own).
    """
    from repro.bench.baseline import echo_record
    from repro.bench.profiles import capture_profile, profile_path
    from repro.bench.regression import load_baseline, rerun_point
    from repro.obs.sampler import write_json_atomic

    figures = GATE_FIGURES[args.fig]
    failures = 0
    for figure in figures:
        bench_path = os.path.join(args.baseline_dir, f"BENCH_{figure}.json")
        try:
            document = load_baseline(bench_path)
            points = []
            for point in document["points"]:
                rerun = rerun_point(figure, point)
                fresh = rerun if isinstance(rerun, dict) else echo_record(rerun)
                points.append(fresh)
            write_json_atomic(
                {"figure": figure, "points": points}, bench_path
            )
            print(f"  wrote {bench_path}")
            target = profile_path(args.baseline_dir, figure)
            write_json_atomic(capture_profile(figure), target)
            print(f"  wrote {target}")
        except (OSError, ReproError) as error:
            failures += 1
            print(f"  {figure} baseline update FAILED: {error}")
    if args.fig == "all":
        try:
            target = profile_path(args.baseline_dir, "chaos")
            write_json_atomic(capture_profile("chaos"), target)
            print(f"  wrote {target}")
        except ReproError as error:
            failures += 1
            print(f"  chaos profile update FAILED: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
