"""Regenerate the paper's full evaluation from the command line.

Usage::

    python -m repro.bench                 # every figure, default sizes
    python -m repro.bench --fig 3         # just Figure 3
    python -m repro.bench --messages 500  # heavier run
    python -m repro.bench --chart         # add ASCII charts
    python -m repro.bench --check         # regression gate vs baselines
    python -m repro.bench --check --obs-dir artifacts/obs  # + obs artifacts
    python -m repro.bench --update-baseline   # refresh BENCH_* + PROFILE_*

Every mode loops over the figure registry
(:data:`repro.bench.figures.FIGURES`); ``--fig`` picks one of its names
(``3`` and ``4`` stand for ``fig3`` and ``fig4``) or ``all``.

When ``--check`` fails a figure's tolerance band, the gate re-runs that
figure's profile scenario and prints the ranked suspect layers against
the committed ``PROFILE_<figure>.json`` (also appended to the GitHub job
summary when ``$GITHUB_STEP_SUMMARY`` is set), so a red gate names the
layer that moved, not just the metric.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.figures import FIGURES
from repro.bench.profiles import (
    attribute_figure,
    capture_observability,
    capture_profile,
    profile_path,
    scenarios,
    timeseries_path,
)
from repro.bench.regression import load_baseline, run_check
from repro.errors import ReproError
from repro.obs.sampler import write_json_atomic

#: Where ``--check`` appends its trajectory line: the untracked artifact
#: directory, not the committed baselines.
DEFAULT_HISTORY = os.path.join("artifacts", "BENCH_history.jsonl")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "--fig",
        type=lambda value: f"fig{value}" if value.isdigit() else value,
        choices=(*FIGURES, "all"),
        default="all",
    )
    parser.add_argument(
        "--messages",
        type=int,
        default=None,
        help="messages per point (defaults: 200 for fig3, 150 for fig4; "
        "the other figures fix their own request counts)",
    )
    parser.add_argument(
        "--chart", action="store_true", help="render ASCII charts too"
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        metavar="DIR",
        help="also write BENCH_<figure>.json for every figure run into DIR",
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
        help="directory holding BENCH_<figure>.json (for --check)",
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
        "--update-baseline",
        action="store_true",
        help="refresh the committed baselines for --fig: BENCH_*.json and "
        "the matching PROFILE_*.json critical-path profiles, written "
        "atomically together",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="with --check: also write fresh observability artifacts "
        "(PROFILE_*.json critical-path profiles and TIMESERIES_*.json "
        "metric dumps) for every checked figure into DIR",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    figures = tuple(FIGURES) if args.fig == "all" else (args.fig,)
    if args.update_baseline:
        return run_update_baseline(args, figures)
    if args.check:
        return run_gate(args, figures)

    failures = 0
    for name in figures:
        figure = FIGURES[name]
        messages = args.messages or figure.messages
        print(f"== {figure.title.format(messages=messages)} ==")
        results = figure.run(messages)
        lines = figure.render(results, args.chart)
        if args.json_dir is not None:
            path = os.path.join(args.json_dir, f"BENCH_{name}.json")
            write_json_atomic({"figure": name, "points": figure.points(results)}, path)
            note = f"  wrote {path}"
            lines = [note, *lines] if figure.note_first else [*lines, note]
        print("\n".join(lines))
        try:
            for fact in figure.check_shape(results):
                print("  ", fact)
            print(f"  {figure.verdict}: PASS")
        except ReproError as error:
            failures += 1
            print(f"  {figure.verdict}: FAIL — {error}")
        if name != list(FIGURES)[-1]:  # the registry's last closes the run
            print()
    return 1 if failures else 0


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


def run_gate(args, figures) -> int:
    """Run the performance-regression gate and report per metric.

    Failing figures additionally get a critical-path attribution pass:
    the figure's profile scenario is re-captured and diffed against the
    committed ``PROFILE_<figure>.json`` to rank the suspect layers.
    """
    try:
        ok, reports = run_check(
            args.baseline_dir, figures=figures, history_path=args.history
        )
    except ReproError as error:
        print(f"regression gate error: {error}")
        return 2

    # Fresh observability artifacts (profiles + time series) per checked
    # figure.  Captured once and reused by the attribution pass below.
    fresh_profiles = {}
    if args.obs_dir is not None:
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
            for check in point.checks:
                marker = "FAIL" if check.regressed else "ok"
                print(
                    f"  [{marker:>4}] {point.label} {check.metric}: "
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


def run_update_baseline(args, figures) -> int:
    """Refresh committed BENCH_* baselines and their PROFILE_* profiles.

    Every point of each selected figure's committed baseline is re-run
    with its recorded parameters and the document rewritten atomically;
    the figure's critical-path profile is re-captured in the same pass so
    the two can never drift apart.  ``--fig all`` also refreshes the
    chaos profile (which has no bench baseline of its own).
    """
    failures = 0
    for name in scenarios() if args.fig == "all" else figures:
        try:
            if name in FIGURES:
                path = os.path.join(args.baseline_dir, f"BENCH_{name}.json")
                points = [
                    FIGURES[name].rerun(point)
                    for point in load_baseline(path)["points"]
                ]
                write_json_atomic({"figure": name, "points": points}, path)
                print(f"  wrote {path}")
            path = profile_path(args.baseline_dir, name)
            write_json_atomic(capture_profile(name), path)
            print(f"  wrote {path}")
        except (OSError, ReproError) as error:
            failures += 1
            print(f"  {name} baseline update FAILED: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
