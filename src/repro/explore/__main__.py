"""CLI for the schedule explorer.

Modes (mutually exclusive):

- ``--smoke``            budgeted sweep over the scenario catalog plus
                         the seeded-mutant self-test (CI entry point);
- ``--scenario NAME``    explore one scenario (repeatable);
- ``--replay TRACE``     re-execute a recorded failing trace;
- ``--selftest``         only the find → shrink → replay self-test;
- ``--list``             print the scenario and mutant catalogs.

Exit status is 0 only when every explored schedule satisfied the audit
invariants and the history oracle (and, for ``--smoke``/``--selftest``,
the self-test passed).  Failing traces and flight-recorder post-mortems
land under ``--out`` for offline replay.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.explore.engine import ExploreBudget, Explorer
from repro.explore.mutants import MUTANTS
from repro.explore.scenario import SCENARIOS, ScenarioSpec, get_scenario
from repro.explore.selftest import run_selftest, selftest_spec
from repro.explore.trace import DecisionTrace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="systematic schedule exploration with fault injection",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="budgeted sweep over all scenarios + seeded-mutant self-test",
    )
    mode.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="explore one scenario from the catalog (repeatable)",
    )
    mode.add_argument(
        "--replay",
        metavar="TRACE",
        help="re-execute a recorded decision trace (JSON file)",
    )
    mode.add_argument(
        "--selftest",
        action="store_true",
        help="run only the seeded-mutant find/shrink/replay self-test",
    )
    mode.add_argument(
        "--list",
        action="store_true",
        help="print the scenario and mutant catalogs and exit",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=3_000_000,
        metavar="EVENTS",
        help="total kernel-event budget per scenario (default: %(default)s)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=60,
        metavar="N",
        help="max schedules per scenario (default: %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed for fuzz schedules (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="explore-out",
        metavar="DIR",
        help="directory for failing traces / post-mortems / report",
    )
    return parser


def _resolve_spec(
    name: str, mutant_name: Optional[str] = None
) -> ScenarioSpec:
    if name.startswith("selftest:"):
        # The stripped spec depends on which mutant the trace was
        # recorded against (guard-off runs use the one-sided scenario).
        if mutant_name:
            return selftest_spec(mutant_name)
        return selftest_spec()
    return get_scenario(name)


def _dump_failures(explorer: Explorer, out_dir: Path) -> List[str]:
    paths: List[str] = []
    for index, record in enumerate(explorer.report.failures):
        path = out_dir / f"{explorer.spec.name}-failure-{index}.trace.json"
        record.trace.save(path)
        paths.append(str(path))
        for pm_index, postmortem in enumerate(record.outcome.postmortems):
            pm_path = (
                out_dir
                / f"{explorer.spec.name}-failure-{index}-pm{pm_index}.json"
            )
            pm_path.write_text(json.dumps(postmortem, indent=2, default=str))
            paths.append(str(pm_path))
    return paths


def _explore(
    names: List[str], args: argparse.Namespace, out_dir: Path
) -> Dict[str, Any]:
    report: Dict[str, Any] = {"scenarios": [], "artifacts": []}
    total_distinct = 0
    ok = True
    for name in names:
        explorer = Explorer(
            _resolve_spec(name),
            seed=args.seed,
            budget=ExploreBudget(max_events=args.budget, max_runs=args.runs),
        )
        result = explorer.explore()
        summary = result.summary()
        report["scenarios"].append(summary)
        total_distinct += result.distinct_schedules
        ok = ok and result.ok
        report["artifacts"].extend(_dump_failures(explorer, out_dir))
        status = "ok" if result.ok else "VIOLATIONS"
        print(
            f"[{name}] {status}: {result.runs} runs, "
            f"{result.distinct_schedules} distinct schedules, "
            f"{result.events_used} events"
            + (f" (budget exhausted: {result.exhausted})"
               if result.exhausted else "")
        )
    report["distinct_schedules_total"] = total_distinct
    report["ok"] = ok
    return report


def _replay(path: str, out_dir: Path) -> Dict[str, Any]:
    trace = DecisionTrace.load(path)
    mutant = MUTANTS[trace.mutant] if trace.mutant else None
    spec = _resolve_spec(trace.scenario, trace.mutant)
    explorer = Explorer(spec, mutant=mutant, mutant_name=trace.mutant)
    record = explorer.replay(trace)
    outcome = record.outcome
    report = {
        "trace": trace.to_dict(),
        "ok": outcome.ok,
        "rules": list(outcome.rules),
        "fingerprint": outcome.fingerprint,
        "events": outcome.events,
    }
    recorded = trace.meta.get("fingerprint")
    if recorded:
        report["fingerprint_matches_recording"] = (
            recorded == outcome.fingerprint
        )
    status = "ok (no violation)" if outcome.ok else "VIOLATION reproduced"
    print(f"[replay {trace.scenario}] {status}: rules={sorted(outcome.rules)}")
    if recorded:
        match = "matches" if report["fingerprint_matches_recording"] else \
            "DIFFERS FROM"
        print(f"  fingerprint {match} recording")
    report["artifacts"] = _dump_failures(explorer, out_dir)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list:
        print("scenarios:")
        for name, spec in SCENARIOS.items():
            members = ", ".join(
                f"{a.kind}@{a.target}" for a in spec.member_faults()
            )
            print(
                f"  {name}: transport={spec.transport} "
                f"members=[{members or 'none'}] faults={len(spec.faults)}"
            )
        print("mutants:")
        for name in MUTANTS:
            print(f"  {name}")
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any]

    if args.replay:
        report = _replay(args.replay, out_dir)
        # Replaying a failing trace SHOULD fail — reproducing the
        # violation is success.  Exit 0 when the verdict matches the
        # recording (or no verdict was recorded).
        recorded_rules = set(
            DecisionTrace.load(args.replay).meta.get("rules", [])
        )
        reproduced = (
            set(report["rules"]) == recorded_rules
            if recorded_rules
            else report["ok"]
        )
        report["reproduced"] = reproduced
        exit_code = 0 if reproduced else 1
    elif args.selftest:
        report = {
            "selftests": {
                name: run_selftest(name, seed=args.seed) for name in MUTANTS
            }
        }
        ok = all(r["ok"] for r in report["selftests"].values())
        for name, result in report["selftests"].items():
            print(f"[selftest:{name}] {'ok' if result['ok'] else 'FAILED'}")
        exit_code = 0 if ok else 1
    elif args.scenario:
        report = _explore(args.scenario, args, out_dir)
        exit_code = 0 if report["ok"] else 1
    else:
        # --smoke (also the default mode): full catalog + one
        # find/shrink/replay self-test per registered mutant.
        report = _explore(list(SCENARIOS), args, out_dir)
        report["selftests"] = {}
        selftest_ok = True
        for mutant_name in MUTANTS:
            result = run_selftest(mutant_name, seed=args.seed)
            report["selftests"][mutant_name] = result
            selftest_ok = selftest_ok and result["ok"]
            print(
                f"[selftest:{mutant_name}] "
                f"{'ok' if result['ok'] else 'FAILED'}: "
                f"mutant found={result['found']} "
                f"shrink={result.get('shrink')}"
            )
        print(
            f"[smoke] scenarios={len(report['scenarios'])} "
            f"distinct_schedules={report['distinct_schedules_total']} "
            f"clean={report['ok']}"
        )
        report["ok"] = report["ok"] and selftest_ok
        exit_code = 0 if report["ok"] else 1

    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, default=str))
    print(f"report: {report_path}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
