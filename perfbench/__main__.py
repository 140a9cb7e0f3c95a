"""``python -m perfbench run | trace | compare | selfcheck``.

``run`` measures the end-to-end metrics (everything switched off);
``trace`` (= ``run --trace 1``) makes the separate profiled and traced
passes that yield the per-layer numbers.  With exactly one
``--workload`` the last line of standard output is the one-object JSON
summary the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from perfbench.runner import EXACT, OUT_DIR, load_spec, measure, trace, write_json

#: Repetitions of ``run`` when neither ``--reps`` nor ``--seconds`` is given.
DEFAULT_REPS = 5


def _print_run(doc: Dict[str, Any], why: str) -> None:
    print(f"\n== {doc['workload']} (seed {doc['seed']}, {doc['reps']} reps) — {why}")
    for name, m in doc["metrics"].items():
        spread = f"  [q1 {m['q1']:.6g} .. q3 {m['q3']:.6g}]" if "q1" in m else ""
        note = f"  (n = {doc['samples']} samples)" if name == "sim_p99_us" else ""
        print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<5}{spread}{note}")
    for name, m in doc["wall"].items():
        print(f"  ({name:<15} {m['value']:>13.6g} {m['unit']:<5} raw wall clock)")
    print(f"  {'failed_share':<16} {doc['failed_share']:>14.6g} ratio"
          f"  ({doc['failed']} of {doc['attempted']} ops)")
    print(f"  {'sim_digest':<16} {doc['sim_digest'][:16]}…")
    _print_verdict(doc)


def _print_trace(doc: Dict[str, Any], why: str) -> None:
    print(f"\n== {doc['workload']} (seed {doc['seed']}, per layer) — {why}")
    for name, m in doc["per_layer"].items():
        layer = name.rsplit(".", 1)[0]
        share = doc["layer_shares"].get(layer)
        note = (
            f"  ({share:.1%} of host self time)"
            if share is not None and name.endswith("host_self_us_per_op")
            else ""
        )
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  absent here: {', '.join(doc['absent']) or 'nothing'}")
    for check, ratio in doc["checks"].items():
        print(f"  check {check} = {ratio:.5f}")
    _print_verdict(doc)


def _print_verdict(doc: Dict[str, Any]) -> None:
    for error in doc["errors"]:
        print(f"  ERROR: {error}")
    print(f"  outputs verified: {'yes' if doc['correct'] else 'NO'}")


def contract_line(doc: Dict[str, Any], names: List[Dict[str, Any]]) -> str:
    """The last line the benchmark contract wants: every listed metric,
    a bypassed layer's as 0 (the table above says which were absent)."""
    table = doc["per_layer"] if "per_layer" in doc else doc["metrics"]
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {
                m["name"]: {
                    "value": table.get(m["name"], {}).get("value", 0.0),
                    "unit": m["unit"],
                }
                for m in names
            },
        }
    )


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload is not None and args.workload not in why:
        raise SystemExit(f"perfbench: no workload {args.workload!r} (have {list(why)})")
    names = [args.workload] if args.workload else list(why)
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = DEFAULT_REPS
    docs = {}
    for name in names:
        if args.trace:
            docs[name] = trace(name, args.seed, args.scale)
            _print_trace(docs[name], why[name])
        else:
            docs[name] = measure(name, args.seed, args.scale, reps, args.seconds)
            _print_run(docs[name], why[name])
    out = args.out or OUT_DIR / ("layers.json" if args.trace else "run.json")
    write_json(out, {"seed": args.seed, "scale": args.scale, "workloads": docs})
    print(f"\nwritten: {out}")
    if len(names) == 1:
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(contract_line(docs[names[0]], listed))
    return 0 if all(doc["correct"] for doc in docs.values()) else 1


# ---------------------------------------------------------------------------
# compare / selfcheck
# ---------------------------------------------------------------------------


def compare(
    base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]
) -> List[Tuple[str, str, Any, Any, Optional[float], Any, str]]:
    """Rows of (workload, metric, base, new, new/base, bound, verdict)."""
    rows = []
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            continue
        for m in spec["end_to_end"]:
            ma, mb = a["metrics"][m["name"]], b["metrics"][m["name"]]
            ratio = mb["value"] / ma["value"]
            worse_by = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            spread = (ma.get("q3", 0.0) - ma.get("q1", 0.0)) / ma["value"]
            if spread > m["bound"]:
                # Base's own repetitions scatter by more than the bound:
                # the pair can show neither "worse" nor "unchanged".
                verdict = "unresolved"
            else:
                verdict = "worse" if worse_by > m["bound"] else "ok"
            rows.append(
                (name, m["name"], ma["value"], mb["value"], ratio, m["bound"], verdict)
            )
        rows.append(
            (
                name, "failed_share", a["failed_share"], b["failed_share"], None, 0,
                "worse" if b["failed_share"] > a["failed_share"] else "ok",
            )
        )
        rows.append(
            (
                name, "sim_digest", a["sim_digest"][:12], b["sim_digest"][:12], None,
                "exact", "same" if a["sim_digest"] == b["sim_digest"] else "differs",
            )
        )
    return rows


def _print_rows(rows) -> None:
    print(f"{'workload':<18}{'metric':<16}{'base':>14}{'new':>14}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for name, metric, base, new, ratio, bound, verdict in rows:
        cells = [f"{v:>14.6g}" if isinstance(v, (int, float)) else f"{v:>14}"
                 for v in (base, new)]
        shown = f"{ratio:>10.4f}" if ratio is not None else f"{'':>10}"
        print(f"{name:<18}{metric:<16}{cells[0]}{cells[1]}{shown}"
              f"{bound!s:>7}  {verdict}")


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)
    rows = compare(base, new, load_spec())
    _print_rows(rows)
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Two full sets of runs of the same code must agree with each other."""
    spec = load_spec()
    sets = []
    for label in ("A", "B"):
        docs = {}
        for w in spec["workloads"]:
            print(f"selfcheck: set {label}, {w['name']}", file=sys.stderr)
            docs[w["name"]] = measure(w["name"], args.seed, args.scale, args.reps)
        sets.append({"workloads": docs})
    rows = compare(sets[0], sets[1], spec)
    _print_rows(rows)
    problems = [
        f"{name}: {metric} is {verdict}"
        for name, metric, _a, _b, _r, _bound, verdict in rows
        if verdict not in ("ok", "same")
    ]
    for name, a in sets[0]["workloads"].items():
        b = sets[1]["workloads"][name]
        problems += [
            f"{name}: {key} differs between the two sets"
            for key in EXACT
            if a["metrics"][key]["value"] != b["metrics"][key]["value"]
        ]
        problems += [f"{name}: {e}" for e in a["errors"] + b["errors"]]
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--reps", type=int, default=None,
                         help="plain repetitions per workload")
        sub.add_argument("--scale", type=float, default=1.0,
                         help="multiplies op counts; smoke runs only")

    for command in ("run", "trace"):
        sub = commands.add_parser(command)
        common(sub)
        sub.add_argument("--workload", default=None)
        sub.add_argument("--seconds", type=float, default=None,
                         help="repeat until this much measured host time")
        sub.add_argument("--trace", type=int, choices=(0, 1),
                         default=int(command == "trace"))
        sub.add_argument("--out", default=None)
        sub.set_defaults(handler=cmd_run)

    sub = commands.add_parser("compare")
    sub.add_argument("base")
    sub.add_argument("new")
    sub.set_defaults(handler=cmd_compare)

    sub = commands.add_parser("selfcheck")
    common(sub)
    sub.set_defaults(handler=cmd_selfcheck, reps=DEFAULT_REPS)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
