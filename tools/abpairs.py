"""Alternating parent/change pairs of the benchmark's contract command.

    python tools/abpairs.py PARENT_REV --seed 17 [--workload pbft_rubin]
                            [--pairs 10] [--metric ops_per_host_s]

Exports ``PARENT_REV`` with ``git archive`` into a temporary directory
and runs ``python3 -m perfbench run --workload W --seed N`` there and in
this checkout once per pair, alternating which side goes first, so a
slow phase of the host hits both sides alike.  Each run's metrics come
from its result file.  Prints every run, each side's median and
quartiles for every end-to-end metric, and for ``--metric`` the pairs
the change won and the verdict of the choosing-metrics rule: the change
wins at least nine pairs in ten (ties count for neither side) and the
medians differ, in the better direction, by more than the parent's own
spread — the distance between its quartiles.

The modeled metrics and ``sim_digest`` must repeat exactly across all
runs of both sides for a host-time comparison to mean anything; the
tool says whether they did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Metrics the model fixes per seed: equal on both sides or the pair is void.
MODELED = ("sim_p50_us", "sim_p99_us", "sim_ops_per_s")


@dataclass(frozen=True)
class Verdict:
    """The choosing-metrics rule over paired runs of one metric."""

    wins: int
    pairs: int
    #: Median gap in the better direction (positive: the change is better).
    gain: float
    #: Distance between the parent's quartiles.
    parent_iqr: float

    @property
    def met(self) -> bool:
        return self.wins * 10 >= self.pairs * 9 and self.gain > self.parent_iqr

    def __str__(self) -> str:
        return (
            f"change wins {self.wins}/{self.pairs} pairs; median gain "
            f"{self.gain:+.6g} against a parent IQR of {self.parent_iqr:.6g}: "
            + ("claim MET" if self.met else "claim NOT met")
        )


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3), as perfbench's own summaries compute them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], higher_is_better: bool
) -> Verdict:
    """Judge paired runs (``parent[i]`` ran beside ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, _median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - statistics.median(parent))
    return Verdict(wins=wins, pairs=len(parent), gain=gain, parent_iqr=q3 - q1)


def export(rev: str, into: Path) -> Path:
    """Check ``rev`` out of this repository into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, out: Path) -> Dict:
    """One contract-command run in ``tree``; its result document."""
    subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=tree,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())["workloads"][workload]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/abpairs.py")
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--seed", type=int, required=True,
                        help="a seed not used while writing the change")
    parser.add_argument("--workload", default="pbft_rubin")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="ops_per_host_s")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        parser.error(f"--metric must be one of {sorted(metrics)}")

    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="abpairs-") as workdir:
        trees = {"parent": export(args.parent, Path(workdir) / "parent"),
                 "change": ROOT}
        out = Path(workdir) / "run.json"
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                doc = run_once(trees[side], args.workload, args.seed, out)
                runs[side].append(doc)
                value = doc["metrics"][args.metric]["value"]
                print(f"pair {pair + 1:>2} {side:<6} {args.metric} {value:.6g}",
                      flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} alternating pairs "
          f"(parent {args.parent} vs this checkout)")
    for name in metrics:
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(
                [doc["metrics"][name]["value"] for doc in runs[side]]
            )
            cells.append(f"{median:.6g} [{q1:.6g}-{q3:.6g}]")
        print(f"  {name:<16} {cells[0]:>32} -> {cells[1]}")
    every = runs["parent"] + runs["change"]
    same = {
        key: len({json.dumps(doc["metrics"][key]["value"]) for doc in every}) == 1
        for key in MODELED
    }
    same["sim_digest"] = len({doc["sim_digest"] for doc in every}) == 1
    failed = {side: sum(doc["failed"] for doc in runs[side]) for side in runs}
    print("  identical on every run: "
          + ", ".join(f"{key} {'yes' if ok else 'NO'}" for key, ok in same.items()))
    print(f"  failed ops: parent {failed['parent']}, change {failed['change']}")
    result = verdict(
        [doc["metrics"][args.metric]["value"] for doc in runs["parent"]],
        [doc["metrics"][args.metric]["value"] for doc in runs["change"]],
        higher_is_better=metrics[args.metric]["better"] == "higher",
    )
    print(f"  {args.metric}: {result}")
    return 0 if result.met and all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
