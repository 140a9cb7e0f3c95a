"""Seeded-mutant self-test: prove the pipeline can actually find bugs.

Deploys a known protocol mutant (default: commit-quorum off-by-one) on
the correct replicas of a benign scenario, then requires the full
exploration pipeline to

1. **find** a violating schedule (fuzz-first, so the failing trace
   carries deviations worth minimizing),
2. **shrink** its decision trace by at least half via ddmin, and
3. **replay** the shrunk trace to the same violation, twice, with
   identical run fingerprints.

A pipeline regression anywhere — hooks not firing, oracle not judging,
traces not replaying, shrinker not shrinking — fails this test, which
is what makes green sweeps over the real protocol meaningful.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.explore.engine import ExploreBudget, Explorer
from repro.explore.mutants import MUTANTS
from repro.explore.policy import SeededFuzz
from repro.explore.scenario import get_scenario, with_overrides
from repro.explore.shrink import shrink_choices
from repro.explore.trace import DecisionTrace

__all__ = ["run_selftest", "selftest_spec"]

#: The benign scenario the mutant is injected into: no faults, light
#: workload — every violation found is the mutant's doing.
SELFTEST_SCENARIO = "crash-overload"

#: Mutants whose bug only shows against a specific scenario: the
#: one-sided guard-off build needs the compromised-rkey attacker in the
#: cluster, or there is nobody to exploit the missing grant table.
MUTANT_SCENARIOS: Dict[str, str] = {
    "onesided-guard-off": "onesided-compromised-rkey",
}


def selftest_spec(mutant_name: str = "commit-quorum-off-by-one"):
    """The stripped-down spec self-test (and trace replay) runs against.

    Faults that arm the scenario's own faulty members are kept (they
    are part of the bug's trigger); environmental noise
    (crashes, partitions) is stripped, and ``expected_rules`` is
    cleared so every violation — including rules the full scenario
    whitelists for its *guarded* runs — counts as a finding.
    """
    base_name = MUTANT_SCENARIOS.get(mutant_name, SELFTEST_SCENARIO)
    base = get_scenario(base_name)
    return with_overrides(
        base,
        name=f"selftest:{base_name}",
        faults=base.member_faults(),
        requests=3,
        num_clients=1,
        admission_budget=0,
        run_time=60e-3,
        expected_rules=(),
    )


def run_selftest(
    mutant_name: str = "commit-quorum-off-by-one",
    seed: int = 0,
    budget: Optional[ExploreBudget] = None,
    shrink_runs: int = 48,
    min_reduction: float = 0.5,
) -> Dict[str, Any]:
    """Run the find → shrink → replay pipeline against a seeded mutant.

    Returns a JSON-ready report; ``report["ok"]`` is the verdict.
    """
    mutant = MUTANTS[mutant_name]
    spec = selftest_spec(mutant_name)
    explorer = Explorer(
        spec,
        mutant=mutant,
        mutant_name=mutant_name,
        seed=seed,
        budget=budget or ExploreBudget(max_events=2_000_000, max_runs=64),
    )
    report: Dict[str, Any] = {
        "ok": False,
        "mutant": mutant_name,
        "scenario": spec.name,
        "found": False,
        "shrink": None,
        "replay_ok": False,
        "runs": 0,
    }

    # 1. Find: fuzz-first, so the failing trace carries deviations and
    # the shrink step has real work to do (the default schedule would
    # also catch this mutant, but shrinking a zero-deviation trace
    # proves nothing about ddmin).
    failing = None
    fallback = None
    for fuzz_round in range(12):
        fuzz = SeededFuzz(
            seed=seed * 100_003 + fuzz_round,
            deviation_rate=0.2,
            max_deviations=12,
        )
        record, _policy = explorer.run_prescribed((), origin="fuzz", fuzz=fuzz)
        if record.ok:
            continue
        if record.trace.deviations >= 2:
            failing = record
            break
        fallback = fallback or record
    failing = failing or fallback
    report["runs"] = explorer.report.runs
    if failing is None:
        report["error"] = "no violating schedule found for the seeded mutant"
        return report
    report["found"] = True
    report["found_rules"] = list(failing.outcome.rules)
    report["found_trace"] = failing.trace.to_dict()

    # 2. Shrink: ddmin over the failing trace's deviations.
    def still_fails(choices) -> bool:
        record, _ = explorer.run_prescribed(choices, origin="shrink")
        return not record.ok

    result = shrink_choices(
        failing.trace.choices, still_fails, max_runs=shrink_runs
    )
    report["shrink"] = result.summary()
    shrunk_trace = DecisionTrace(
        scenario=spec.name,
        choices=result.shrunk,
        mutant=mutant_name,
        meta={"origin": "shrink", "from": failing.trace.to_dict()["meta"]},
    )
    report["shrunk_trace"] = shrunk_trace.to_dict()

    # 3. Replay the shrunk trace twice: same verdict, same fingerprint.
    first = explorer.replay(shrunk_trace)
    second = explorer.replay(shrunk_trace)
    replay_ok = (
        not first.ok
        and not second.ok
        and first.outcome.fingerprint == second.outcome.fingerprint
        and first.outcome.rules == second.outcome.rules
    )
    report["replay_ok"] = replay_ok
    report["replay_rules"] = list(first.outcome.rules)
    report["runs"] = explorer.report.runs

    report["ok"] = (
        report["found"]
        and replay_ok
        and result.reduction >= min_reduction
    )
    if not report["ok"] and result.reduction < min_reduction:
        report["error"] = (
            f"shrinker reduced deviations by {result.reduction:.0%} "
            f"(< {min_reduction:.0%} required)"
        )
    return report
