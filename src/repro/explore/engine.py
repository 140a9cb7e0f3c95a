"""The schedule explorer: systematic branching + seeded fuzzing.

Exploration of one scenario proceeds in three stages, all sharing an
event budget:

1. **Base run** — the default schedule (no deviations), recording every
   choice point's ready-set size and owner keys.
2. **Systematic branching** — for a bounded set of choice points spread
   across the base run, re-run with one alternative choice at that point
   (default order before and after it).  Alternatives are pruned
   DPOR-style on owner independence: at each branch point every
   same-owner alternative is dependent (explored), while other owners
   contribute one representative each — swapping two entries owned by
   different hosts commutes, so their permutations collapse into one
   class.
3. **Fuzz fallback** — seeded random deviation runs
   (:class:`~repro.explore.policy.SeededFuzz`) reach depths the
   one-deviation systematic stage cannot.

Every run is scored by :func:`~repro.explore.scenario.run_scenario`
(audit invariants + history oracle); failing runs come back as
replayable :class:`~repro.explore.trace.DecisionTrace` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.explore.policy import RecordingPolicy, SeededFuzz
from repro.explore.scenario import ScenarioOutcome, ScenarioSpec, run_scenario
from repro.explore.trace import DecisionTrace

__all__ = ["ExploreBudget", "RunRecord", "ExplorationReport", "Explorer"]


@dataclass
class ExploreBudget:
    """Hard limits one exploration must stay inside."""

    #: Total kernel events across all runs (the portable "time" budget).
    max_events: int = 3_000_000
    #: Total runs (schedules actually executed).
    max_runs: int = 200

    def copy(self) -> "ExploreBudget":
        return ExploreBudget(self.max_events, self.max_runs)


@dataclass
class RunRecord:
    """One explored schedule and its verdict."""

    trace: DecisionTrace
    outcome: ScenarioOutcome
    #: How the run was generated ("base", "branch", "fuzz", "replay").
    origin: str

    @property
    def ok(self) -> bool:
        return self.outcome.ok


@dataclass
class ExplorationReport:
    """Aggregate result of exploring one scenario."""

    scenario: str
    runs: int = 0
    distinct_schedules: int = 0
    events_used: int = 0
    choice_points: int = 0
    branch_points: int = 0
    pruned_alternatives: int = 0
    failures: List[RunRecord] = field(default_factory=list)
    exhausted: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "runs": self.runs,
            "distinct_schedules": self.distinct_schedules,
            "events_used": self.events_used,
            "choice_points": self.choice_points,
            "branch_points": self.branch_points,
            "pruned_alternatives": self.pruned_alternatives,
            "failures": [
                {
                    "origin": record.origin,
                    "trace": record.trace.to_dict(),
                    **record.outcome.summary(),
                }
                for record in self.failures
            ],
            "exhausted": self.exhausted,
        }


class Explorer:
    """Explore one scenario spec within a budget."""

    def __init__(
        self,
        spec: ScenarioSpec,
        mutant: Optional[Callable] = None,
        mutant_name: Optional[str] = None,
        seed: int = 0,
        budget: Optional[ExploreBudget] = None,
        branch_points: int = 24,
        max_alternatives: int = 3,
        fuzz_deviation_rate: float = 0.02,
        fuzz_max_deviations: int = 8,
        stop_on_failure: bool = False,
    ):
        self.spec = spec
        self.mutant = mutant
        self.mutant_name = mutant_name
        self.seed = seed
        self.budget = (budget or ExploreBudget()).copy()
        self.branch_points = branch_points
        self.max_alternatives = max_alternatives
        self.fuzz_deviation_rate = fuzz_deviation_rate
        self.fuzz_max_deviations = fuzz_max_deviations
        self.stop_on_failure = stop_on_failure
        self._seen: Set[Tuple[int, ...]] = set()
        self.report = ExplorationReport(scenario=spec.name)

    # -- single runs -----------------------------------------------------

    def run_prescribed(
        self,
        prescribed: Tuple[int, ...],
        origin: str,
        fuzz: Optional[SeededFuzz] = None,
        record_owners: bool = False,
    ) -> Tuple[RunRecord, RecordingPolicy]:
        policy = RecordingPolicy(
            prescribed=prescribed, fallback=fuzz, record_owners=record_owners
        )
        outcome = run_scenario(self.spec, policy=policy, mutant=self.mutant)
        trace = DecisionTrace(
            scenario=self.spec.name,
            choices=policy.trimmed_choices(),
            mutant=self.mutant_name,
            meta={
                "origin": origin,
                "rules": list(outcome.rules),
                "fingerprint": outcome.fingerprint,
                "deviations": sum(1 for c in policy.choices if c),
                "clamped": policy.clamped,
            },
        )
        record = RunRecord(trace=trace, outcome=outcome, origin=origin)
        self.report.runs += 1
        self.report.events_used += outcome.events
        if trace.choices not in self._seen:
            self._seen.add(trace.choices)
            self.report.distinct_schedules += 1
        if not outcome.ok:
            self.report.failures.append(record)
        return record, policy

    def replay(self, trace: DecisionTrace) -> RunRecord:
        """Re-execute a recorded trace (bit-identical by construction)."""
        record, _ = self.run_prescribed(trace.choices, origin="replay")
        return record

    # -- budget ----------------------------------------------------------

    def _budget_left(self) -> bool:
        if self.report.events_used >= self.budget.max_events:
            self.report.exhausted = "events"
            return False
        if self.report.runs >= self.budget.max_runs:
            self.report.exhausted = "runs"
            return False
        if self.stop_on_failure and self.report.failures:
            self.report.exhausted = "failure"
            return False
        return True

    # -- pruning ---------------------------------------------------------

    def _alternatives(
        self, size: int, owners: Tuple[str, ...]
    ) -> Tuple[List[int], int]:
        """Alternative indices worth exploring at one choice point.

        The default (index 0) is already covered by the base run.  Every
        other entry sharing the default entry's owner is dependent on it
        (same-host reordering changes that host's local history), so all
        are candidates; entries owned by other hosts commute with the
        default, so each *distinct* other owner contributes only its
        first entry.  Returns the (bounded) candidate list and how many
        alternatives independence pruned away.
        """
        if size < 2:
            return [], 0
        if not owners or len(owners) < size:
            candidates = list(range(1, size))
        else:
            base_owner = owners[0]
            candidates = []
            represented: Set[str] = set()
            for index in range(1, size):
                owner = owners[index]
                if owner == base_owner or owner not in represented:
                    candidates.append(index)
                    represented.add(owner)
        pruned = (size - 1) - len(candidates)
        kept = candidates[: self.max_alternatives]
        pruned += len(candidates) - len(kept)
        return kept, pruned

    # -- the sweep -------------------------------------------------------

    def explore(self) -> ExplorationReport:
        # 1. Base run: the pinned default schedule, with owner keys.
        base, base_policy = self.run_prescribed(
            (), origin="base", record_owners=True
        )
        sizes = base_policy.sizes
        owners = base_policy.owners
        self.report.choice_points = len(sizes)

        # 2. Systematic one-deviation branching, spread over the run.
        points = [i for i, size in enumerate(sizes) if size > 1]
        if points and self.branch_points:
            stride = max(1, len(points) // self.branch_points)
            chosen = points[::stride][: self.branch_points]
            self.report.branch_points = len(chosen)
            for point in chosen:
                if not self._budget_left():
                    return self.report
                alternatives, pruned = self._alternatives(
                    sizes[point], owners[point] if point < len(owners) else ()
                )
                self.report.pruned_alternatives += pruned
                for alternative in alternatives:
                    if not self._budget_left():
                        return self.report
                    prescription = (0,) * point + (alternative,)
                    self.run_prescribed(prescription, origin="branch")

        # 3. Seeded fuzz until the budget runs out.
        fuzz_round = 0
        while self._budget_left():
            fuzz = SeededFuzz(
                seed=self.seed * 100_003 + fuzz_round,
                deviation_rate=self.fuzz_deviation_rate,
                max_deviations=self.fuzz_max_deviations,
            )
            self.run_prescribed((), origin="fuzz", fuzz=fuzz)
            fuzz_round += 1
        return self.report
