"""Systematic schedule exploration with composed fault injection.

The simulator's event kernel is deterministic: equal-timestamp events
fire in insertion order.  That makes every run reproducible — and means
a single run only ever witnesses *one* interleaving.  This package
turns the kernel's tie-break into a pluggable choice point
(:class:`~repro.sim.core.TieBreakPolicy`) and explores the alternatives:

- :mod:`repro.explore.policy` — recording/replaying tie-break policies
  and seeded random fuzzing;
- :mod:`repro.explore.trace` — replayable decision traces (the schedule
  identity of a run);
- :mod:`repro.explore.scenario` — declarative, composable fault
  scenarios (Byzantine members, crash/restart, partitions, loss) run
  under full auditing;
- :mod:`repro.explore.oracle` — an execution-history safety oracle
  layered on the audit observer hooks;
- :mod:`repro.explore.engine` — budgeted exploration: systematic
  one-deviation branching with DPOR-style independence pruning, plus
  seeded fuzz;
- :mod:`repro.explore.shrink` — ddmin minimization of failing traces;
- :mod:`repro.explore.mutants` / :mod:`repro.explore.selftest` — seeded
  protocol mutants the pipeline must find and shrink, so green sweeps
  are meaningful.

Run ``python -m repro.explore --smoke`` for the budgeted sweep +
self-test, or ``--replay <trace.json>`` to re-execute a failing
schedule deterministically.
"""

from repro.explore.engine import (
    ExplorationReport,
    ExploreBudget,
    Explorer,
    RunRecord,
)
from repro.explore.mutants import MUTANTS, commit_quorum_off_by_one
from repro.explore.oracle import HistoryOracle
from repro.explore.policy import RecordingPolicy, SeededFuzz, owner_key
from repro.explore.scenario import (
    FAULT_CATALOG,
    MEMBER_FAULTS,
    SCENARIOS,
    FaultAction,
    ScenarioOutcome,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    with_overrides,
)
from repro.explore.selftest import run_selftest, selftest_spec
from repro.explore.shrink import ShrinkResult, ddmin, shrink_choices
from repro.explore.trace import TRACE_SCHEMA, DecisionTrace, TraceError
from repro.sim.core import TieBreakPolicy

__all__ = [
    "DecisionTrace",
    "ExplorationReport",
    "ExploreBudget",
    "Explorer",
    "FAULT_CATALOG",
    "FaultAction",
    "HistoryOracle",
    "MEMBER_FAULTS",
    "MUTANTS",
    "RecordingPolicy",
    "RunRecord",
    "SCENARIOS",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SeededFuzz",
    "ShrinkResult",
    "TieBreakPolicy",
    "TRACE_SCHEMA",
    "TraceError",
    "commit_quorum_off_by_one",
    "ddmin",
    "get_scenario",
    "owner_key",
    "run_scenario",
    "run_selftest",
    "selftest_spec",
    "shrink_choices",
    "with_overrides",
]
