"""Seeded protocol mutants: known-broken builds the explorer must catch.

Each mutant is a function that plants one deliberate protocol bug in a
freshly built :class:`~repro.bft.replica.Replica`.  The self-test applies
a mutant to every correct replica (a buggy build shipped fleet-wide),
explores, and must find + shrink a violating schedule — the end-to-end
check that the exploration-oracle-shrinker pipeline actually detects
protocol bugs rather than vacuously passing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from repro.bft.replica import Replica

__all__ = [
    "commit_quorum_off_by_one",
    "onesided_guard_off",
    "MUTANTS",
]


def commit_quorum_off_by_one(replica: Replica) -> None:
    """Commits one vote early: quorum ``2f`` instead of ``2f + 1``.

    The classic off-by-one a refactor of the quorum arithmetic could
    introduce.  With only ``2f`` signers the commit certificate no
    longer intersects every other quorum in an honest replica, so the
    auditors' ``bft.commit-quorum`` check (and, under the right
    schedule, divergence) must fire on every commit.
    """
    for pipeline in replica.group_pipelines():
        log = pipeline.log
        honest_quorum = log.committed_quorum

        def buggy_quorum(honest_quorum=honest_quorum) -> int:
            return max(1, honest_quorum() - 1)

        # Patch the instance, not the class: the shared MessageLog type
        # keeps its honest arithmetic for every non-mutant replica.
        log.committed_quorum = buggy_quorum  # type: ignore[method-assign]


def onesided_guard_off(replica: Replica) -> None:
    """Ships the one-sided fast path with its permission guard disabled.

    The bug a refactor of the region-setup path could introduce: the
    rings are registered with plain ``REMOTE_WRITE`` access bits and the
    per-peer grant table is never armed, so any replica holding the
    rkeys can write anywhere.  Against a scenario with a
    :func:`~repro.bft.faults.compromise_rkey` member the forged leader
    proposals now *land* instead of being denied, and the declared-writer
    audit (``rdma.unauthorized-write`` with a ``declared_writer`` detail)
    must call out every landed byte.
    """
    # Per-replica config copy: the scenario's shared BftConfig (and every
    # non-mutant replica) keeps the guard armed.
    replica.config = replace(replica.config, onesided_guard=False)


#: Mutants addressable from the CLI / self-test.
MUTANTS: Dict[str, Callable[[Replica], None]] = {
    "commit-quorum-off-by-one": commit_quorum_off_by_one,
    "onesided-guard-off": onesided_guard_off,
}
