"""Consensus-Oriented Parallelization (COP) for the BFT layer.

The source paper integrates RUBIN into Reptor, whose defining trait is
COP: many consensus instances pipelined in parallel across *consensus
groups* (PAPER.md §1.5).  :class:`~repro.bft.replica.Replica` runs one
independent PBFT ordering pipeline per group when
``BftConfig.group_count > 1`` and merges the committed per-group entries
back into a single total execution order; this package holds its pure
building blocks:

- :mod:`repro.bft.cop.merge` — the deterministic round-robin merge
  stage with gap-aware stalls;
- :mod:`repro.bft.cop.partition` — pluggable client-request
  partitioners (deterministic hash on the request id by default);
- :mod:`repro.bft.cop.batcher` — the adaptive per-group batcher fed by
  the admission/queue-depth and outbox-watermark signals.

``group_count=1`` is the exact degenerate case: the replica builds none
of the multi-group machinery and schedules bit-identically to the
sequential pipeline (the fingerprint tests pin this).
"""

from repro.bft.cop.batcher import AdaptiveBatcher
from repro.bft.cop.merge import MergeStage
from repro.bft.cop.partition import (
    PARTITIONERS,
    ClientAffinityPartitioner,
    HashPartitioner,
    make_partitioner,
)

__all__ = [
    "AdaptiveBatcher",
    "ClientAffinityPartitioner",
    "HashPartitioner",
    "MergeStage",
    "PARTITIONERS",
    "make_partitioner",
]
