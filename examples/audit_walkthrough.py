#!/usr/bin/env python3
"""Audit walkthrough: catch a Byzantine leader red-handed.

Runs two PBFT clusters under the online protocol auditor:

1. an honest cluster — every invariant holds, the flight recorder fills
   with normal protocol events, and the run ends violation-free;
2. a cluster whose leader *equivocates* (sends different batches to
   different backups for the same sequence number) — the
   ``bft.pre-prepare-equivocation`` auditor fires the moment two correct
   replicas report conflicting digests, and the flight recorder dumps a
   post-mortem showing the protocol history that led up to it.

Run:  python examples/audit_walkthrough.py [--dump-dir DIR]

The post-mortem printed at the end is the same JSON document the audit
subsystem writes when any invariant fires in a test or benchmark run —
see DESIGN.md section 10 for how to read it.
"""

import argparse
import json
import sys

from repro.audit import AuditConfig, validate_postmortem
from repro.bft import BftCluster, BftConfig, faults


def run_honest():
    print("== 1. honest cluster ==")
    cluster = BftCluster(
        config=BftConfig(view_change_timeout=60e-3, batch_delay=50e-6)
    )
    cluster.start()
    for i in range(5):
        result = cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        assert result == b"OK"
    cluster.run_for(0.05)
    audit = cluster.audit
    counts = audit.recorder.layer_counts()
    print(f"  events recorded: {audit.recorder.total} {counts}")
    print(f"  violations: {len(audit.violations)}")
    assert audit.violations == [], "an honest run must be violation-free"
    print("  all invariants held.\n")


def run_byzantine(dump_dir):
    print("== 2. equivocating leader ==")
    cluster = BftCluster(
        config=BftConfig(
            view_change_timeout=60e-3, batch_delay=0.0, batch_size=1
        ),
        audit=AuditConfig(dump_dir=dump_dir),
    )
    cluster.start()
    # Arming a Byzantine behaviour also tells the auditor to expect it.
    faults.equivocate(cluster.replica("r0"))
    print("  r0 now sends forged pre-prepares to half the backups...")
    cluster.client(0).invoke(b"PUT a=1")
    cluster.run_for(0.3)

    audit = cluster.audit
    caught = [
        v for v in audit.violations
        if v.rule == "bft.pre-prepare-equivocation"
    ]
    assert caught, "the auditor must catch the equivocation"
    violation = caught[0]
    print(f"  CAUGHT: {violation}")

    # Liveness note: with one traitor out of n=4 the honest replicas
    # still make progress — the auditor observes the attack without
    # interfering with the protocol's own defences.
    document = audit.postmortems[0]
    validate_postmortem(document)
    print("\n  post-mortem (schema-checked):")
    print(f"    reason:       {document['reason']}")
    print(f"    sim time:     {document['time'] * 1e3:.3f} ms")
    print(f"    events held:  {len(document['events'])} "
          f"(dropped: {document['events_dropped']})")
    print(f"    layer counts: {document['layer_counts']}")
    tail = document["events"][-6:]
    print("    last events before the violation:")
    for event in tail:
        subject = event["subject"] or "-"
        print(
            f"      t={event['time'] * 1e3:9.3f}ms "
            f"{event['layer']:>5}.{event['event']:<22} {subject} "
            f"{json.dumps(event['fields'], sort_keys=True)}"
        )
    if audit.postmortem_paths:
        print(f"\n  dumps written: {audit.postmortem_paths}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dump-dir",
        default=None,
        help="also write post-mortem JSON files into this directory",
    )
    args = parser.parse_args(argv)
    run_honest()
    run_byzantine(args.dump_dir)
    print("\ndone: the auditor cleared the honest run and convicted the "
          "equivocator.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
