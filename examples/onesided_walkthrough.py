#!/usr/bin/env python3
"""One-sided agreement walkthrough: the latency win and what guards it.

Four acts, all on the same 4-replica PBFT cluster:

1. the benign fast path — the leader seals each batch into a CRC-framed
   record and WRITEs it straight into every follower's proposal ring;
   no responder CPU on the critical path, identical state digests;
2. a view change — the crashed leader's ring grant is revoked and the
   new leader's installed before the view activates, so permissions
   track the protocol, not the other way round;
3. a compromised-rkey attack with the permission guard armed — every
   forged WRITE is denied at the NIC (blast radius 0) while the
   cluster keeps committing;
4. the same attack with the guard off — the forgeries *land* in victim
   memory and only the after-the-fact declared-writer audit notices
   (blast radius > 0).

Run:  python examples/onesided_walkthrough.py

``python -m repro.bench --fig onesided`` turns acts 1, 3 and 4 into
gated benchmark points; DESIGN.md section 17 has the design details.
"""

import sys

from repro.bft import BftCluster, BftConfig, faults


def make_cluster(guard=True, **kwargs):
    defaults = dict(
        config=BftConfig(
            view_change_timeout=30e-3,
            batch_delay=50e-6,
            batch_size=1,
            onesided=True,
            onesided_guard=guard,
        ),
        num_clients=1,
    )
    defaults.update(kwargs)
    cluster = BftCluster(transport="rubin", **defaults)
    cluster.start()
    return cluster


def run_fast_path():
    print("== 1. the one-sided fast path ==")
    cluster = make_cluster()
    for i in range(6):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    cluster.run_for(10e-3)
    writes = sum(
        r.onesided.writes.value for r in cluster.replicas.values()
    )
    records = sum(
        r.onesided.records.value for r in cluster.replicas.values()
    )
    digests = set(cluster.state_digests().values())
    print(f"  one-sided WRITEs issued: {writes}")
    print(f"  sealed records consumed off proposal rings: {records}")
    print(f"  distinct state digests: {len(digests)} (must be 1)")
    assert len(digests) == 1 and writes > 0 and records > 0
    assert not cluster.audit.violations
    grants = cluster.replicas["r1"].onesided.grants()
    print(f"  r1's proposal ring admits exactly: {sorted(grants)}\n")


def run_view_change():
    print("== 2. permissions track the view ==")
    cluster = make_cluster(faulty_fabric=True, audit=False)
    cluster.invoke_and_wait(b"PUT before=crash")
    print("  crashing the leader r0...")
    cluster.crash_replica("r0")
    assert cluster.invoke_and_wait(b"PUT after=crash") == b"OK"
    survivors = {
        rid: r for rid, r in cluster.replicas.items() if rid != "r0"
    }
    views = {r.view for r in survivors.values()}
    print(f"  surviving views: {sorted(views)} (all moved to view 1)")
    for rid, replica in sorted(survivors.items()):
        grants = sorted(replica.onesided.grants())
        print(f"  {rid}'s proposal ring now admits: {grants}")
        assert grants == ["r1"], "old leader's grant must be revoked"
    print()


def landed_forgeries(cluster):
    return [
        v
        for v in cluster.audit.violations
        if v.rule == "rdma.unauthorized-write"
        and "declared_writer" in dict(v.detail)
    ]


def run_attack(guard):
    armed = "armed" if guard else "OFF"
    act = 3 if guard else 4
    print(f"== {act}. compromised rkey, guard {armed} ==")
    cluster = make_cluster(guard=guard)
    cluster.invoke_and_wait(b"PUT seed=1")
    print("  r3 replays captured rkeys to forge leader-attributed "
          "records...")
    attack = faults.compromise_rkey(cluster.replica("r3"), 0.0)
    cluster.run_for(5e-3)
    assert cluster.invoke_and_wait(b"PUT still=committing") == b"OK"

    denials = [
        v
        for v in cluster.audit.violations
        if v.rule == "rdma.unauthorized-write"
        and "declared_writer" not in dict(v.detail)
    ]
    landed = landed_forgeries(cluster)
    blast = {
        (dict(v.detail)["host"], dict(v.detail)["offset"]) for v in landed
    }
    print(f"  forged records attempted: {attack.forged_attempts}")
    print(f"  forgeries denied at the NIC: {len(denials)}")
    print(f"  forgeries landed in victim memory: {len(landed)}")
    print(f"  blast radius (unique host/offset pairs): {len(blast)}")
    if guard:
        assert denials and not landed, "the guard must deny every forgery"
    else:
        assert landed, "without the guard the forgeries must land"
        declared = {dict(v.detail)["declared_writer"] for v in landed}
        actual = {v.subject for v in landed}
        print(f"  records claimed author {sorted(declared)}, "
              f"audit attributed them to {sorted(actual)}")
    digests = set(cluster.state_digests().values())
    print(f"  cluster still committing, distinct digests: {len(digests)}\n")
    assert len(digests) == 1
    return len(blast)


def main() -> int:
    run_fast_path()
    run_view_change()
    guarded_blast = run_attack(guard=True)
    unguarded_blast = run_attack(guard=False)
    print(
        "done: same attack, blast radius "
        f"{guarded_blast} guarded vs {unguarded_blast} unguarded — "
        "the dynamic permission guard is what makes one-sided "
        "agreement safe to ship."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
