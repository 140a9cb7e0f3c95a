#!/usr/bin/env python3
"""A 4-replica PBFT cluster over RUBIN, surviving a Byzantine leader.

Demonstrates the paper's target system: Byzantine agreement where the
replicas exchange their protocol messages over RDMA.  The demo:

1. orders client requests through the happy path;
2. crashes the leader and shows the view change recovering liveness;
3. verifies every replica executed the identical sequence.

Run:  python examples/bft_cluster.py [--transport rubin|nio]
"""

import argparse

from repro.bft import BftCluster, BftConfig, faults


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transport", choices=("rubin", "nio"), default="rubin")
    args = parser.parse_args()

    cluster = BftCluster(
        transport=args.transport,
        config=BftConfig(view_change_timeout=30e-3, batch_delay=50e-6),
    )
    cluster.start()
    env = cluster.env
    print(f"cluster up: n=4, f=1, transport={args.transport}")

    # -- happy path ---------------------------------------------------------
    for key, value in (("alice", "100"), ("bob", "250"), ("carol", "75")):
        t0 = env.now
        result = cluster.invoke_and_wait(f"PUT {key}={value}".encode())
        print(
            f"  t={env.now * 1e3:7.2f}ms  PUT {key}={value} -> "
            f"{result.decode()} ({(env.now - t0) * 1e6:.0f}us)"
        )

    balance = cluster.invoke_and_wait(b"GET bob")
    print(f"  GET bob -> {balance.decode()}")

    # -- leader failure -------------------------------------------------------
    print("\ncrashing the leader (r0 goes silent)...")
    faults.go_silent(cluster.replica("r0"))
    t0 = env.now
    result = cluster.invoke_and_wait(b"PUT dave=999")
    print(
        f"  PUT dave=999 -> {result.decode()} after "
        f"{(env.now - t0) * 1e3:.1f}ms (includes the view change)"
    )
    survivors = [cluster.replica(r) for r in ("r1", "r2", "r3")]
    views = {r.replica_id: r.view for r in survivors}
    print(f"  survivor views: {views} (leader is now r{max(views.values()) % 4})")

    # -- consistency check -------------------------------------------------------
    cluster.run_for(20e-3)
    digests = {
        rid: cluster.apps[rid].digest().hex()[:12]
        for rid in ("r1", "r2", "r3")
    }
    print(f"\nstate digests (survivors): {digests}")
    assert len(set(digests.values())) == 1, "replicas diverged!"
    print("all honest replicas executed the identical request sequence ✓")


if __name__ == "__main__":
    main()
