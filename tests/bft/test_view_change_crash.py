"""Leader crash *during* an in-progress view change.

The nastiest window in the view-change subprotocol: the next leader has
collected its ``2f + 1`` ViewChange quorum but has not yet broadcast
NewView.  If it dies right there, the group is mid-transition with no
leader announcing the new view — the timers must escalate to the view
after it, and nothing the dead leader learned may be lost or forked.
"""

from repro.bft import BftCluster, BftConfig, faults

SAFETY_RULES = (
    "bft.pre-prepare-equivocation",
    "bft.execution-divergence",
    "bft.commit-quorum",
    "bft.view-regression",
    "bft.view-change-equivocation",
    "bft.checkpoint-divergence",
)


def test_leader_crash_between_vc_quorum_and_new_view():
    cluster = BftCluster(
        transport="nio",
        config=BftConfig(view_change_timeout=20e-3, batch_delay=50e-6),
        faulty_fabric=True,
    )
    cluster.start()
    assert cluster.invoke_and_wait(b"PUT before=partition") == b"OK"

    # Cut the current leader off and let request timeouts drive a view
    # change toward r1 — which is armed to die at the precise moment it
    # holds the ViewChange quorum and would broadcast NewView.
    stalled_views = faults.stall_view_change(
        cluster.replica("r1"), crash_on_new_view=True
    )
    cluster.fabric.partition({"r0"}, {"r1", "r2", "r3", "c0"})
    pending = cluster.client().invoke(b"PUT during=viewchange")
    cluster.run_for(120e-3)

    r1 = cluster.replica("r1")
    assert stalled_views, "r1 never reached the vc-quorum crash point"
    assert not r1.running, "r1 should have crashed at the NewView point"

    # Heal the old leader: r0 + r2 + r3 are 2f + 1 live replicas again,
    # so the escalated view change (past dead r1) must complete and the
    # pending request must still commit — exactly once.
    cluster.fabric.heal_all()
    cluster.run_for(400e-3)
    assert pending.triggered and pending.value == b"OK"
    assert cluster.invoke_and_wait(b"PUT after=recovery") == b"OK"

    # Liveness resumed under an honest leader (r1 is dead, so the group
    # settled past view 1), and the run stayed safe: live replicas agree
    # on state and no safety invariant tripped.
    live = [r for rid, r in cluster.replicas.items() if rid != "r1"]
    assert all(r.view >= 2 for r in live)
    digests = {rid: d for rid, d in cluster.state_digests().items() if rid != "r1"}
    assert len(set(digests.values())) == 1
    safety = [v for v in cluster.audit.violations if v.rule in SAFETY_RULES]
    assert not safety, f"safety violations during recovery: {safety}"
