"""View-change-targeted Byzantine faults and their audit coverage.

Three misbehaviours around the view-change subprotocol:

* a next-leader that swallows the NewView it owes the group (optionally
  crashing right there),
* a replica whose ViewChange votes differ per recipient, and
* a new leader whose NewView re-proposals differ per recipient.

The equivocating variants must be *detected* by the PBFT auditor
(``bft.view-change-equivocation`` / ``bft.pre-prepare-equivocation``);
the honest group must keep both safety and, where f allows, liveness.
"""

from repro.bft import (
    BftCluster,
    BftConfig,
    Request,
    ViewChange,
    batch_digest,
    faults,
)


def make_cluster(**kwargs):
    defaults = dict(
        transport="nio",
        config=BftConfig(view_change_timeout=30e-3, batch_delay=50e-6),
    )
    defaults.update(kwargs)
    cluster = BftCluster(**defaults)
    cluster.start()
    return cluster


def rules(cluster):
    return {v.rule for v in cluster.audit.violations}


class TestViewChangeVoteEquivocation:
    def test_auditor_flags_conflicting_votes(self):
        """A forged ViewChange vote to one victim trips the vote-digest
        cross-check as soon as the victim reports what it received."""
        cluster = make_cluster()
        faults.equivocate_view_change(cluster.replica("r2"), victims={"r3"})
        # Drive an explicit view change so votes flow without waiting
        # out request timers.
        for rid in ("r1", "r2", "r3"):
            cluster.replica(rid)._start_view_change(1)
        cluster.run_for(30e-3)
        assert "bft.view-change-equivocation" in rules(cluster)

    def test_forged_votes_cannot_change_reproposals(self):
        """The padding in the forged vote targets an already-stable
        sequence number, so the new leader's re-proposals (and therefore
        the honest group's state) are untouched by the forgery."""
        cluster = make_cluster()
        faults.equivocate_view_change(cluster.replica("r2"), victims={"r1"})
        for i in range(2):
            assert cluster.invoke_and_wait(f"PUT k{i}=v".encode()) == b"OK"
        for rid in ("r1", "r2", "r3"):
            cluster.replica(rid)._start_view_change(1)
        cluster.run_for(30e-3)
        assert cluster.invoke_and_wait(b"PUT after=viewchange") == b"OK"
        digests = cluster.state_digests()
        assert digests["r1"] == digests["r3"]


class TestNewViewEquivocation:
    def test_auditor_flags_conflicting_new_view(self):
        """A new leader re-proposing different batches to different
        replicas is equivocation on the adopted (view, seq) assignments."""
        cluster = make_cluster()
        faults.equivocate_new_view(cluster.replica("r1"), victims={"r3"})
        # Hand the traitor a ViewChange quorum carrying a prepared (but
        # unexecuted) batch, so its NewView re-proposes a real batch it
        # can forge per-recipient.  Honest replicas adopt seq 1 from the
        # NewView itself; the victim's copy carries the forged batch.
        batch = (
            Request(client_id="c0", timestamp=1, operation=b"PUT x=1"),
        )
        evidence = ((1, 0, batch_digest(batch), batch),)
        votes = {
            rid: ViewChange(
                new_view=1,
                stable_seq=0,
                prepared=evidence if rid == "r1" else (),
                replica_id=rid,
            )
            for rid in ("r1", "r2", "r3")
        }
        cluster.replica("r1")._install_new_view(1, votes)
        cluster.run_for(30e-3)
        assert "bft.pre-prepare-equivocation" in rules(cluster)


class TestStallingViewChangeLeader:
    def test_group_escalates_past_stalled_leader(self):
        """r0 silent, r1 swallows its NewView: the timers must escalate
        to view 2 (led by honest r2) and the service must resume."""
        cluster = make_cluster()
        assert cluster.invoke_and_wait(b"PUT before=faults") == b"OK"
        faults.go_silent(cluster.replica("r0"))
        stalled_views = faults.stall_view_change(cluster.replica("r1"))
        assert cluster.invoke_and_wait(b"PUT after=stall") == b"OK"
        assert stalled_views, "stall never engaged"
        views = {
            r.view
            for rid, r in cluster.replicas.items()
            if rid not in ("r0", "r1")
        }
        assert views == {2}
