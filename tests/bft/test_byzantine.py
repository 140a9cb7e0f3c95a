"""Byzantine replica behaviours: the group must tolerate f = 1 traitor."""

import struct

import pytest

from repro.bft import BftCluster, BftConfig, CounterMachine, faults


def make_cluster(**kwargs):
    defaults = dict(
        transport="nio",
        config=BftConfig(view_change_timeout=30e-3, batch_delay=50e-6),
    )
    defaults.update(kwargs)
    cluster = BftCluster(**defaults)
    cluster.start()
    return cluster


class TestCorruptingBackup:
    def test_corrupt_votes_do_not_block_progress(self):
        cluster = make_cluster()
        faults.corrupt(cluster.replica("r2"))
        for i in range(5):
            assert cluster.invoke_and_wait(f"PUT k{i}=v".encode()) == b"OK"

    def test_corrupt_votes_never_count_toward_quorums(self):
        cluster = make_cluster()
        faults.corrupt(cluster.replica("r2"))
        cluster.invoke_and_wait(b"PUT a=1")
        cluster.run_for(10e-3)
        # Honest replicas committed with honest votes only: none of their
        # slots may count r2's corrupted digests.
        for rid in ("r0", "r1", "r3"):
            replica = cluster.replica(rid)
            for slot in replica.log.slots.values():
                if slot.pre_prepare is None:
                    continue
                vote = slot.prepares.get("r2")
                if vote is not None:
                    assert vote.digest != slot.pre_prepare.digest

    def test_honest_state_unaffected(self):
        cluster = make_cluster(app_factory=CounterMachine)
        faults.corrupt(cluster.replica("r1"))
        for _ in range(4):
            cluster.invoke_and_wait(CounterMachine.add(5))
        cluster.run_for(10e-3)
        honest = [cluster.apps[r].value for r in ("r0", "r2", "r3")]
        assert honest == [20, 20, 20]


class TestEquivocation:
    def test_equivocating_values_never_commit_on_honest_replicas(self):
        cluster = make_cluster()
        faults.equivocate(cluster.replica("r0"))
        result = cluster.invoke_and_wait(b"PUT target=true")
        assert result == b"OK"
        cluster.run_for(20e-3)
        for rid in ("r1", "r2", "r3"):
            value = cluster.apps[rid].get("target")
            assert value in (None, "true")
            assert not (value or "").startswith("FORGED")

    def test_forged_batches_rejected_by_digest_check(self):
        """Victims of the equivocation see digest-mismatching batches and
        must drop them rather than vote."""
        cluster = make_cluster()
        faults.equivocate(cluster.replica("r0"), victims={"r1"})
        cluster.invoke_and_wait(b"PUT check=digest")
        cluster.run_for(20e-3)
        # r1 received a forged batch whose digest matches its contents
        # (the attacker recomputed it), so r1 votes for the forged digest
        # while r2/r3 vote for the real one: quorum only forms on the
        # real digest.
        digests = cluster.state_digests()
        assert digests["r2"] == digests["r3"]


class TestCrashRecoveryMatrix:
    @pytest.mark.parametrize("victim", ["r1", "r2", "r3"])
    def test_any_single_backup_crash_tolerated(self, victim):
        cluster = make_cluster()
        faults.go_silent(cluster.replica(victim))
        assert cluster.invoke_and_wait(b"PUT who=cares") == b"OK"

    def test_two_crashes_exceed_f_and_block(self):
        """f = 1: two silent replicas must stall the service (safety
        over liveness) — no spurious results may be produced."""
        cluster = make_cluster()
        faults.go_silent(cluster.replica("r2"))
        faults.go_silent(cluster.replica("r3"))
        event = cluster.client().invoke(b"PUT never=committed")
        cluster.run_for(200e-3)
        assert not event.triggered

    def test_view_change_cascade_until_honest_leader(self):
        """With r0 silent from the start, view 1 (led by r1) takes over."""
        cluster = make_cluster()
        faults.go_silent(cluster.replica("r0"))
        assert cluster.invoke_and_wait(b"PUT first=requests") == b"OK"
        views = {r.view for r in cluster.replicas.values() if r.replica_id != "r0"}
        assert views == {1}


class TestMalformedClientBytes:
    """A client owns the bytes of its requests, string fields included."""

    @pytest.mark.parametrize("transport", ["nio", "rubin"])
    def test_invalid_utf8_client_id_drops_only_that_link(self, transport):
        cluster = make_cluster(transport=transport, num_clients=2)
        assert cluster.invoke_and_wait(b"PUT a=1") == b"OK"
        # Well framed and MACed by the link, but client_id is b"\xfe".
        raw = (
            b"\x01" + struct.pack(">I", 1) + b"\xfe"
            + struct.pack(">Q", 99) + struct.pack(">I", 0)
        )
        cluster.client(1)._connections["r0"].post(raw)
        cluster.run_for(5e-3)  # no decode error escapes the run
        closed = {
            conn.peer_name: conn.closed
            for conn in cluster.replica("r0").endpoint.connections
        }
        assert closed["c1"] and not closed["c0"]
        assert cluster.invoke_and_wait(b"PUT b=2") == b"OK"
        cluster.run_for(5e-3)
        for replica in cluster.replicas.values():
            assert replica.executed_seq == 2
        assert len(set(cluster.state_digests().values())) == 1
