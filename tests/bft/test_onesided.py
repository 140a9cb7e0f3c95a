"""One-sided Write-based agreement: the fast path commits with identical
state, permissions track view changes, and the memory-corruption fault
family is denied / detected / survived as designed."""

import pytest

from repro.bft import BftCluster, BftConfig, OneSidedPath, faults
from repro.bft.onesided import (
    RECORD_OVERHEAD,
    pack_record,
    peek_header,
    unpack_record,
)


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


class TestRecordFraming:
    def test_round_trip(self):
        record = pack_record(7, b"payload bytes")
        assert unpack_record(record) == (7, b"payload bytes")
        assert peek_header(record) == (7, 13)
        assert len(record) == 13 + RECORD_OVERHEAD

    def test_torn_record_rejected(self):
        record = pack_record(7, b"payload bytes")
        assert unpack_record(record[:-1] + b"\x00") is None
        flipped = bytearray(record)
        flipped[RECORD_OVERHEAD // 2] ^= 0xFF
        assert unpack_record(bytes(flipped)) is None

    def test_garbage_has_no_header(self):
        assert peek_header(b"\xde\xad\xbe\xef" * 8) is None
        assert unpack_record(b"") is None


class TestFastPath:
    def test_commits_with_identical_digests(self):
        cluster = make_cluster()
        for i in range(8):
            assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
        cluster.run_for(10e-3)
        assert len(set(cluster.state_digests().values())) == 1
        writes = records = 0
        for replica in cluster.replicas.values():
            path = replica.onesided
            assert isinstance(path, OneSidedPath)
            writes += path.writes.value
            records += path.records.value
            assert path.corrupted_slots.value == 0
            assert path.fallbacks.value == 0
        assert writes > 0 and records > 0
        assert not cluster.audit.violations

    def test_metrics_registry_exports_onesided_counters(self):
        cluster = make_cluster()
        cluster.invoke_and_wait(b"PUT a=1")
        names = set(cluster.metrics_registry().names())
        for metric in (
            "replica.r0.onesided.writes",
            "replica.r0.onesided.records",
            "replica.r0.onesided.corrupted_slots",
            "replica.r0.onesided.fallbacks",
            "bft.onesided.writes",
            "bft.onesided.records",
            "bft.onesided.corrupted_slots",
            "bft.onesided.fallbacks",
            "host.r0.nic.perm_grants",
            "host.r0.nic.perm_revokes",
            "host.r0.nic.stale_access_denied",
        ):
            assert metric in names, metric

    def test_guard_grants_initially_name_the_leader(self):
        cluster = make_cluster()
        for replica in cluster.replicas.values():
            grants = replica.onesided.proposal_mr.grants()
            assert set(grants) == {"r0"}
        # Each ack lane admits exactly its owning writer.
        for replica in cluster.replicas.values():
            for peer_id, mr in replica.onesided.lane_mrs.items():
                assert set(mr.grants()) == {peer_id}

    def test_view_change_switches_proposal_grants(self):
        cluster = make_cluster(faulty_fabric=True, audit=False)
        cluster.invoke_and_wait(b"PUT before=crash")
        cluster.crash_replica("r0")
        assert cluster.invoke_and_wait(b"PUT after=crash") == b"OK"
        survivors = [
            replica
            for replica_id, replica in cluster.replicas.items()
            if replica_id != "r0"
        ]
        assert all(replica.view == 1 for replica in survivors)
        for replica in survivors:
            assert set(replica.onesided.proposal_mr.grants()) == {"r1"}

    def test_unguarded_mode_keeps_regions_open(self):
        cluster = make_cluster(guard=False)
        cluster.invoke_and_wait(b"PUT open=1")
        for replica in cluster.replicas.values():
            assert not replica.onesided.proposal_mr.guarded


class TestCompromisedRkey:
    def test_guard_denies_every_forgery(self):
        cluster = make_cluster()
        cluster.invoke_and_wait(b"PUT seed=1")
        faults.compromise_rkey(cluster.replica("r3"), 0.0)
        cluster.run_for(5e-3)
        assert cluster.invoke_and_wait(b"PUT still=committing") == b"OK"
        violations = cluster.audit.violations
        denied = [
            v for v in violations if v.rule == "rdma.unauthorized-write"
        ]
        assert denied
        # Nothing landed: no violation carries a declared_writer (the
        # landed-write signature) and no honest slot was corrupted.
        assert not any("declared_writer" in dict(v.detail) for v in denied)
        for replica_id, replica in cluster.replicas.items():
            if replica_id != "r3":
                assert replica.onesided.corrupted_slots.value == 0
        assert len(set(cluster.state_digests().values())) == 1

    def test_unguarded_forgeries_land_and_are_attributed(self):
        cluster = make_cluster(guard=False)
        cluster.invoke_and_wait(b"PUT seed=1")
        faults.compromise_rkey(cluster.replica("r3"), 0.0, forgeries=2)
        cluster.run_for(5e-3)
        landed = [
            v
            for v in cluster.audit.violations
            if v.rule == "rdma.unauthorized-write"
            and "declared_writer" in dict(v.detail)
        ]
        assert landed
        for violation in landed:
            detail = dict(violation.detail)
            assert violation.subject == "r3"
            assert detail["declared_writer"] == "r0"
        blast = {
            (dict(v.detail)["host"], dict(v.detail)["offset"])
            for v in landed
        }
        assert len(blast) >= 2


class TestRogueOverwrite:
    def test_scribble_detected_and_survived(self):
        cluster = make_cluster(guard=False)
        for i in range(4):
            cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i))
        faults.rogue_overwrite(cluster.replica("r3"), 0.0, slots=(0, 1))
        cluster.run_for(5e-3)
        overwrites = [
            v
            for v in cluster.audit.violations
            if v.rule == "bft.onesided-slot-overwrite"
        ]
        assert overwrites
        corrupted = sum(
            replica.onesided.corrupted_slots.value
            for replica_id, replica in cluster.replicas.items()
            if replica_id != "r3"
        )
        assert corrupted >= 1
        # Victims fall back to the message path and keep committing.
        assert cluster.invoke_and_wait(b"PUT after=scribble") == b"OK"
        cluster.run_for(10e-3)
        assert len(set(cluster.state_digests().values())) == 1
