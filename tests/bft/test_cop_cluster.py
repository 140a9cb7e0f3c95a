"""Multi-group COP clusters end-to-end: parallel ordering, one order."""

import pytest

from repro.bft import BftCluster, BftConfig, faults
from repro.rubin import RubinConfig


def make_cop_cluster(group_count=4, transport="rubin", **kwargs):
    defaults = dict(
        config=BftConfig(
            group_count=group_count,
            view_change_timeout=80e-3,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
        ),
        num_clients=1,
    )
    defaults.update(kwargs)
    cluster = BftCluster(transport=transport, **defaults)
    cluster.start()
    return cluster


class TestMultiGroupOrdering:
    def test_requests_execute_in_one_merged_order(self):
        cluster = make_cop_cluster()
        for i in range(12):
            assert (
                cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
            )
        cluster.run_for(50e-3)
        digests = cluster.state_digests()
        assert len(set(digests.values())) == 1, "replica states diverged"
        merged = cluster.merged_positions()
        assert len(set(merged.values())) == 1, merged
        assert cluster.audit.violations == []

    def test_work_spreads_across_groups(self):
        cluster = make_cop_cluster()
        for i in range(16):
            cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        cluster.run_for(50e-3)
        r0 = cluster.replica("r0")
        per_group = [p.executed_seq for p in r0.group_pipelines()]
        assert len(per_group) == 4
        # The hash partitioner spreads 16 requests over all 4 groups.
        assert sum(1 for seq in per_group if seq > 0) == 4

    def test_client_affinity_partitioner(self):
        cluster = make_cop_cluster(
            config=BftConfig(
                group_count=4,
                partitioner="client",
                view_change_timeout=80e-3,
                batch_delay=0.0,
                batch_size=1,
                checkpoint_interval=4,
                log_window=16,
            )
        )
        for i in range(8):
            cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        cluster.run_for(50e-3)
        r0 = cluster.replica("r0")
        # One client pins to one group: every reply the client got was
        # served out of a single pipeline's cache (other groups only
        # ordered empty merge fillers).
        served = [
            p.group for p in r0.group_pipelines() if p._reply_cache
        ]
        assert len(served) == 1
        assert len(set(cluster.state_digests().values())) == 1

    def test_group_metrics_registered(self):
        cluster = make_cop_cluster()
        for i in range(8):
            cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        cluster.run_for(50e-3)
        snap = cluster.metrics_registry().snapshot()
        for g in range(4):
            assert f"bft.group.{g}.committed" in snap
            assert f"bft.group.{g}.view_changes" in snap
            assert f"bft.group.{g}.executed_seq" in snap
        assert sum(snap[f"bft.group.{g}.committed"] for g in range(4)) > 0
        assert max(snap[f"bft.group.{g}.executed_seq"] for g in range(4)) > 0

    def test_replica_counters_sum_over_groups(self):
        """``replica.<id>.committed`` and ``.view_changes`` count every
        group the replica runs, not group 0 alone."""
        cluster = make_cop_cluster(num_clients=4)
        # A silent group-1 leader forces view changes in group 1 only.
        faults.go_silent(cluster.replica("r1").group_pipelines()[1])
        events = [
            cluster.client(i % 4).invoke(f"PUT k{i}=v{i}".encode())
            for i in range(40)
        ]
        cluster.env.run(until=cluster.env.all_of(events))
        cluster.run_for(50e-3)
        snap = cluster.metrics_registry().snapshot()
        for rid in cluster.replica_ids:
            pipelines = cluster.replica(rid).group_pipelines()
            assert snap[f"replica.{rid}.committed"] == sum(
                p.committed_count for p in pipelines
            )
            assert snap[f"replica.{rid}.view_changes"] == sum(
                p.view_changes_completed for p in pipelines
            )
        r0 = cluster.replica("r0")
        assert snap["replica.r0.committed"] > r0.committed_count
        assert snap["replica.r0.view_changes"] > r0.view_changes_completed
        # Each replica's total and each group's total count the same
        # commits, sliced the other way.
        assert sum(
            snap[f"replica.{rid}.committed"] for rid in cluster.replica_ids
        ) == sum(snap[f"bft.group.{g}.committed"] for g in range(4))


class TestMultiGroupRecovery:
    def test_crashed_replica_rejoins_and_converges(self):
        cluster = make_cop_cluster(
            rubin_config=RubinConfig(retry_timeout=1e-3, retry_count=3),
            faulty_fabric=True,
        )
        for i in range(6):
            assert (
                cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
            )
        cluster.crash_replica("r2")
        cluster.run_for(30e-3)
        for i in range(6, 12):
            assert (
                cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
            )
        cluster.restart_replica("r2")
        cluster.run_for(600e-3)
        assert cluster.invoke_and_wait(b"PUT after=rejoin") == b"OK"
        cluster.run_for(300e-3)
        merged = cluster.merged_positions()
        assert len(set(merged.values())) == 1, merged
        assert len(set(cluster.state_digests().values())) == 1
        assert cluster.audit.violations == []
        # The laggard actually went through recovery, not just luck.
        assert cluster.replica("r2").state_transfers_completed >= 1


class TestByzantineGroupMember:
    def test_group_equivocator_cannot_split_merged_state(self):
        cluster = make_cop_cluster()
        cluster.invoke_and_wait(b"PUT honest=1")
        faults.equivocate(cluster.replica("r1").group_pipelines()[1])
        for i in range(12):
            cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        cluster.run_for(80e-3)
        honest = [rid for rid in cluster.replica_ids if rid != "r1"]
        digests = {cluster.state_digests()[rid] for rid in honest}
        assert len(digests) == 1, "honest replicas diverged"
        apps = [cluster.apps[rid] for rid in honest]
        for i in range(12):
            values = {app.get(f"k{i}") for app in apps}
            values.discard(None)
            assert len(values) <= 1
            assert not any(
                (app.get(f"k{i}") or "").startswith("FORGED")
                for app in apps
            )

    def test_group_tagged_equivocation_detected(self):
        cluster = make_cop_cluster()
        faults.equivocate(cluster.replica("r1").group_pipelines()[1])
        # Keep submitting until some request routes through group 1's
        # pipeline while r1 leads it in view 0 (r1 leads group 1:
        # leader_of(0) = all_ids[(0 + 1) % 4]).
        for i in range(20):
            cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
        cluster.run_for(80e-3)
        rules = {v.rule for v in cluster.audit.violations}
        assert "bft.pre-prepare-equivocation" in rules
        tagged = [
            v
            for v in cluster.audit.violations
            if v.rule == "bft.pre-prepare-equivocation"
        ]
        assert any(dict(v.detail).get("group") == 1 for v in tagged)
