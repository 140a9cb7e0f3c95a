"""End-to-end auditing over a live BFT cluster.

Covers the acceptance scenarios of the audit subsystem: healthy runs are
violation-free, deliberate Byzantine equivocation and resource misuse
each trip the matching auditor with a schema-valid post-mortem, and an
audit-disabled run is schedule-identical to an audited one.
"""

import glob

from repro.audit import (
    NULL_AUDIT,
    AuditConfig,
    AuditManager,
    install_audit,
    validate_postmortem,
)
from repro.bft import BftCluster, BftConfig, faults
from repro.net import Fabric
from repro.rdma import RdmaDevice
from repro.rubin import BufferPool
from repro.sim import Environment


def make_cluster(**kwargs):
    defaults = dict(
        transport="rubin",
        config=BftConfig(view_change_timeout=60e-3, batch_delay=50e-6),
    )
    defaults.update(kwargs)
    cluster = BftCluster(**defaults)
    cluster.start()
    return cluster


class TestHealthyCluster:
    def test_clean_run_has_zero_violations(self):
        cluster = make_cluster()
        for i in range(8):
            assert cluster.invoke_and_wait(f"PUT k{i}=v".encode()) == b"OK"
        cluster.run_for(50e-3)
        assert cluster.audit.violations == []
        assert cluster.watchdog.stalls_detected == 0
        # The flight recorder saw the protocol happen on every layer.
        counts = cluster.audit.recorder.layer_counts()
        assert counts.get("bft", 0) > 0
        assert counts.get("rdma", 0) > 0

    def test_audit_metrics_in_registry(self):
        cluster = make_cluster()
        cluster.invoke_and_wait(b"PUT a=1")
        snapshot = cluster.metrics_registry().snapshot()
        assert snapshot["audit.violations"] == 0
        assert snapshot["audit.events_recorded"] > 0
        assert snapshot["audit.max_cq_depth"] >= 1
        assert snapshot["audit.stalls_detected"] == 0

    def test_audit_disabled_installs_null_audit(self):
        cluster = make_cluster(audit=False)
        cluster.invoke_and_wait(b"PUT a=1")
        assert cluster.audit is NULL_AUDIT
        assert cluster.watchdog is None
        snapshot = cluster.metrics_registry().snapshot()
        assert "audit.violations" not in snapshot


class TestEquivocationCaught:
    def test_equivocating_leader_trips_the_auditor(self, tmp_path):
        dump_dir = str(tmp_path / "postmortems")
        cluster = make_cluster(
            config=BftConfig(view_change_timeout=60e-3, batch_delay=0.0,
                             batch_size=1),
            audit=AuditConfig(dump_dir=dump_dir),
        )
        assert not cluster.audit.expect_violations
        # Arming a Byzantine behaviour marks the manager itself: the
        # member is expected to trip auditors.
        faults.equivocate(cluster.replica("r0"))
        assert cluster.audit.expect_violations
        cluster.client(0).invoke(b"PUT a=1")
        cluster.run_for(300e-3)

        rules = {v.rule for v in cluster.audit.violations}
        assert "bft.pre-prepare-equivocation" in rules
        # Every violation dumped a post-mortem, in memory and on disk,
        # and each dump validates against the schema.
        assert cluster.audit.postmortems
        for document in cluster.audit.postmortems:
            validate_postmortem(document)
        paths = glob.glob(f"{dump_dir}/*.json")
        assert len(paths) == len(cluster.audit.postmortem_paths)


class TestResourceMisuseCaught:
    def test_pool_double_return_trips_the_auditor(self):
        env = Environment()
        manager = AuditManager(expect_violations=True)
        install_audit(env, manager)
        fabric = Fabric(env)
        fabric.add_host("h0")
        device = RdmaDevice(fabric.host("h0"))
        pool = BufferPool(device, device.alloc_pd(), 2, 64, name="p0")

        buffer = pool.acquire()
        buffer.release()
        buffer.release()  # the bug under test

        assert [v.rule for v in manager.violations] == [
            "rubin.pool-double-return"
        ]
        detail = dict(manager.violations[0].detail)
        assert detail["buffer_index"] == buffer.index
        for document in manager.postmortems:
            validate_postmortem(document)


class TestAuditPurity:
    """An audited run must not perturb the simulation it watches."""

    def fingerprint(self, audit):
        cluster = make_cluster(audit=audit)
        times = []
        for i in range(6):
            assert cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
            times.append(cluster.env.now)
        cluster.run_for(50e-3)
        return (
            tuple(times),
            cluster.executed_sequences(),
            sorted(cluster.state_digests().items()),
        )

    def test_audit_on_equals_audit_off(self):
        # Identical per-request completion times prove the audited run
        # made the same scheduling decisions event for event.
        assert self.fingerprint(audit=True) == self.fingerprint(audit=False)
