"""Every fault on every flavour.

Each message-path behaviour of :mod:`repro.bft.faults` is armed on one
replica of a sequential cluster and on one consensus-group pipeline of a
four-group COP cluster; each memory attack is armed on a one-sided
cluster.  Every run must fire the audit rule its fault is expected to
trip — and no other consensus-safety rule.  Then the faults are
disarmed and the correct replicas must converge on identical state
digests (a victim of an equivocation is correct but lags until a later
stable checkpoint lets it catch up).
"""

import pytest

from repro.bft import BftCluster, BftConfig, Request, ViewChange, batch_digest
from repro.bft import faults
from repro.errors import BftError

SAFETY_RULES = {
    "bft.pre-prepare-equivocation",
    "bft.execution-divergence",
    "bft.commit-quorum",
    "bft.view-regression",
    "bft.view-change-equivocation",
    "bft.checkpoint-divergence",
    "bft.merge-slot-conflict",
    "bft.merge-premature-execution",
}


def make_cluster(group_count=1, **config):
    cluster = BftCluster(
        config=BftConfig(
            group_count=group_count,
            view_change_timeout=30e-3,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
            **config,
        )
    )
    cluster.start()
    return cluster


class Roles:
    """Replicas by their role in the attacked group: ``role(0)`` leads
    view 0, ``role(1)`` view 1, and so on."""

    def __init__(self, cluster, group):
        self.cluster = cluster
        self.group = group

    def __call__(self, k):
        return f"r{(self.group + k) % 4}"

    def pipeline(self, k):
        return self.cluster.replica(self(k)).group_pipelines()[self.group]


def _silent(roles):
    faults.go_silent(roles.pipeline(0))
    return {roles(0)}


def _equivocate(roles):
    faults.equivocate(roles.pipeline(0), victims={roles(3)})
    return {roles(0)}


def _corrupt(roles):
    faults.corrupt(roles.pipeline(2))
    return {roles(2)}


def _vc_stall(roles):
    faults.go_silent(roles.pipeline(0))
    roles.stalled = faults.stall_view_change(roles.pipeline(1))
    return {roles(0), roles(1)}


def _vc_equivocate(roles):
    faults.go_silent(roles.pipeline(0))
    faults.equivocate_view_change(roles.pipeline(2), victims={roles(3)})
    return {roles(0), roles(2)}


def _nv_equivocate(roles):
    traitor = roles.pipeline(1)
    faults.equivocate_new_view(traitor, victims={roles(3)})
    # Hand the next leader a ViewChange quorum carrying a prepared batch
    # for the next unexecuted slot, so its NewView re-proposes a real
    # batch it can forge per recipient.
    batch = (Request(client_id="c9", timestamp=1, operation=b"PUT x=1"),)
    seq = traitor.executed_seq + 1
    evidence = ((seq, 0, batch_digest(batch), batch),)
    votes = {
        roles(k): ViewChange(
            new_view=1,
            stable_seq=0,
            prepared=evidence if k == 1 else (),
            replica_id=roles(k),
        )
        for k in (1, 2, 3)
    }
    traitor._install_new_view(1, votes)
    return {roles(1)}


#: fault -> (arm it and return the faulty replicas, rules it must trip)
MESSAGE_FAULTS = {
    "silent": (_silent, set()),
    "equivocate": (_equivocate, {"bft.pre-prepare-equivocation"}),
    "corrupt": (_corrupt, set()),
    "vc-stall": (_vc_stall, set()),
    "vc-equivocate": (_vc_equivocate, {"bft.view-change-equivocation"}),
    "nv-equivocate": (_nv_equivocate, {"bft.pre-prepare-equivocation"}),
}


def _fired(cluster):
    return {v.rule for v in cluster.audit.violations}


def _heal_and_converge(cluster, faulty):
    """Disarm every fault, order a tail across two checkpoints, and
    require the correct replicas to agree."""
    for replica in cluster.replicas.values():
        for pipeline in replica.group_pipelines():
            pipeline.outbound_tamper = None
            pipeline.reply_mute = None
            pipeline.new_view_intercept = None
    for i in range(8):
        assert cluster.invoke_and_wait(b"PUT tail%d=1" % i) == b"OK"
    cluster.run_for(200e-3)
    digests = {
        rid: digest
        for rid, digest in cluster.state_digests().items()
        if rid not in faulty
    }
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("group_count", [1, 4], ids=["G1", "G4"])
@pytest.mark.parametrize("fault", sorted(MESSAGE_FAULTS))
def test_message_path_fault(fault, group_count):
    arm, expected = MESSAGE_FAULTS[fault]
    cluster = make_cluster(group_count)
    roles = Roles(cluster, group=0 if group_count == 1 else 1)
    assert cluster.invoke_and_wait(b"PUT before=fault") == b"OK"
    faulty = arm(roles)
    for i in range(12):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    cluster.run_for(100e-3)

    fired = _fired(cluster)
    assert expected <= fired, fired
    assert fired & SAFETY_RULES <= expected, fired
    if fault == "vc-stall":
        assert roles.stalled, "the stall never engaged"
    if expected:
        # Under COP the fingerprint names the attacked group.
        groups = {
            dict(v.detail).get("group", 0)
            for v in cluster.audit.violations
            if v.rule in expected
        }
        assert groups == {roles.group}
    _heal_and_converge(cluster, faulty)


def _compromise_rkey(cluster):
    cluster.invoke_and_wait(b"PUT seed=1")
    attack = faults.compromise_rkey(cluster.replica("r3"), 0.0)
    cluster.run_for(5e-3)
    assert attack.forged_attempts > 0


def _rogue_overwrite(cluster):
    for i in range(4):
        cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i))
    faults.rogue_overwrite(cluster.replica("r3"), 0.0)
    cluster.run_for(5e-3)


def _permission_race(cluster):
    cluster.invoke_and_wait(b"PUT seed=1")
    faults.permission_race(cluster.replica("r0"), 0.0, duration=60e-3)
    cluster.run_for(5e-3)
    return "r0"


#: attack -> (guard armed, drive it, rules it must trip)
MEMORY_ATTACKS = {
    "compromise-rkey": (True, _compromise_rkey, {"rdma.unauthorized-write"}),
    # Guard off: the scribbles land, so the declared-writer audit calls
    # them out besides the poller's overwrite detection.
    "rogue-overwrite": (
        False,
        _rogue_overwrite,
        {"bft.onesided-slot-overwrite", "rdma.unauthorized-write"},
    ),
    "perm-race": (True, _permission_race, {"rdma.unauthorized-write"}),
}


@pytest.mark.parametrize("attack", sorted(MEMORY_ATTACKS))
def test_memory_attack(attack):
    guard, drive, expected = MEMORY_ATTACKS[attack]
    cluster = make_cluster(onesided=True, onesided_guard=guard)
    attacker = drive(cluster) or "r3"
    for i in range(6):
        assert cluster.invoke_and_wait(b"PUT after%d=1" % i) == b"OK"
    cluster.run_for(50e-3)

    fired = _fired(cluster)
    assert expected <= fired, fired
    assert not fired & SAFETY_RULES, fired
    _heal_and_converge(cluster, {attacker})


def test_memory_attack_needs_the_onesided_path():
    cluster = make_cluster()
    with pytest.raises(BftError, match="onesided"):
        faults.compromise_rkey(cluster.replica("r3"), 0.0)


def test_silence_is_a_crash_fault_and_marks_nothing():
    cluster = make_cluster()
    faults.go_silent(cluster.replica("r1"))
    assert not cluster.audit.expect_violations
    faults.corrupt(cluster.replica("r2"))
    assert cluster.audit.expect_violations
