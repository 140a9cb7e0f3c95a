"""Declarative fault scenarios and the single-run harness.

A :class:`ScenarioSpec` composes everything a run throws at the
protocol — Byzantine and fail-silent members armed through
:mod:`repro.bft.faults`, crash/restart via the fabric's
:class:`HostFaultController`, partitions and seeded loss from
:mod:`repro.net.faults`, and admission-budget overload — as data: a
workload plus a list of timed :class:`FaultAction`\\ s drawn from
:data:`FAULT_CATALOG`.  The explorer replays one spec under many
tie-break schedules; the spec itself never changes between runs, so the
decision trace alone identifies a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.audit import AuditConfig, AuditManager, release_audit
from repro.bft import BftCluster, BftConfig
from repro.bft import faults as bft_faults
from repro.bft.replica import Replica
from repro.errors import ReproError
from repro.explore.oracle import HistoryOracle
from repro.rubin import RubinConfig

__all__ = [
    "ScenarioError",
    "FaultAction",
    "ScenarioSpec",
    "ScenarioOutcome",
    "FAULT_CATALOG",
    "MEMBER_FAULTS",
    "SCENARIOS",
    "run_scenario",
]


class ScenarioError(ReproError):
    """A scenario spec references unknown faults or is inconsistent."""


@dataclass(frozen=True)
class FaultAction:
    """One timed fault: ``kind`` from :data:`FAULT_CATALOG` applied at
    simulated time ``at`` (seconds from scenario start) to ``target``."""

    at: float
    kind: str
    target: str = ""
    args: Tuple[Any, ...] = ()


# -- fault appliers ---------------------------------------------------------
#
# Each applier runs inside a simulation process at its action's time.
# They only flip switches (controllers, fault hooks); everything the
# switch causes stays inside the simulated protocol.

def _apply_crash(cluster: BftCluster, action: FaultAction) -> None:
    cluster.crash_replica(action.target)


def _apply_restart(cluster: BftCluster, action: FaultAction) -> None:
    cluster.restart_replica(action.target)


def _apply_partition(cluster: BftCluster, action: FaultAction) -> None:
    group_a, group_b = action.args
    cluster.fabric.partition(set(group_a), set(group_b))


def _apply_isolate(cluster: BftCluster, action: FaultAction) -> None:
    cluster.fabric.isolate(action.target)


def _apply_heal(cluster: BftCluster, action: FaultAction) -> None:
    cluster.fabric.heal_all()


def _apply_loss(cluster: BftCluster, action: FaultAction) -> None:
    a, _, b = action.target.partition(":")
    (rate,) = action.args
    cluster.fabric.controller(a, b).set_loss(rate)


def _member(cluster: BftCluster, target: str) -> Replica:
    """The replica ``"r1"`` or its COP group pipeline ``"r1/g1"``."""
    replica_id, _, group = target.partition("/g")
    replica = cluster.replica(replica_id)
    return replica.group_pipelines()[int(group)] if group else replica


def _victims(action: FaultAction):
    return set(action.args[0]) if action.args else None


def _apply_go_silent(cluster: BftCluster, action: FaultAction) -> None:
    bft_faults.go_silent(_member(cluster, action.target))


def _apply_equivocate(cluster: BftCluster, action: FaultAction) -> None:
    bft_faults.equivocate(_member(cluster, action.target), _victims(action))


def _apply_corrupt(cluster: BftCluster, action: FaultAction) -> None:
    bft_faults.corrupt(_member(cluster, action.target))


def _apply_vc_stall(cluster: BftCluster, action: FaultAction) -> None:
    crash = bool(action.args[0]) if action.args else False
    bft_faults.stall_view_change(
        _member(cluster, action.target), crash_on_new_view=crash
    )


def _apply_vc_equivocate(cluster: BftCluster, action: FaultAction) -> None:
    bft_faults.equivocate_view_change(
        _member(cluster, action.target), _victims(action)
    )


def _apply_nv_equivocate(cluster: BftCluster, action: FaultAction) -> None:
    bft_faults.equivocate_new_view(
        _member(cluster, action.target), _victims(action)
    )


def _apply_compromise_rkey(cluster: BftCluster, action: FaultAction) -> None:
    victims = tuple(action.args[0]) if action.args else None
    bft_faults.compromise_rkey(
        _member(cluster, action.target), 0.0, victims=victims
    )


def _apply_rogue_overwrite(cluster: BftCluster, action: FaultAction) -> None:
    victims = tuple(action.args[0]) if action.args else None
    bft_faults.rogue_overwrite(
        _member(cluster, action.target), 0.0, victims=victims
    )


def _apply_perm_race(cluster: BftCluster, action: FaultAction) -> None:
    bft_faults.permission_race(_member(cluster, action.target), 0.0)


#: Fault kinds that make their target a faulty *member* (the oracle
#: judges only the other replicas).  Their target is a replica id
#: (``"r1"``) or one of its COP group pipelines (``"r1/g1"``).
MEMBER_FAULTS: Dict[str, Callable[[BftCluster, FaultAction], None]] = {
    "go-silent": _apply_go_silent,
    "equivocate": _apply_equivocate,
    "corrupt": _apply_corrupt,
    "vc-stall": _apply_vc_stall,
    "vc-equivocate": _apply_vc_equivocate,
    "nv-equivocate": _apply_nv_equivocate,
    "compromise-rkey": _apply_compromise_rkey,
    "rogue-overwrite": _apply_rogue_overwrite,
    "perm-race": _apply_perm_race,
}

#: The explorable fault catalog: every composable fault kind.
FAULT_CATALOG: Dict[str, Callable[[BftCluster, FaultAction], None]] = {
    "crash": _apply_crash,
    "restart": _apply_restart,
    "partition": _apply_partition,
    "isolate": _apply_isolate,
    "heal": _apply_heal,
    "loss": _apply_loss,
    **MEMBER_FAULTS,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One composed fault scenario, fully declarative."""

    name: str
    description: str = ""
    transport: str = "rubin"
    requests: int = 4
    request_gap: float = 4e-3
    #: Simulated seconds the run advances after the last request is
    #: submitted (faults later than this never fire).
    run_time: float = 120e-3
    faults: Tuple[FaultAction, ...] = ()
    num_clients: int = 1
    view_change_timeout: float = 30e-3
    checkpoint_interval: int = 4
    admission_budget: int = 0
    #: Consensus groups (COP): >1 shards the sequence space across
    #: parallel ordering pipelines with a deterministic merge.
    group_count: int = 1
    #: One-sided RDMA fast path (Write-based agreement) on/off, and
    #: whether its dynamic per-peer permission guard is armed.
    onesided: bool = False
    onesided_guard: bool = True
    #: Audit rules this scenario is *supposed* to trip (its Byzantine
    #: members' fingerprints); anything else fails the run.
    expected_rules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        replicas = [f"r{i}" for i in range(self.bft_config().n)]
        for action in self.faults:
            if action.kind not in FAULT_CATALOG:
                raise ScenarioError(
                    f"scenario {self.name!r}: unknown fault kind {action.kind!r}"
                )
            if action.kind in MEMBER_FAULTS:
                replica_id, _, group = action.target.partition("/g")
                if replica_id not in replicas or (
                    group and not 0 <= int(group) < self.group_count
                ):
                    raise ScenarioError(
                        f"scenario {self.name!r}: {action.kind!r} targets "
                        f"unknown member {action.target!r}"
                    )

    def bft_config(self) -> BftConfig:
        return BftConfig(
            view_change_timeout=self.view_change_timeout,
            batch_delay=50e-6,
            batch_size=1,
            checkpoint_interval=self.checkpoint_interval,
            log_window=4 * self.checkpoint_interval,
            admission_budget=self.admission_budget,
            group_count=self.group_count,
            onesided=self.onesided,
            onesided_guard=self.onesided_guard,
        )

    def rubin_config(self) -> RubinConfig:
        # Small pools, chosen when the default config's 128 KiB buffers
        # were allocated eagerly.  Pool memory is demand-paged now and
        # the default would be as cheap, but every recorded explore trace
        # is pinned to this config (pool size shapes credit and re-post
        # timing), so it stays.
        return RubinConfig(
            retry_timeout=1e-3,
            retry_count=3,
            buffer_size=8192,
            num_recv_buffers=8,
            num_send_buffers=8,
            post_batch=4,
        )

    def member_faults(self) -> Tuple[FaultAction, ...]:
        """The actions that make their target a faulty member."""
        return tuple(a for a in self.faults if a.kind in MEMBER_FAULTS)

    def correct_replicas(self) -> Tuple[str, ...]:
        faulty = {a.target.partition("/")[0] for a in self.member_faults()}
        n = self.bft_config().n
        return tuple(f"r{i}" for i in range(n) if f"r{i}" not in faulty)


@dataclass
class ScenarioOutcome:
    """Everything the explorer needs to score one run."""

    spec: ScenarioSpec
    ok: bool
    #: Unexpected audit rules + oracle failure rules (empty when ok).
    rules: Tuple[str, ...]
    oracle: Dict[str, Any]
    completed: int
    events: int
    #: Digest of the modeled end state — two runs with the same
    #: fingerprint made identical scheduling decisions.
    fingerprint: str
    #: repr of a simulation-level exception, if the run itself blew up.
    crashed: Optional[str] = None
    #: Post-mortem documents for failed runs (None while ok).
    postmortems: Optional[list] = None
    #: Every audit rule that fired, expected ones included (vacuity
    #: checks: a Byzantine scenario whose expected rule never fires is
    #: not exercising its fault).
    fired_rules: Tuple[str, ...] = ()

    def summary(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.name,
            "ok": self.ok,
            "rules": list(self.rules),
            "fired_rules": list(self.fired_rules),
            "completed": self.completed,
            "events": self.events,
            "fingerprint": self.fingerprint,
            "crashed": self.crashed,
            "oracle": self.oracle,
        }


def _workload(env, cluster: BftCluster, spec: ScenarioSpec, submitted: list):
    for i in range(spec.requests):
        client = cluster.client(i % spec.num_clients)
        submitted.append(client.invoke(b"PUT k%d=v%d" % (i, i)))
        yield env.timeout(spec.request_gap)


def _fault_proc(env, cluster: BftCluster, action: FaultAction, applied: list):
    yield env.timeout(action.at)
    FAULT_CATALOG[action.kind](cluster, action)
    applied.append(action)


def run_scenario(
    spec: ScenarioSpec,
    policy=None,
    mutant: Optional[Callable[[Replica], None]] = None,
    dump_dir: Optional[str] = None,
) -> ScenarioOutcome:
    """Run ``spec`` once under ``policy`` and score it.

    ``mutant`` is applied to every *correct* replica right after it is
    built (a buggy build deployed fleet-wide); the scenario's faulty
    members stay as built.  The audit manager is created expecting
    violations — the explorer, not the test-suite conformance fixture,
    is the judge here — and released from the active-audit list before
    returning so long sweeps stay bounded.
    """
    manager = AuditManager(
        config=AuditConfig(ring_size=2048, max_postmortems=8),
        name=f"explore:{spec.name}",
        expect_violations=True,
    )
    cluster = BftCluster(
        transport=spec.transport,
        config=spec.bft_config(),
        rubin_config=spec.rubin_config(),
        num_clients=spec.num_clients,
        faulty_fabric=True,
        audit=manager,
    )
    if mutant is not None:
        for replica_id in spec.correct_replicas():
            mutant(cluster.replica(replica_id))
    env = cluster.env
    if policy is not None:
        env.set_tiebreak(policy)
    oracle = HistoryOracle(
        correct=spec.correct_replicas(), group_count=spec.group_count
    )
    manager.add_observer(oracle)

    submitted: list = []
    applied: list = []
    crashed: Optional[str] = None
    try:
        cluster.start()
        for action in spec.faults:
            env.process(
                _fault_proc(env, cluster, action, applied),
                name=f"scenario.fault.{action.kind}",
            )
        env.process(
            _workload(env, cluster, spec, submitted), name="scenario.load"
        )
        horizon = spec.requests * spec.request_gap + spec.run_time
        env.run(until=env.now + horizon)
    except Exception as exc:  # noqa: BLE001 - a crashing schedule is a finding
        crashed = f"{type(exc).__name__}: {exc}"
    finally:
        env.set_tiebreak(None)
        release_audit(manager)

    completed = sum(1 for event in submitted if event.triggered and event.ok)
    expected = set(spec.expected_rules)
    fired = sorted({v.rule for v in manager.violations})
    unexpected = sorted(rule for rule in fired if rule not in expected)
    rules = tuple(unexpected) + oracle.rules()
    ok = not rules and not crashed and not oracle.failures_dropped
    fingerprint = hashlib.sha256(
        repr(
            (
                sorted(cluster.executed_sequences().items()),
                sorted((k, v.hex()) for k, v in cluster.state_digests().items()),
                completed,
                round(env.now, 12),
            )
        ).encode()
    ).hexdigest()
    postmortems = None
    if not ok:
        manager.dump_postmortem("explore:failing-schedule")
        postmortems = list(manager.postmortems)
    return ScenarioOutcome(
        spec=spec,
        ok=ok,
        rules=rules,
        oracle=oracle.summary(),
        completed=completed,
        events=env._eid,
        fingerprint=fingerprint,
        crashed=crashed,
        postmortems=postmortems,
        fired_rules=tuple(fired),
    )


def _spec(*args, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(*args, **kwargs)


#: The built-in composed scenarios the smoke sweep explores.
SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            name="equivocate-partition",
            description=(
                "Equivocating leader forging batches to one victim while a "
                "backup is partitioned away and rejoins mid-run."
            ),
            faults=(
                FaultAction(at=4e-3, kind="equivocate", target="r0", args=(("r1",),)),
                FaultAction(at=10e-3, kind="partition", args=(("r3",), ("r0", "r1", "r2", "c0"))),
                FaultAction(at=40e-3, kind="heal"),
            ),
            requests=5,
            expected_rules=("bft.pre-prepare-equivocation",),
        ),
        _spec(
            name="crash-overload",
            description=(
                "Admission-budget overload with a backup crash and recovery "
                "in the middle of the burst."
            ),
            requests=8,
            request_gap=1.5e-3,
            num_clients=2,
            admission_budget=2,
            faults=(
                FaultAction(at=8e-3, kind="crash", target="r2"),
                FaultAction(at=45e-3, kind="restart", target="r2"),
            ),
            run_time=160e-3,
        ),
        _spec(
            name="vc-stall-partition",
            description=(
                "Old leader partitioned away; the next leader stalls its "
                "NewView, forcing escalation past it; partition heals."
            ),
            faults=(
                FaultAction(at=2e-3, kind="vc-stall", target="r1"),
                FaultAction(at=8e-3, kind="partition", args=(("r0",), ("r1", "r2", "r3", "c0"))),
                FaultAction(at=60e-3, kind="heal"),
            ),
            requests=4,
            view_change_timeout=15e-3,
            run_time=200e-3,
        ),
        _spec(
            name="silent-loss",
            description=(
                "Leader goes fail-silent under seeded random loss on the "
                "surviving replicas' links: view change under a lossy mesh."
            ),
            faults=(
                FaultAction(at=3e-3, kind="loss", target="r1:r2", args=(0.05,)),
                FaultAction(at=3e-3, kind="loss", target="r2:r3", args=(0.05,)),
                FaultAction(at=6e-3, kind="go-silent", target="r0"),
            ),
            requests=4,
            view_change_timeout=15e-3,
            run_time=200e-3,
        ),
        _spec(
            name="vc-equivocate",
            description=(
                "Fail-silent leader triggers a view change during which a "
                "backup equivocates its ViewChange votes."
            ),
            faults=(
                FaultAction(at=2e-3, kind="vc-equivocate", target="r2", args=(("r3",),)),
                FaultAction(at=6e-3, kind="go-silent", target="r0"),
            ),
            requests=4,
            view_change_timeout=15e-3,
            run_time=200e-3,
            expected_rules=("bft.view-change-equivocation",),
        ),
        _spec(
            name="onesided-compromised-rkey",
            description=(
                "One-sided fast path with the permission guard armed: a "
                "replica with stolen rkeys forges leader proposals into "
                "its peers' rings while the real leader crashes mid-run "
                "— every forged write must be denied (blast radius zero) "
                "and the cluster must still change views and commit."
            ),
            onesided=True,
            faults=(
                FaultAction(at=4e-3, kind="compromise-rkey", target="r3"),
                FaultAction(at=8e-3, kind="crash", target="r0"),
            ),
            requests=5,
            view_change_timeout=15e-3,
            run_time=200e-3,
            expected_rules=("rdma.unauthorized-write",),
        ),
        _spec(
            name="cop-mixed-faults",
            description=(
                "Four consensus groups with composed faults: group 0's "
                "leader crashes and rejoins while a Byzantine member "
                "equivocates inside group 1 — the merged order must "
                "survive both."
            ),
            group_count=4,
            faults=(
                FaultAction(
                    at=2e-3, kind="equivocate", target="r1/g1", args=(("r2",),)
                ),
                FaultAction(at=6e-3, kind="crash", target="r0"),
                FaultAction(at=60e-3, kind="restart", target="r0"),
            ),
            requests=8,
            view_change_timeout=40e-3,
            run_time=400e-3,
            expected_rules=("bft.pre-prepare-equivocation",),
        ),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def with_overrides(spec: ScenarioSpec, **overrides: Any) -> ScenarioSpec:
    """A copy of ``spec`` with fields replaced (used by the CLI)."""
    return replace(spec, **overrides)
