"""One-call construction of a replicated BFT service in simulation.

Builds the fabric (hosts, cables), installs both network stacks, starts
Reptor endpoints over the chosen transport, wires the replica full mesh,
and connects clients — the boilerplate every example, test and benchmark
needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.audit import (
    NULL_AUDIT,
    AuditConfig,
    AuditManager,
    ConsensusWatchdog,
    install_audit,
)
from repro.bft.client import BftClient
from repro.bft.config import BftConfig
from repro.bft.onesided import wire_onesided
from repro.bft.replica import Replica
from repro.bft.statemachine import KeyValueStore, StateMachine
from repro.crypto import KeyStore
from repro.errors import BftError, ReproError
from repro.net import Fabric, TEN_GIGABIT
from repro.rdma import RdmaDevice
from repro.reptor import ReptorConfig, ReptorEndpoint
from repro.rubin import RubinConfig
from repro.sim import Environment
from repro.tcpstack import TcpStack
from repro.trace import MetricsRegistry, Tracer, install_tracer

__all__ = ["BftCluster"]

#: Port replicas listen on for peers and clients.
REPLICA_PORT = 6000

#: Counters of :class:`~repro.bft.onesided.OneSidedPath` in the registry.
ONESIDED_COUNTERS = ("writes", "records", "corrupted_slots", "fallbacks")


class BftCluster:
    """A complete simulated BFT deployment."""

    def __init__(
        self,
        transport: str = "rubin",
        config: Optional[BftConfig] = None,
        reptor_config: Optional[ReptorConfig] = None,
        rubin_config: Optional[RubinConfig] = None,
        app_factory: Callable[[], StateMachine] = KeyValueStore,
        num_clients: int = 1,
        bandwidth_bps: float = TEN_GIGABIT,
        propagation_delay: float = 1.5e-6,
        faulty_fabric: bool = False,
        tracer: Optional[Tracer] = None,
        audit: Union[bool, AuditConfig, AuditManager, None] = True,
    ):
        self.env = Environment()
        if tracer is not None:
            # Installed before any stack is built so every layer's
            # get_tracer() observes it from the first event on.
            install_tracer(self.env, tracer)
        # The audit manager likewise goes in before any stack exists so
        # the very first QP transition is already observed.  Pass False
        # to run the cluster entirely unaudited (NULL_AUDIT: hook sites
        # cost one attribute read and do nothing).
        self.watchdog: Optional[ConsensusWatchdog] = None
        if audit is False or audit is None:
            self.audit: Union[AuditManager, type(NULL_AUDIT)] = NULL_AUDIT
        else:
            if isinstance(audit, AuditManager):
                manager = audit
            elif isinstance(audit, AuditConfig):
                manager = AuditManager(config=audit)
            else:
                manager = AuditManager()
            install_audit(self.env, manager)
            self.audit = manager
            self.watchdog = ConsensusWatchdog(
                manager, self.env, self._outstanding_requests
            )
        if faulty_fabric:
            from repro.net.faults import FaultyFabric

            self.fabric = FaultyFabric(self.env)
        else:
            self.fabric = Fabric(self.env)
        self.config = config if config is not None else BftConfig()
        self.transport = transport
        self.reptor_config = (
            reptor_config if reptor_config is not None else ReptorConfig()
        )
        self.rubin_config = rubin_config
        self.keystore = KeyStore()
        self.app_factory = app_factory

        self.replica_ids = [f"r{i}" for i in range(self.config.n)]
        self.client_ids = [f"c{i}" for i in range(num_clients)]
        for name in self.replica_ids + self.client_ids:
            self.fabric.add_host(name)
        self.fabric.full_mesh(
            bandwidth_bps=bandwidth_bps, propagation_delay=propagation_delay
        )
        for name in self.replica_ids + self.client_ids:
            host = self.fabric.host(name)
            TcpStack(host)
            RdmaDevice(host)

        if self.audit.enabled:
            self.audit.bft.configure(
                self.config.f, group_count=self.config.group_count
            )
        self.replicas: Dict[str, Replica] = {}
        self.apps: Dict[str, StateMachine] = {}
        self._crashed: set = set()
        for replica_id in self.replica_ids:
            endpoint = ReptorEndpoint(
                self.fabric.host(replica_id),
                transport,
                name=replica_id,
                config=self.reptor_config,
                keystore=self.keystore,
                rubin_config=self.rubin_config,
            )
            endpoint.listen(REPLICA_PORT)
            app = app_factory()
            self.apps[replica_id] = app
            self.replicas[replica_id] = Replica(
                replica_id,
                endpoint,
                list(self.replica_ids),
                app,
                config=self.config,
            )

        self.clients: Dict[str, BftClient] = {}
        for client_id in self.client_ids:
            endpoint = ReptorEndpoint(
                self.fabric.host(client_id),
                transport,
                name=client_id,
                config=self.reptor_config,
                keystore=self.keystore,
                rubin_config=self.rubin_config,
            )
            self.clients[client_id] = BftClient(
                client_id,
                endpoint,
                list(self.replica_ids),
                f=self.config.f,
                group_count=self.config.group_count,
                partitioner=self.config.partitioner,
            )
        self._started = False

    # -- startup ---------------------------------------------------------

    def start(self, deadline: float = 0.5) -> None:
        """Wire the replica mesh and connect all clients (blocking)."""
        if self._started:
            raise BftError("cluster already started")
        self._started = True
        done = []

        def wire():
            # Lower-id replicas dial higher-id peers (one link per pair).
            for i, a in enumerate(self.replica_ids):
                for b in self.replica_ids[i + 1 :]:
                    endpoint = self.replicas[a].endpoint
                    connection = yield endpoint.connect(
                        b, REPLICA_PORT, peer_name=b
                    )
                    self.replicas[a].attach_peer(b, connection)
            for client in self.clients.values():
                yield client.connect_all(REPLICA_PORT)
            done.append(True)

        self.env.process(wire(), name="cluster.wire")
        limit = self.env.now + deadline
        while not done:
            if self.env.peek() > limit:
                raise BftError("cluster wiring did not finish in time")
            self.env.step()
        if self.config.onesided:
            wire_onesided(self)
        if self.watchdog is not None:
            self.watchdog.start()

    def _outstanding_requests(self) -> int:
        """Requests with armed deadlines on live replicas (watchdog input)."""
        total = 0
        for replica_id, replica in self.replicas.items():
            if replica_id in self._crashed or not replica.running:
                continue
            for pipeline in replica.group_pipelines():
                total += len(pipeline._request_deadlines)
        return total

    # -- crash / restart -------------------------------------------------------

    def _host_faults(self, name: str):
        host_controller = getattr(self.fabric, "host_controller", None)
        if host_controller is None:
            return None
        return host_controller(name)

    def crash_replica(self, replica_id: str) -> None:
        """Crash a replica: power its NIC off, then kill its processes.

        The NIC dies first so peers observe silence (retry-exhausted
        queue pairs), not clean connection shutdowns — the fault a real
        host crash presents.  Requires ``faulty_fabric=True`` for the
        power fault; without it only the processes stop.
        """
        if replica_id in self._crashed:
            raise BftError(f"{replica_id} is already crashed")
        replica = self.replicas[replica_id]
        controller = self._host_faults(replica_id)
        if controller is not None and not controller.crashed:
            controller.crash()
        replica.stop()
        self._crashed.add(replica_id)
        if self.audit.enabled:
            self.audit.on_replica_crash(replica_id)

    def restart_replica(
        self, replica_id: str, recover: bool = True
    ) -> Replica:
        """Restart a crashed replica with a blank state machine.

        Powers the NIC back on, builds a fresh endpoint + replica on the
        same host, and re-dials the peers this replica originally opened
        connections to (lower-id peers and clients re-reach it through
        their channel supervisors).  With ``recover=True`` the new
        replica immediately requests state transfer to catch up.
        """
        if replica_id not in self._crashed:
            raise BftError(f"{replica_id} is not crashed")
        controller = self._host_faults(replica_id)
        if controller is not None and controller.crashed:
            controller.restart()
        self._crashed.discard(replica_id)
        endpoint = ReptorEndpoint(
            self.fabric.host(replica_id),
            self.transport,
            name=replica_id,
            config=self.reptor_config,
            keystore=self.keystore,
            rubin_config=self.rubin_config,
        )
        endpoint.listen(REPLICA_PORT)
        app = self.app_factory()
        self.apps[replica_id] = app
        replica = Replica(
            replica_id,
            endpoint,
            list(self.replica_ids),
            app,
            config=self.config,
            recover=recover,
        )
        self.replicas[replica_id] = replica
        if self.audit.enabled:
            # Resets the per-incarnation view-monotonicity tracking.
            self.audit.on_replica_restart(replica_id)

        def redial(peer: str):
            # Retry: right after a restart links may still be healing.
            for _ in range(50):
                try:
                    connection = yield endpoint.connect(
                        peer, REPLICA_PORT, peer_name=peer
                    )
                except ReproError:
                    yield self.env.timeout(2e-3)
                    continue
                replica.attach_peer(peer, connection)
                return

        for peer in self.replica_ids:
            if peer > replica_id:
                self.env.process(
                    redial(peer), name=f"cluster.redial.{replica_id}-{peer}"
                )
        return replica

    # -- convenience ----------------------------------------------------------

    def client(self, index: int = 0) -> BftClient:
        """The ``index``-th client."""
        return self.clients[self.client_ids[index]]

    def replica(self, replica_id: str) -> Replica:
        """Replica by id (``"r0"``...)."""
        return self.replicas[replica_id]

    @property
    def leader(self) -> Replica:
        """The current leader according to r0's view."""
        any_replica = self.replicas[self.replica_ids[0]]
        return self.replicas[any_replica.leader_of(any_replica.view)]

    def run_for(self, seconds: float) -> None:
        """Advance the simulation."""
        self.env.run(until=self.env.now + seconds)

    def invoke_and_wait(self, operation: bytes, client_index: int = 0) -> bytes:
        """Synchronous helper: submit one op and return its result."""
        event = self.client(client_index).invoke(operation)
        return self.env.run(until=event)

    def metrics_registry(self) -> MetricsRegistry:
        """Unified snapshot of every layer's counters and gauges.

        Assembles a fresh :class:`MetricsRegistry` over the cluster's
        current components (call again after crash/restart to pick up
        replacement endpoints) under hierarchical names:
        ``replica.<id>.*``, ``client.<id>.*``, ``endpoint.<id>.*``,
        ``host.<name>.cpu`` and ``link.<name>.*``.
        """
        registry = MetricsRegistry(name="cluster")
        if self.audit.enabled:
            registry.register_many(
                "audit",
                {
                    "violations": lambda a=self.audit: len(a.violations),
                    "events_recorded": lambda a=self.audit: a.recorder.total,
                    "events_dropped": lambda a=self.audit: a.recorder.dropped,
                    "max_cq_depth": (
                        lambda a=self.audit: a.resources.max_cq_depth
                    ),
                    "stalls_detected": (
                        lambda w=self.watchdog: (
                            w.stalls_detected if w is not None else 0
                        )
                    ),
                },
            )
        for replica_id in self.replica_ids:
            replica = self.replicas[replica_id]
            registry.register_many(
                f"replica.{replica_id}",
                {
                    # Summed over the replica's consensus groups (COP).
                    "committed": lambda r=replica: sum(
                        p.committed_count for p in r.group_pipelines()
                    ),
                    "view_changes": lambda r=replica: sum(
                        p.view_changes_completed for p in r.group_pipelines()
                    ),
                    "state_transfers": (
                        lambda r=replica: r.state_transfers_completed
                    ),
                    "st_served": replica.state_transfers_served,
                    "st_bytes": replica.state_transfer_bytes,
                    "shed_requests": replica.shed_requests,
                    "rejoin_latency": replica.rejoin_latency,
                },
            )
            if replica.onesided is not None:
                registry.register_many(
                    f"replica.{replica_id}.onesided",
                    {
                        name: getattr(replica.onesided, name)
                        for name in ONESIDED_COUNTERS
                    },
                )
            endpoint_metrics = {
                "watermark_crossings": replica.endpoint.watermark_crossings,
                "sends_dropped": replica.endpoint.sends_dropped,
                "backpressure_time": replica.endpoint.backpressure_time,
            }
            if self.transport == "rubin":
                # Aggregate transport-level stall counters across the
                # endpoint's channels (per-channel values stay available
                # on the channel objects for debugging).
                endpoint_metrics["credit_stalls"] = (
                    lambda r=replica: sum(
                        conn.channel.credit_stalls.value
                        for conn in r.endpoint.connections
                    )
                )
                endpoint_metrics["pool_stalls"] = (
                    lambda r=replica: sum(
                        conn.channel.pool_stalls.value
                        for conn in r.endpoint.connections
                    )
                )
            registry.register_many(
                f"endpoint.{replica_id}", endpoint_metrics
            )
            supervisor = replica.endpoint.supervisor
            if supervisor is not None:
                registry.register_many(
                    f"endpoint.{replica_id}.supervisor",
                    {
                        "reconnect_attempts": supervisor.reconnect_attempts,
                        "reconnects": supervisor.reconnects,
                        "abandons": supervisor.abandons,
                        "recovery_latency": supervisor.recovery_latency,
                    },
                )
        # Per-consensus-group aggregates (COP): committed batches, view
        # changes and the per-group ordering frontier, summed/maxed over
        # the replicas currently hosting that group's pipeline.
        def pipelines(group: int) -> List[Replica]:
            return [
                r.group_pipelines()[group] for r in self.replicas.values()
            ]

        for group in range(self.config.group_count):
            registry.register_many(
                f"bft.group.{group}",
                {
                    "committed": lambda g=group: sum(
                        p.committed_count for p in pipelines(g)
                    ),
                    "view_changes": lambda g=group: sum(
                        p.view_changes_completed for p in pipelines(g)
                    ),
                    "executed_seq": lambda g=group: max(
                        (p.executed_seq for p in pipelines(g)), default=0
                    ),
                },
            )
        if self.config.onesided:
            # Cluster-wide fast-path aggregates (per-replica values stay
            # available under replica.<id>.onesided.*).
            registry.register_many(
                "bft.onesided",
                {
                    name: lambda name=name: sum(
                        getattr(r.onesided, name).value
                        for r in self.replicas.values()
                    )
                    for name in ONESIDED_COUNTERS
                },
            )
        for client_id, client in sorted(self.clients.items()):
            registry.register_many(
                f"client.{client_id}",
                {
                    "invocations": lambda c=client: c.invocations,
                    "retransmissions": lambda c=client: c.retransmissions,
                    "busy_backoffs": lambda c=client: c.busy_backoffs,
                },
            )
        for host in self.fabric.hosts():
            registry.register(f"host.{host.name}.cpu", host.cpu.tracker)
            registry.register_many(
                f"host.{host.name}.nic",
                {
                    "rnr_naks": host.nic.rnr_naks,
                    "rnr_retries": host.nic.rnr_retries,
                    "rnr_exhausted": host.nic.rnr_exhausted,
                    "perm_grants": host.nic.perm_grants,
                    "perm_revokes": host.nic.perm_revokes,
                    "stale_access_denied": host.nic.stale_access_denied,
                },
            )
        for pair in sorted(self.fabric._cables):
            cable = self.fabric._cables[pair]
            for link in (cable.forward, cable.backward):
                registry.register_many(
                    f"link.{link.name}",
                    {
                        "utilization": link.tracker,
                        "frames_sent": link.frames_sent,
                        "frames_dropped": link.frames_dropped,
                        "bytes_sent": link.bytes_sent,
                    },
                    if_exists="suffix",
                )
        return registry

    def executed_sequences(self) -> Dict[str, int]:
        """Executed sequence number per replica (for convergence checks)."""
        return {rid: r.executed_seq for rid, r in self.replicas.items()}

    def merged_positions(self) -> Dict[str, int]:
        """Merged total-order execution position per replica (COP).

        Equals :meth:`executed_sequences` at ``group_count == 1``.
        """
        return {
            rid: r.global_executed_seq for rid, r in self.replicas.items()
        }

    def state_digests(self) -> Dict[str, bytes]:
        """Application state digest per replica."""
        return {rid: app.digest() for rid, app in self.apps.items()}

    def __repr__(self) -> str:
        return (
            f"<BftCluster n={self.config.n} transport={self.transport} "
            f"clients={len(self.clients)}>"
        )
