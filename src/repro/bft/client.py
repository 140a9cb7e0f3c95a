"""The BFT client.

Submits operations to the replica group and accepts a result once ``f+1``
replicas sent matching replies (at least one of them is honest).  Follows
PBFT's client protocol: send to the suspected leader first; on timeout,
retransmit to *all* replicas, which forward to the leader and — if the
leader is faulty — eventually trigger a view change.

Under COP (``group_count > 1``) the client derives each request's group
with the partitioner the replicas use and addresses that *group's*
suspected leader first; replies teach it per-group views.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bft.cop.partition import make_partitioner
from repro.bft.messages import Busy, Reply, Request, decode, encode
from repro.errors import BftError
from repro.reptor import ReptorConnection, ReptorEndpoint
from repro.rubin import SupervisorPolicy
from repro.sim import Drive, inline
from repro.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment, Event

__all__ = ["BftClient"]


class BftClient:
    """A client of the replicated service."""

    def __init__(
        self,
        client_id: str,
        endpoint: ReptorEndpoint,
        replica_ids: List[str],
        f: int,
        retry_timeout: float = 20e-3,
        backoff_policy: Optional[SupervisorPolicy] = None,
        group_count: int = 1,
        partitioner: str = "hash",
    ):
        if f < 0:
            raise BftError("f must be >= 0")
        self.client_id = client_id
        self.endpoint = endpoint
        self.env: "Environment" = endpoint.env
        self.replica_ids = sorted(replica_ids)
        self.f = f
        self.retry_timeout = retry_timeout
        self._connections: Dict[str, ReptorConnection] = {}
        self._next_timestamp = 1
        self._reply_votes: Dict[int, Dict[bytes, set]] = {}
        self._accepted: Dict[int, "Event"] = {}
        self._view_hint = 0
        # COP: the replicas' partitioner and per-group views (G > 1 only).
        self._partitioner = None
        self._group_views: Dict[int, int] = {}
        if group_count > 1:
            self._partitioner = make_partitioner(partitioner, group_count)
        # Overload handling: the supervisor's backoff policy doubles as
        # the client retry policy (same jittered exponential shape, same
        # seeded determinism).  The per-client seed string desynchronises
        # clients that were all shed by the same overloaded replica.
        self._backoff = (
            backoff_policy if backoff_policy is not None else SupervisorPolicy()
        )
        self._backoff_rng = random.Random(f"{self._backoff.seed}:{client_id}")
        #: Sticky: set the first time f+1 replicas shed one of our
        #: requests.  Until then the invoke loop waits on exactly the
        #: same event set as a build without admission control, so
        #: default (never-overloaded) schedules are bit-identical.
        self._saw_busy = False
        self._busy_votes: Dict[int, set] = {}
        self._busy_signal: Dict[int, "Event"] = {}
        self.running = True

        # Metrics.
        self.invocations = 0
        self.retransmissions = 0
        self.busy_backoffs = 0

    # -- wiring ------------------------------------------------------------

    def connect_all(self, port: int) -> "Event":
        """Dial every replica; event triggers when all links are up."""

        def dialing():
            for replica_id in self.replica_ids:
                connection = yield self.endpoint.connect(
                    replica_id, port, peer_name=replica_id
                )
                self._connections[replica_id] = connection
                Drive(
                    self.env,
                    self._receive_loop(connection),
                    name=f"{self.client_id}<-{replica_id}.rx",
                )
            return self

        return self.env.process(dialing(), name=f"{self.client_id}.dial")

    def _receive_loop(self, connection: ReptorConnection):
        while self.running and not connection.closed:
            try:
                raw = yield connection.receive()
            except BftError:
                return
            try:
                message = decode(raw)
            except BftError:
                connection.close()
                return
            if isinstance(message, Reply):
                self._on_reply(message)
            elif isinstance(message, Busy):
                self._on_busy(message)

    # -- invocation ---------------------------------------------------------

    def _leader_hint(self, timestamp: int) -> str:
        """Replica addressed first for a request stamped ``timestamp``:
        the suspected leader of the view we last heard about (under COP,
        of the request's group)."""
        if self._partitioner is None:
            return self.replica_ids[self._view_hint % len(self.replica_ids)]
        group = self._partitioner.group_of(self.client_id, timestamp)
        view = self._group_views.get(group, 0)
        return self.replica_ids[(view + group) % len(self.replica_ids)]

    def invoke(self, operation: bytes) -> "Event":
        """Submit ``operation``; event value is the accepted result."""
        return self.env.process(
            self._invoke_proc(operation), name=f"{self.client_id}.invoke"
        )

    def _invoke_proc(self, operation: bytes):
        timestamp = self._next_timestamp
        self._next_timestamp += 1
        self.invocations += 1
        request = Request(
            client_id=self.client_id, timestamp=timestamp, operation=operation
        )
        raw = encode(request)
        accepted = self.env.event()
        self._accepted[timestamp] = accepted
        self._reply_votes[timestamp] = {}

        # Root span of the request's causal trace.  The binding lets the
        # replicas re-associate the decoded Request (framing loses object
        # identity) with this trace.
        tracer = get_tracer(self.env)
        root = None
        ctx = None
        if tracer.enabled:
            root = tracer.start_trace(
                "bft.request",
                layer="client",
                track=self.client_id,
                client_id=self.client_id,
                timestamp=timestamp,
                nbytes=len(operation),
            )
            ctx = root.context
            tracer.bind(("bft.request", self.client_id, timestamp), ctx)

        leader = self._leader_hint(timestamp)
        connection = self._connections.get(leader)
        if connection is not None and not connection.closed:
            yield from inline(
                self.env,
                connection.send_gen(raw, trace_ctx=ctx),
                "reptor.send",
            )

        backoff_attempt = 0
        while not accepted.triggered:
            timer = self.env.timeout(self.retry_timeout)
            waiters = [accepted, timer]
            if self._saw_busy:
                # Only once overload has ever been observed does the
                # busy waiter join the event set (see _saw_busy above).
                busy_signal = self._busy_signal.get(timestamp)
                if busy_signal is None or busy_signal.triggered:
                    busy_signal = self.env.event()
                    self._busy_signal[timestamp] = busy_signal
                waiters.append(busy_signal)
            yield self.env.any_of(waiters)
            # Lost the race (or fired): only the AnyOf listens.
            timer.cancel()
            if accepted.triggered:
                break
            busy_signal = self._busy_signal.get(timestamp)
            if busy_signal is not None and busy_signal.triggered:
                # f+1 replicas shed this request: the group really is
                # overloaded.  Back off (jittered exponential) and retry
                # to the leader only — broadcasting would add load.
                self.busy_backoffs += 1
                self._busy_votes.pop(timestamp, None)
                yield self.env.timeout(
                    self._backoff.delay(backoff_attempt, self._backoff_rng)
                )
                backoff_attempt += 1
                if accepted.triggered:
                    break
                leader = self._leader_hint(timestamp)
                connection = self._connections.get(leader)
                if connection is not None and not connection.closed:
                    yield from inline(
                        self.env,
                        connection.send_gen(raw, trace_ctx=ctx),
                        "reptor.send",
                    )
                continue
            # Timeout: broadcast to all replicas (PBFT client fallback).
            self.retransmissions += 1
            for connection in self._connections.values():
                if not connection.closed:
                    yield from inline(
                        self.env,
                        connection.send_gen(raw, trace_ctx=ctx),
                        "reptor.send",
                    )
        result = accepted.value
        del self._accepted[timestamp]
        del self._reply_votes[timestamp]
        self._busy_votes.pop(timestamp, None)
        self._busy_signal.pop(timestamp, None)
        if root is not None:
            root.end(result_bytes=len(result) if result is not None else 0)
            tracer.unbind(("bft.request", self.client_id, timestamp))
        return result

    def _on_reply(self, reply: Reply) -> None:
        if reply.client_id != self.client_id:
            return
        if self._partitioner is not None:
            group = self._partitioner.group_of(self.client_id, reply.timestamp)
            self._group_views[group] = max(
                self._group_views.get(group, 0), reply.view
            )
        votes = self._reply_votes.get(reply.timestamp)
        accepted = self._accepted.get(reply.timestamp)
        if votes is None or accepted is None or accepted.triggered:
            return
        voters = votes.setdefault(reply.result, set())
        voters.add(reply.replica_id)
        self._view_hint = max(self._view_hint, reply.view)
        if len(voters) >= self.f + 1:
            accepted.succeed(reply.result)

    def _on_busy(self, busy: Busy) -> None:
        if busy.client_id != self.client_id:
            return
        accepted = self._accepted.get(busy.timestamp)
        if accepted is None or accepted.triggered:
            return
        voters = self._busy_votes.setdefault(busy.timestamp, set())
        voters.add(busy.replica_id)
        self._view_hint = max(self._view_hint, busy.view)
        if len(voters) >= self.f + 1:
            # At least one honest replica shed the request: genuine
            # overload, not a Byzantine replica crying wolf.
            self._saw_busy = True
            signal = self._busy_signal.get(busy.timestamp)
            if signal is not None and not signal.triggered:
                signal.succeed()

    def close(self) -> None:
        """Close all replica connections."""
        self.running = False
        for connection in self._connections.values():
            connection.close()

    def __repr__(self) -> str:
        return f"<BftClient {self.client_id} invocations={self.invocations}>"
