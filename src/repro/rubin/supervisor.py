"""Channel supervision: automatic reconnect with backoff.

A :class:`RubinChannel` enters a terminal error state when its queue pair
dies (peer crash, link blackout past the retry budget, rejected
handshake).  The NIO baseline the paper compares against simply
reconnects the socket; the :class:`ChannelSupervisor` gives RUBIN the
same behaviour: it watches channel error notifications, tears the dead
QP down and re-runs the CM handshake with seeded exponential backoff +
jitter, under a capped retry budget.

A re-established channel surfaces ``OP_ACCEPT`` readiness through the
selection-key machinery again (the same readiness an original active
open produces), so the application replays its ``finish_connect()`` flow
and observes the reconnect exactly as it would with NIO sockets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.audit import get_audit
from repro.errors import RubinError
from repro.rubin.channel import RubinChannel
from repro.sim.monitor import Counter, TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rubin.selector import RubinSelector
    from repro.sim import Environment

__all__ = ["SupervisorPolicy", "ChannelSupervisor"]


@dataclass(frozen=True)
class SupervisorPolicy:
    """Backoff and budget parameters for channel recovery.

    The delay before attempt ``k`` (0-based) is
    ``min(base_delay * multiplier**k, max_delay)`` scaled by a seeded
    jitter factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` —
    jitter desynchronises replicas that all lost the same peer, so the
    restarted host is not hammered by simultaneous handshakes.
    """

    base_delay: float = 500e-6
    max_delay: float = 20e-3
    multiplier: float = 2.0
    jitter: float = 0.25
    max_attempts: int = 20
    #: How long one CM handshake may stall before it is aborted and
    #: counted as a failed attempt (covers REQ/REP frames black-holed by
    #: a crashed peer).
    connect_timeout: float = 5e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise RubinError("need 0 < base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise RubinError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise RubinError("jitter must be in [0, 1)")
        if self.max_attempts < 1:
            raise RubinError("max_attempts must be >= 1")
        if self.connect_timeout <= 0:
            raise RubinError("connect_timeout must be > 0")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered backoff delay before ``attempt`` (0-based)."""
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class ChannelSupervisor:
    """Watches channels and re-establishes them after transport errors.

    Only actively opened channels (those with a ``remote_addr``) are
    eligible: the passive side of a connection recovers by accepting the
    fresh inbound handshake, not by re-dialing.
    """

    def __init__(
        self,
        env: "Environment",
        policy: Optional[SupervisorPolicy] = None,
        selector: Optional["RubinSelector"] = None,
        name: str = "supervisor",
    ):
        self.env = env
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.selector = selector
        self.name = name
        self._rng = random.Random(self.policy.seed)
        self._stopped = False
        self._recovering: Set[int] = set()
        self._abandoned: Set[int] = set()
        #: Waiter events poked by channel state changes, keyed by
        #: channel_id (one recovery process per channel at a time).
        self._waiters: Dict[int, object] = {}
        self.on_recovered: List[Callable[[RubinChannel], None]] = []
        self.on_abandoned: List[Callable[[RubinChannel], None]] = []
        # Metrics (ISSUE: reconnect attempts, successful recoveries).
        self.reconnect_attempts = Counter(f"{name}.reconnect_attempts")
        self.reconnects = Counter(f"{name}.reconnects")
        self.abandons = Counter(f"{name}.abandons")
        self.recovery_latency = TimeSeries(env, f"{name}.recovery_latency")

    def supervise(self, channel: RubinChannel) -> None:
        """Start watching ``channel``; recover it whenever it errors."""
        if channel.remote_addr is None:
            raise RubinError(f"{channel}: only dialed channels are supervised")
        channel.add_watcher(lambda ch=channel: self._on_change(ch))
        if channel.errored:
            self._maybe_recover(channel)

    def stop(self) -> None:
        """Stop supervising; in-flight recoveries abort at the next step."""
        self._stopped = True
        for waiter in list(self._waiters.values()):
            if not waiter.triggered:
                waiter.succeed()

    # ------------------------------------------------------------------

    def _on_change(self, channel: RubinChannel) -> None:
        waiter = self._waiters.get(channel.channel_id)
        if waiter is not None and not waiter.triggered:
            waiter.succeed()
        if channel.closed and not channel.errored:
            # Closed by its owner: close() gave the buffer pools back, so
            # the channel must never be re-dialed, whatever it reports
            # later (a recovery in flight stops at its next attempt).
            self._abandoned.add(channel.channel_id)
        if channel.errored:
            self._maybe_recover(channel)

    def _maybe_recover(self, channel: RubinChannel) -> None:
        if self._stopped:
            return
        cid = channel.channel_id
        if cid in self._recovering or cid in self._abandoned:
            return
        self._recovering.add(cid)
        self.env.process(
            self._recover(channel), name=f"{self.name}.recover.ch{cid}"
        )

    def _recover(self, channel: RubinChannel):
        cid = channel.channel_id
        started = self.env.now
        try:
            for attempt in range(self.policy.max_attempts):
                yield self.env.timeout(self.policy.delay(attempt, self._rng))
                if self._stopped or cid in self._abandoned:
                    return
                self.reconnect_attempts.increment()
                audit = get_audit(self.env)
                if audit.enabled:
                    audit.on_reconnect(
                        self.name,
                        "attempt",
                        channel_id=cid,
                        attempt=attempt,
                        cause=channel.last_error,
                    )
                conn_id = channel.reconnect()
                deadline = self.env.now + self.policy.connect_timeout
                while True:
                    if channel.established:
                        break
                    if channel.errored or self._stopped:
                        break
                    remaining = deadline - self.env.now
                    if remaining <= 0:
                        break
                    waiter = self.env.event()
                    self._waiters[cid] = waiter
                    timer = self.env.timeout(remaining)
                    yield self.env.any_of([waiter, timer])
                    timer.cancel()
                    self._waiters.pop(cid, None)
                if self._stopped:
                    return
                if channel.established:
                    channel.reconnects += 1
                    self.reconnects.increment()
                    self.recovery_latency.record(self.env.now - started)
                    if audit.enabled:
                        audit.on_reconnect(
                            self.name,
                            "success",
                            channel_id=cid,
                            attempts=attempt + 1,
                            latency=self.env.now - started,
                        )
                    if self.selector is not None:
                        self.selector.wakeup()
                    for callback in list(self.on_recovered):
                        callback(channel)
                    return
                if not channel.errored:
                    # Handshake stalled: abort so a late REP is dropped.
                    channel.cm.abort_connect(conn_id)
            self._abandoned.add(cid)
            self.abandons.increment()
            audit = get_audit(self.env)
            if audit.enabled:
                audit.on_reconnect(
                    self.name,
                    "abandoned",
                    channel_id=cid,
                    attempts=self.policy.max_attempts,
                )
            for callback in list(self.on_abandoned):
                callback(channel)
        finally:
            self._waiters.pop(cid, None)
            self._recovering.discard(cid)

    def __repr__(self) -> str:
        return (
            f"<ChannelSupervisor {self.name} "
            f"recovering={len(self._recovering)} "
            f"reconnects={self.reconnects.value}>"
        )
