"""Point-to-point link model.

A :class:`Link` is one *direction* of a wire: frames are serialized FIFO at
the link's bandwidth, then arrive after the propagation delay.  Serialization
and propagation pipeline naturally — the next frame starts clocking out as
soon as the previous one has left the NIC, not when it arrives.

A :class:`DuplexLink` bundles the two directions of a full-duplex cable,
matching the paper's testbed (10 Gbps full-duplex RoCE link).

Loss injection is deterministic: a ``drop_fn(frame) -> bool`` hook decides
per frame, so failure-injection tests reproduce exactly.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.errors import ConfigurationError, NetworkError
from repro.net.frame import Frame
from repro.sim import Counter, Event, Store, UtilizationTracker
from repro.sim.copystats import COPYSTATS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Environment

__all__ = ["Link", "DuplexLink", "GIGABIT", "TEN_GIGABIT"]

#: Bits per second in 1 Gb/s.
GIGABIT = 1_000_000_000
#: The paper's testbed link rate.
TEN_GIGABIT = 10 * GIGABIT

DeliverFn = Callable[[Frame], None]
DropFn = Callable[[Frame], bool]


class Link:
    """One direction of a point-to-point wire.

    Parameters
    ----------
    bandwidth_bps:
        Serialization rate in bits per second.
    propagation_delay:
        Seconds between the last bit leaving and the frame arriving.
    drop_fn:
        Optional deterministic loss hook; return True to drop the frame
        (after it consumed serialization time, like a real corrupted frame).
    """

    def __init__(
        self,
        env: "Environment",
        bandwidth_bps: float = TEN_GIGABIT,
        propagation_delay: float = 1.5e-6,
        drop_fn: Optional[DropFn] = None,
        name: str = "link",
    ):
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be > 0 ({bandwidth_bps})")
        if propagation_delay < 0:
            raise ConfigurationError(
                f"propagation delay must be >= 0 ({propagation_delay})"
            )
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = propagation_delay
        self.drop_fn = drop_fn
        self.name = name
        self._receiver: Optional[DeliverFn] = None
        self._outbox: Store = Store(env)
        self.tracker = UtilizationTracker(env, f"{name}.tx")
        self.frames_sent = Counter(f"{name}.frames_sent")
        self.frames_dropped = Counter(f"{name}.frames_dropped")
        self.bytes_sent = Counter(f"{name}.bytes_sent")
        self._seconds_per_byte = 8 / self.bandwidth_bps
        # The "link.serialize" span of the frame on the wire (traced only).
        self._tx_span = None
        # (frame, "link.propagate" span) of the traced frames in flight,
        # oldest first: frames arrive in the order they left.
        self._propagating: Deque[tuple] = deque()
        # The transmit loop starts where the generator process it
        # replaces did: on the urgent lane.
        env._urgent.append(self._tx_next)

    def attach_receiver(self, deliver: DeliverFn) -> None:
        """Register the function invoked for every arriving frame."""
        if self._receiver is not None:
            raise NetworkError(f"{self.name}: receiver already attached")
        self._receiver = deliver

    def send(self, frame: Frame) -> None:
        """Queue ``frame`` for transmission (returns immediately)."""
        if self._receiver is None:
            raise NetworkError(f"{self.name}: no receiver attached")
        self._outbox.post(frame)

    def transmission_time(self, wire_bytes: int) -> float:
        """Seconds needed to clock ``wire_bytes`` onto the wire."""
        return wire_bytes * 8 / self.bandwidth_bps

    # The transmit loop is a three-state callback machine rather than a
    # generator process: wait-for-frame -> serialize -> schedule arrival.
    # It arms exactly the same entries in exactly the same order the
    # generator version did (the get's hand-over, the serialization
    # timer, the arrival timer, the next get), so schedules stay
    # bit-identical.  The link is the only subscriber of each, so each is
    # a bare entry (repro.sim.core): a tuple, not an event.

    def _tx_next(self, _event: Optional[Event] = None) -> None:
        """Wait for the next queued frame."""
        self._outbox.get_call(self._tx_serialize)

    def _tx_serialize(self, frame: Frame) -> None:
        """Start clocking the received frame onto the wire."""
        env = self.env
        # Direct env.tracer read (get_tracer() costs a call per frame).
        tracer = env.tracer
        traced = (
            tracer is not None
            and tracer.enabled
            and frame.trace_ctx is not None
        )
        span = None
        if traced:
            span = tracer.start_span(
                "link.serialize",
                layer="link",
                parent=frame.trace_ctx,
                track=self.name,
                frame_id=frame.frame_id,
                wire_bytes=frame.wire_bytes,
            )
        self._tx_span = span
        # UtilizationTracker.begin(), in place, as TimedHold does it.
        tracker = self.tracker
        if not tracker._depth:
            tracker._busy_since = env._now
        tracker._depth += 1
        env._eid += 1
        _heappush(
            env._far,
            (
                env._now + frame.wire_bytes * self._seconds_per_byte,
                1,
                env._eid,
                None,
                self._tx_finish,
                frame,
            ),
        )

    def _tx_finish(self, frame: Frame) -> None:
        """Serialization done: account, drop-check, schedule the arrival."""
        env = self.env
        # UtilizationTracker.end(), in place (the begin above came first).
        tracker = self.tracker
        depth = tracker._depth = tracker._depth - 1
        if not depth and tracker._busy_since is not None:
            tracker._busy_total += env._now - tracker._busy_since
            tracker._busy_since = None
        span = self._tx_span
        traced = span is not None
        if traced:
            span.end()
            self._tx_span = None
        wire_bytes = frame.wire_bytes
        self.frames_sent.value += 1
        self.bytes_sent.value += wire_bytes
        drop_fn = self.drop_fn
        if drop_fn is not None and drop_fn(frame):
            self.frames_dropped.increment()
            if traced:
                env.tracer.instant(
                    "link.drop",
                    layer="link",
                    parent=frame.trace_ctx,
                    track=self.name,
                    frame_id=frame.frame_id,
                )
            self._tx_next()
            return
        env._eid += 1
        arrival = env._now + self.propagation_delay
        _heappush(env._far, (arrival, 1, env._eid, None, self._deliver, frame))
        if traced:
            self._propagating.append(
                (
                    frame,
                    env.tracer.start_span(
                        "link.propagate",
                        layer="link",
                        parent=frame.trace_ctx,
                        track=self.name,
                        frame_id=frame.frame_id,
                    ),
                )
            )
        self._tx_next()

    def _deliver(self, frame: Frame) -> None:
        """The frame arrives: end its propagation span, hand it over."""
        propagating = self._propagating
        if propagating and propagating[0][0] is frame:
            propagating.popleft()[1].end()
        if COPYSTATS.enabled:
            COPYSTATS.frame(frame.wire_bytes)
        self._receiver(frame)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time the transmitter was busy since ``since``."""
        return self.tracker.utilization(since)

    def __repr__(self) -> str:
        gbps = self.bandwidth_bps / GIGABIT
        return f"<Link {self.name!r} {gbps:g}Gbps prop={self.propagation_delay}>"


class DuplexLink:
    """Both directions of a full-duplex cable between two endpoints."""

    def __init__(
        self,
        env: "Environment",
        bandwidth_bps: float = TEN_GIGABIT,
        propagation_delay: float = 1.5e-6,
        drop_fn: Optional[DropFn] = None,
        name: str = "duplex",
    ):
        self.env = env
        self.forward = Link(
            env, bandwidth_bps, propagation_delay, drop_fn, name=f"{name}.fwd"
        )
        self.backward = Link(
            env, bandwidth_bps, propagation_delay, drop_fn, name=f"{name}.bwd"
        )
        self.name = name

    def __repr__(self) -> str:
        return f"<DuplexLink {self.name!r}>"
