"""``ReptorConnection.post``: a send whose event nobody keeps.

The replicas broadcast, reply and forward without waiting for the window
to admit each message.  Such a send must never abort the run from
inside a process nobody waits on, and it must go through the very gate
the awaited ``send()`` goes through — including the gate's known gap.
"""

import pytest

from repro.bft import BftCluster
from repro.errors import BftError
from repro.sim import inline
from tests.reptor.test_endpoint import Cluster


def _dead_peer_link():
    """r0's connection to a crashed r1, its window full and senders parked."""
    cluster = BftCluster(transport="rubin", faulty_fabric=True)
    cluster.start()
    cluster.crash_replica("r1")
    r0 = cluster.replicas["r0"]
    return cluster, r0.endpoint, r0._replica_conns["r1"]


def _trickle(env, send, count=400, gap=10e-6):
    """``count`` discarded sends, far enough apart for the gate to see
    what the earlier ones queued."""

    def sender(env):
        for _ in range(count):
            send(b"x" * 64)
            yield env.timeout(gap)

    env.run(until=env.process(sender(env)))


def test_a_posted_send_is_dropped_and_counted_when_its_connection_closes():
    cluster, endpoint, connection = _dead_peer_link()
    _trickle(cluster.env, connection.post)
    # The dead peer acknowledges nothing: the window is full and every
    # later send is parked on it.
    parked = len(connection._credit_waiters)
    assert (connection.outstanding, parked) == (30, 306)
    connection.close()
    cluster.run_for(1e-3)  # used to raise out of env.run()
    assert endpoint.sends_dropped.value == parked
    # Closed at its start: dropped as well, and nothing is spawned or queued.
    connection.post(b"too late")
    cluster.run_for(1e-3)
    assert endpoint.sends_dropped.value == parked + 1
    assert connection.outstanding == 30
    assert (
        cluster.metrics_registry().snapshot()["endpoint.r0.sends_dropped"]
        == parked + 1
    )


def test_a_discarded_send_event_still_aborts_the_run():
    """What ``post`` is for: the same burst through ``send()``, whose
    failure belongs to whoever holds the event — here nobody."""
    cluster, _endpoint, connection = _dead_peer_link()
    _trickle(cluster.env, connection.send)
    connection.close()
    with pytest.raises(BftError, match="closed while blocked"):
        cluster.run_for(1e-3)


@pytest.mark.parametrize("how", ["spawned", "inlined"])
def test_an_awaited_send_still_raises_to_its_awaiter(how):
    cluster, endpoint, connection = _dead_peer_link()
    env = cluster.env
    _trickle(env, connection.post, count=100)
    posted_and_parked = len(connection._credit_waiters)
    assert (connection.outstanding, posted_and_parked) == (30, 6)
    seen = []

    def awaiting(env):
        try:
            if how == "spawned":
                yield connection.send(b"wait for me")
            else:
                yield from inline(env, connection.send_gen(b"wait for me"))
        except BftError as exc:
            seen.append(str(exc))

    waiter = env.process(awaiting(env))
    cluster.run_for(1e-4)
    assert waiter.is_alive  # parked on the window behind them
    connection.close()
    env.run(until=waiter)
    assert len(seen) == 1 and "closed while blocked" in seen[0]
    # Raised, not counted: only the posted ones were dropped.
    assert endpoint.sends_dropped.value == posted_and_parked


# ---------------------------------------------------------------------------
# The window gate's check-then-act gap (DESIGN §12, "known gap")
# ---------------------------------------------------------------------------
#
# The gate tests ``outstanding >= window`` before the signing hold, and a
# message only counts once it reaches the outbox after it, so sends
# issued in one instant all pass.  Closing the gap moves modeled
# baselines (ROADMAP item 1's admission work); until then the peak is
# pinned, on every way into the send body, so that a rewrite of the send
# path cannot change it by accident.

#: 120 sends in one instant on a window of 30: nobody is parked, and the
#: outbox peaks at 116 (the loop drains four while the last are signed).
BURST, WINDOW, PEAK = 120, 30, 116


@pytest.mark.parametrize("how", ["send", "post", "inline"])
def test_a_same_instant_burst_walks_through_the_window_gate(how):
    cluster = Cluster("rubin")
    assert cluster.config.window == WINDOW
    a, _b = cluster.link()
    env = cluster.env
    peak = blocked = 0

    def one(env):
        yield from inline(env, a.send_gen(b"y" * 64))

    for _ in range(BURST):
        if how == "send":
            a.send(b"y" * 64)
        elif how == "post":
            a.post(b"y" * 64)
        else:
            env.process(one(env))
    deadline = env.now + 5e-3
    while env.peek() < deadline:
        env.step()
        peak = max(peak, a.outstanding)
        blocked = max(blocked, len(a._credit_waiters))
    assert (peak, blocked) == (PEAK, 0)
    assert a.messages_sent == BURST
