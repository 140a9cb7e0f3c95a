"""The agenda holds what is pending and nothing else.

A lane that kept a served entry would pin the event, its value and
whatever the value holds until the lane itself went away — with a
far-out watchdog timer pending that is the rest of the run (a 100 MiB
sawtooth on ``pbft_rubin`` before served slots were cleared, and a slot
per served entry left behind even after).
"""

import weakref

import pytest

from repro.bft import BftCluster, BftConfig
from repro.sim import Environment

FAR = 1.0
TICK = 1e-6
TICKS = 100_000  # per ticker; the drives stop halfway


class Payload:
    """Something weakref-able for an event to carry."""


HALFWAY = TICKS // 2 * TICK + TICK / 2


def drive_until_time(env):
    env.run(until=HALFWAY)


def drive_until_event(env):
    env.run(until=env.timeout(HALFWAY))


def drive_by_step(env):
    while env.peek() < HALFWAY:
        env.step()


@pytest.mark.parametrize(
    "drive", [drive_until_time, drive_until_event, drive_by_step]
)
def test_a_served_entry_is_gone_from_the_agenda(drive):
    env = Environment()
    watchdog = env.timeout(FAR)
    carried = []

    def ticker(env):
        for _ in range(TICKS):
            payload = Payload()
            carried.append(weakref.ref(payload))
            # A zero-delay event per tick: the other ticker's timeout,
            # due at the same instant, is then popped while the
            # zero-delay lane is busy — the run loop's other pop site.
            env.event().succeed()
            yield env.timeout(TICK, value=payload)

    env.process(ticker(env))
    env.process(ticker(env))
    drive(env)

    assert not watchdog.processed and len(carried) >= TICKS
    # Pending: the watchdog and each ticker's current timeout.
    assert not env._urgent
    assert len(env._far) + len(env._dq) == 3
    served = carried[:-2]  # each ticker still holds its latest
    assert [ref() for ref in served] == [None] * len(served)


#: ``pbft_rubin``'s shape: four closed-loop clients, unbatched PUTs.
CLIENTS, PUTS = 4, 1_200
#: What may be pending at a completion: the run's live entries (about
#: 70 here), plus no more cancelled ones than live ones.
FAR_BOUND = 160


def test_lost_retry_timers_leave_the_agenda():
    """Every request arms a 20 ms retry timer that its reply beats by
    two orders of magnitude.  Left pending until they expire, they fill
    the far heap (1 256 entries at the worst completion of this run);
    cancelled once the reply wins (DESIGN §11 rule 6) they cost one
    rebuild per few dozen requests, and the worst completion sees 135."""
    cluster = BftCluster(
        config=BftConfig(batch_size=1, batch_delay=0.0), num_clients=CLIENTS
    )
    cluster.start()
    env = cluster.env
    peaks = []

    def closed_loop(client, first):
        for index in range(first, PUTS, CLIENTS):
            assert (yield client.invoke(b"PUT k%d=v%d" % (index, index))) == b"OK"
            peaks.append(len(env._far))

    env.run(
        until=env.all_of(
            [env.process(closed_loop(cluster.client(c), c)) for c in range(CLIENTS)]
        )
    )
    assert len(peaks) == PUTS
    assert max(peaks) <= FAR_BOUND
