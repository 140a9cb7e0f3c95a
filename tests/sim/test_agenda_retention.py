"""The calendar lane holds pending entries only.

Once a far-out timer is the only thing in the ring, the serve pointer
jumps to its bucket and every later push lands in that bucket's sorted
run.  The run then lives until the timer fires — so a served slot that
kept its entry would pin the event, its value and whatever the value
holds for the rest of the run (a 100 MiB sawtooth on ``pbft_rubin``).
"""

import weakref

import pytest

from repro.sim import Environment

FAR = 10e-3
TICK = 1e-6
TICKS = 200


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
def test_served_entries_are_released_inside_the_bucket(drive):
    env = Environment(scheduler="calendar")
    far = env.timeout(FAR)
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

    # Still inside the far timer's bucket: the run that served the ticks
    # is the run being served now.
    assert not far.processed and env._far._bucket_top > FAR
    served = carried[: TICKS - 2]  # each ticker still holds its latest
    assert len(carried) > len(served) > 0
    assert [ref() for ref in served] == [None] * len(served)
