"""Property-based tests for the kernel's core ordering invariants."""

import heapq

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.frame import Frame
from repro.net.link import Link
from repro.sim import (
    Drive,
    Environment,
    GridWait,
    Resource,
    Store,
    TieBreakPolicy,
    detach,
    grid_wait,
    inline,
)
from repro.sim.resources import TimedHold
from repro.trace import Tracer, install_tracer


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        t = env.timeout(delay)
        t.subscribe(lambda e: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
    )
)
def test_identical_schedules_are_deterministic(delays):
    def run_once():
        env = Environment()
        trace = []
        for i, delay in enumerate(delays):
            t = env.timeout(delay, value=i)
            t.subscribe(lambda e: trace.append((env.now, e.value)))
        env.run()
        return trace

    assert run_once() == run_once()


@given(items=st.lists(st.integers(), min_size=1, max_size=100))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


@given(
    items=st.lists(st.integers(), min_size=1, max_size=50),
    capacity=st.integers(min_value=1, max_value=5),
)
def test_bounded_store_never_exceeds_capacity(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    max_seen = 0

    def producer(env):
        for item in items:
            yield store.put(item)

    def watcher_consumer(env):
        nonlocal max_seen
        for _ in items:
            max_seen = max(max_seen, len(store))
            yield store.get()
            yield env.timeout(1.0)

    env.process(producer(env))
    env.process(watcher_consumer(env))
    env.run()
    assert max_seen <= capacity


@settings(deadline=None)
@given(
    durations=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20
    ),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_resource_concurrency_never_exceeds_capacity(durations, capacity):
    env = Environment()
    res = Resource(env, capacity=capacity)
    active = 0
    peak = 0

    def worker(env, duration):
        nonlocal active, peak
        req = res.request()
        yield req
        active += 1
        peak = max(peak, active)
        yield env.timeout(duration)
        active -= 1
        req.release()

    for duration in durations:
        env.process(worker(env, duration))
    env.run()
    assert peak <= capacity
    assert active == 0
    assert res.count == 0


@given(
    payloads=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers()),
        min_size=1,
        max_size=60,
    )
)
def test_filtered_gets_return_only_matching_items(payloads):
    env = Environment()
    store = Store(env)
    wanted_tag = 0
    expected = [value for tag, value in payloads if tag == wanted_tag]
    got = []

    def producer(env):
        for tag, value in payloads:
            yield store.put((tag, value))

    def consumer(env):
        for _ in expected:
            tag, value = yield store.get(filter=lambda it: it[0] == wanted_tag)
            got.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == expected


# ---------------------------------------------------------------------------
# The agenda diet is invisible: urgent lane, eventless puts, adjacency fusion
# ---------------------------------------------------------------------------
#
# A ``TimedHold`` runs its grant and its completion on the spot when the
# entry it would push is provably the next one served; ``Store.post``
# allocates no put event.  The reference for both is the code they stand
# for — a request / timeout / release generator under a ``Process`` (which
# never fuses) and a ``put`` whose event is dropped — so a random program
# must dispatch the identical (time, label) trace whether each charge and
# each put takes the short form or the reference, and under a policy that
# always answers 0.  Times are small integers so that
# ties are exact.

_TIMES = st.integers(min_value=0, max_value=3).map(float)
_STEP = st.one_of(
    st.tuples(
        st.just("charge"),
        st.integers(min_value=0, max_value=1),  # which resource
        st.integers(min_value=1, max_value=3).map(float),  # how long
        st.booleans(),  # True: TimedHold; False: the generator reference
        st.booleans(),  # wait for it, or carry on within the same step
    ),
    st.tuples(st.just("spawn")),  # a start that leaves a mark
    st.tuples(st.just("put"), st.booleans()),  # True: post(); False: put()
    st.tuples(st.just("put_wait")),
    st.tuples(st.just("get")),
    st.tuples(st.just("sleep"), _TIMES),
)
_ACTORS = st.lists(
    st.tuples(_TIMES, st.lists(_STEP, min_size=1, max_size=5)),
    min_size=1,
    max_size=6,
)


class _Marks:
    """The tracker surface of a TimedHold, writing into the trace."""

    def __init__(self, env, trace, label):
        self.env, self.trace, self.label = env, trace, label

    def begin(self):
        self.trace.append((self.env.now, self.label, "begin"))

    def end(self):
        self.trace.append((self.env.now, self.label, "end"))


def _reference_hold(env, resource, duration, marks):
    request = resource.request()
    yield request
    marks.begin()
    yield env.timeout(duration)
    marks.end()
    request.release()


def _run_program(actors, policy=None, long_charges=False, long_puts=False):
    """Dispatch ``actors``; return ((time, label, what) trace, event ids).

    ``long_charges`` / ``long_puts`` replace every short form with its
    reference; ``policy`` is installed once the processes exist.
    """
    env = Environment()
    resources = [Resource(env, capacity=1), Resource(env, capacity=4)]
    store = Store(env, capacity=2)
    trace = []

    def spawned(label):
        trace.append((env.now, label, "spawned"))
        return
        yield

    def actor(env, name, delay, steps):
        yield env.timeout(delay)
        for index, step in enumerate(steps):
            label = f"{name}.{index}"
            if step[0] == "charge":
                _kind, which, duration, short, wait = step
                marks = _Marks(env, trace, label)
                if short and not long_charges:
                    charge = TimedHold(resources[which], duration, tracker=marks)
                else:
                    charge = env.process(
                        _reference_hold(env, resources[which], duration, marks)
                    )
                if wait:
                    yield charge
            elif step[0] == "spawn":
                env.process(spawned(label))
            elif step[0] == "put":
                if step[1] and not long_puts:
                    store.post(label)
                else:
                    store.put(label)
            elif step[0] == "put_wait":
                yield store.put(label)
            elif step[0] == "get":
                label = (label, (yield store.get()))
            else:
                yield env.timeout(step[1])
            trace.append((env.now, label, "done"))

    for number, (delay, steps) in enumerate(actors):
        env.process(actor(env, f"a{number}", delay, steps))
    if policy is not None:
        # After the processes exist, so their pending starts migrate.
        env.set_tiebreak(policy)
    env.run()
    return trace, env._eid


@settings(max_examples=150, deadline=None)
@given(actors=_ACTORS)
# A hold's start with another start queued behind it, and nothing else due.
@example(
    actors=[
        (1.0, [("charge", 0, 1.0, True, False), ("spawn",), ("sleep", 2.0)]),
    ]
)
def test_short_forms_dispatch_the_reference_trace(actors):
    expected, reference_events = _run_program(
        actors, long_charges=True, long_puts=True
    )
    short, short_events = _run_program(actors)
    chosen, _ = _run_program(actors, policy=TieBreakPolicy())
    assert short == expected
    assert chosen == expected
    assert short_events <= reference_events


class TestAdjacency:
    """Directed cases: what a hold costs alone, and what forces the long way.

    Cost is counted in sequence numbers (``env._eid``): the hold's
    timeout always takes one, an unfused grant and an unfused completion
    one more each.
    """

    @staticmethod
    def _hold(env, resource, trace, label, duration=1.0):
        hold = TimedHold(resource, duration, tracker=_Marks(env, trace, label))
        hold.callbacks.append(lambda _e: trace.append((env.now, label, "done")))
        return hold

    def test_a_hold_alone_is_one_agenda_entry(self):
        env = Environment()
        trace = []
        self._hold(env, Resource(env), trace, "h")
        env.run()
        assert env._eid == 1
        assert trace == [(0.0, "h", "begin"), (1.0, "h", "end"), (1.0, "h", "done")]

    def test_a_same_instant_zero_delay_entry_goes_first(self):
        env = Environment()
        trace = []
        self._hold(env, Resource(env), trace, "h")
        env.event().succeed().callbacks.append(
            lambda _e: trace.append((env.now, "event", "done"))
        )
        env.run()
        # The event, the grant it forced onto the agenda, the timeout.
        assert env._eid == 3
        assert trace[:2] == [(0.0, "event", "done"), (0.0, "h", "begin")]

    def test_a_far_entry_due_now_goes_first(self):
        env = Environment()
        trace = []
        self._hold(env, Resource(env), trace, "h")
        env.timeout(0.0).callbacks.append(
            lambda _e: trace.append((env.now, "timer", "done"))
        )
        env.run()
        # The timer, the grant it forced onto the agenda, the timeout.
        assert env._eid == 3
        assert trace[:2] == [(0.0, "timer", "done"), (0.0, "h", "begin")]

    def test_a_later_timer_due_at_the_finish_goes_first(self):
        env = Environment()
        trace = []

        def late(env):
            yield env.timeout(0.5)
            env.timeout(0.5).callbacks.append(
                lambda _e: trace.append((env.now, "timer", "done"))
            )

        env.process(late(env))
        self._hold(env, Resource(env), trace, "h")
        env.run()
        # late's two timers and its completion, the hold's timeout, and
        # the completion the second timer forced onto the agenda.
        assert env._eid == 5
        assert trace == [
            (0.0, "h", "begin"),
            (1.0, "h", "end"),
            (1.0, "timer", "done"),
            (1.0, "h", "done"),
        ]

    def test_an_earlier_timer_due_at_the_finish_does_not_block_it(self):
        """Only what is *still pending* at the instant counts."""
        env = Environment()
        trace = []
        env.timeout(1.0).callbacks.append(
            lambda _e: trace.append((env.now, "timer", "done"))
        )
        self._hold(env, Resource(env), trace, "h")
        env.run()
        assert env._eid == 2
        assert trace[-3:] == [
            (1.0, "timer", "done"),
            (1.0, "h", "end"),
            (1.0, "h", "done"),
        ]

    def test_a_pending_start_goes_first(self):
        env = Environment()
        trace = []

        def starter(env):
            trace.append((env.now, "process", "started"))
            return
            yield

        self._hold(env, Resource(env), trace, "h")
        env.process(starter(env))
        env.run()
        # The grant, the process's completion, the hold's timeout.
        assert env._eid == 3
        assert trace[:2] == [(0.0, "process", "started"), (0.0, "h", "begin")]

    def test_a_waiter_granted_in_the_finish_goes_first(self):
        env = Environment()
        trace = []
        resource = Resource(env, capacity=1)
        self._hold(env, resource, trace, "first")
        self._hold(env, resource, trace, "second")
        env.run()
        # first: grant (second's start was pending), timeout, completion
        # (second's grant was pushed inside the finish); second: its
        # grant, then timeout alone.
        assert env._eid == 5
        assert trace == [
            (0.0, "first", "begin"),
            (1.0, "first", "end"),
            (1.0, "second", "begin"),
            (1.0, "first", "done"),
            (2.0, "second", "end"),
            (2.0, "second", "done"),
        ]
        assert resource.count == 0

    def test_stepping_and_running_cost_the_same(self):
        counts = []
        for drive in ("run", "step"):
            env = Environment()
            trace = []
            resource = Resource(env, capacity=1)
            for label in ("a", "b", "c"):
                self._hold(env, resource, trace, label)
            if drive == "run":
                env.run()
            else:
                while env.peek() != float("inf"):
                    env.step()
            counts.append((env._eid, trace))
        assert counts[0] == counts[1]


class TestPost:
    def test_post_takes_no_sequence_number_unless_full(self):
        env = Environment()
        store = Store(env, capacity=2)
        store.post("a")
        store.post("b")
        assert (list(store.items), env._eid) == (["a", "b"], 0)
        store.post("c")  # full: waits behind a put event like any put
        assert (store.pending_putters, env._eid) == (1, 0)
        assert store.try_get() == "a"
        assert (list(store.items), store.pending_putters) == (["b", "c"], 0)

    def test_post_hands_the_item_to_a_blocked_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            got.append((yield store.get()))

        env.process(consumer(env))
        env.run()
        before = env._eid
        store.post("x")
        assert len(store) == 0 and env._eid == before + 1  # the get's
        env.run()
        assert got == ["x"]

    def test_post_respects_a_filtered_head_getter(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, wanted):
            got.append((yield store.get(filter=lambda item: item == wanted)))

        env.process(consumer(env, "b"))
        env.process(consumer(env, "a"))
        env.run()
        store.post("a")  # the head getter wants "b": nobody overtakes it
        env.run()
        assert got == [] and list(store.items) == ["a"]
        store.post("b")
        env.run()
        assert got == ["b", "a"]


# ---------------------------------------------------------------------------
# Tickless waits: grid_wait is the ticking loop without the ticks
# ---------------------------------------------------------------------------
#
# ``yield from grid_wait(env, period, ready, subscribe)`` stands for
# ``while not ready(): yield env.timeout(period)``.  A random program —
# waiters on different grids, flags set, closed, consumed and poked for
# nothing, unrelated timers and holds, a clock that starts below zero —
# must dispatch the identical (time, label) trace whichever way its
# waiters wait, also under a policy that always answers 0.  The one thing
# the two may disagree on is the order *within* an instant that a tick
# shares bit-exactly with something else (the tick's entry is keyed at the
# wake-up, not one period before its instant), so times here are fractions
# that no grid sum lands on; a program that manages a tie anyway is
# discarded, and the directed cases below pin what happens in one.


class _Flag:
    """Something to wait for, with one-shot subscriptions like a CQ's."""

    def __init__(self):
        self.value = False
        self.closed = False
        self.watchers = []

    def ready(self):
        return self.value or self.closed

    def subscribe(self, callback):
        self.watchers.append(callback)

    def notify(self):
        watchers, self.watchers = self.watchers, []
        for watcher in watchers:
            watcher()


def _ticking_wait(env, period, ready, _subscribe):
    """The literal loop ``grid_wait`` stands for."""
    while not ready():
        yield env.timeout(period)


_GRID_PERIODS = st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.7, 1.1])
_OFF_GRID = st.integers(min_value=1, max_value=6000).map(lambda n: n / 997)
_GRID_WAITERS = st.lists(
    st.tuples(
        _OFF_GRID,  # when it starts waiting
        _GRID_PERIODS,
        st.integers(min_value=0, max_value=1),  # which flag
        st.integers(min_value=1, max_value=3),  # rounds: wake, consume, again
    ),
    min_size=1,
    max_size=4,
)
_GRID_STEPS = st.lists(
    st.tuples(
        _OFF_GRID,
        st.one_of(
            st.tuples(st.just("set"), st.integers(min_value=0, max_value=1)),
            st.tuples(st.just("poke"), st.integers(min_value=0, max_value=1)),
            st.tuples(st.just("timer")),
            st.tuples(
                st.just("hold"),
                st.integers(min_value=1, max_value=900).map(lambda n: n / 983),
            ),
        ),
    ),
    max_size=10,
)
#: When each flag closes for good (waiters must always come home).
_GRID_CLOSES = st.tuples(_OFF_GRID, _OFF_GRID).map(
    lambda pair: (6.5 + pair[0], 6.5 + pair[1])
)


def _run_grid_program(waiters, steps, closes, start, wait, policy=None):
    """Dispatch the program; return (trace, tick instants, notify instants,
    ids).  A notify instant is one where a flag was set, poked or closed."""
    env = Environment(initial_time=start)
    flags = [_Flag(), _Flag()]
    cpu = Resource(env, capacity=1)
    trace, looked, notified = [], [], []

    def waiter(env, label, delay, period, flag, rounds):
        yield env.timeout(delay)

        def ready():
            looked.append((env.now, label))
            return flag.ready()

        for round_ in range(rounds):
            yield from wait(env, period, ready, flag.subscribe)
            trace.append((env.now, label, "closed" if flag.closed else round_))
            if flag.closed:
                return
            flag.value = False

    def step(env, label, delay, what):
        yield env.timeout(delay)
        if what[0] == "set":
            flags[what[1]].value = True
            flags[what[1]].notify()
            notified.append(env.now)
        elif what[0] == "poke":
            flags[what[1]].notify()
            notified.append(env.now)
        elif what[0] == "hold":
            yield TimedHold(cpu, what[1], tracker=_Marks(env, trace, label))
        trace.append((env.now, label, what[0]))

    def close(env, flag, delay):
        yield env.timeout(delay)
        flag.closed = True
        flag.notify()
        notified.append(env.now)

    for number, (delay, period, which, rounds) in enumerate(waiters):
        env.process(
            waiter(env, f"w{number}", delay, period, flags[which], rounds)
        )
    for number, (delay, what) in enumerate(steps):
        env.process(step(env, f"s{number}", delay, what))
    for flag, delay in zip(flags, closes):
        env.process(close(env, flag, delay))
    if policy is not None:
        env.set_tiebreak(policy)
    env.run()
    return trace, looked, notified, env._eid


@settings(max_examples=150, deadline=None)
@given(
    waiters=_GRID_WAITERS,
    steps=_GRID_STEPS,
    closes=_GRID_CLOSES,
    start=st.sampled_from([0.0, -2.5]),
)
# A flag set before the waiter's first tick, and one that only ever closes.
@example(
    waiters=[(1.0, 0.7, 0, 1), (1.0, 0.3, 1, 2)],
    steps=[(1.25, ("set", 0))],
    closes=(7.0, 7.5),
    start=0.0,
)
# A poke bit-exactly on a grid point: 724/997 plus ten additions of 0.2 is
# 2718/997, the waiter's tenth tick.
@example(
    waiters=[(724 / 997, 0.2, 1, 1)],
    steps=[(2718 / 997, ("poke", 1))],
    closes=(6.501003009027081, 6.501003009027081),
    start=0.0,
)
def test_grid_wait_dispatches_the_ticking_loops_trace(waiters, steps, closes, start):
    program = (waiters, steps, closes, start)
    expected, looked, notified, reference_events = _run_grid_program(
        *program, _ticking_wait
    )
    # Discard programs with a tie: a tick on the very instant a flag is
    # set, poked or closed (each wakes the sleeping waiters), or a tick
    # that found its flag ready sharing its instant with any other
    # labelled entry.
    tick_instants = {when for when, _label in looked}
    assume(not tick_instants & set(notified))
    woke = {(when, label) for when, label, _what in expected if label[0] == "w"}
    assume(
        not any(
            when == other and label != who
            for when, label in woke
            for other, who, _what in expected
        )
    )
    ties = GridWait.ties
    tickless, _, _, tickless_events = _run_grid_program(*program, grid_wait)
    chosen, _, _, _ = _run_grid_program(
        *program, grid_wait, policy=TieBreakPolicy()
    )
    assert tickless == expected
    assert chosen == expected
    assert tickless_events <= reference_events
    assert GridWait.ties == ties


class TestGridWait:
    """Directed cases: ties, the first tick, and what a wait costs."""

    @staticmethod
    def _run(wait, period, flip, start=0.0, arm_flip_at=None, extra=None):
        """One waiter from ``start``; the flag is set by a timer armed at
        ``arm_flip_at`` (default: at once) for the instant ``flip``
        (``None``: set in the starting instant, after the wait began)."""
        env = Environment(initial_time=start)
        flag = _Flag()
        trace = []

        def waiter(env):
            yield from wait(env, period, flag.ready, flag.subscribe)
            trace.append((env.now, "woke"))

        def flipper(env):
            if arm_flip_at is not None:
                yield env.timeout_at(arm_flip_at)
            if flip is not None:
                yield env.timeout_at(flip)
            flag.value = True
            flag.notify()
            trace.append((env.now, "set"))

        env.process(waiter(env))
        env.process(flipper(env))
        if extra is not None:
            env.process(extra(env, trace))
        env.run()
        return trace, env._eid

    def test_a_flip_between_grid_points_is_seen_by_the_next_tick(self):
        # The grid is the running sum 0.1 + 0.1 + ...: its eighth point is
        # 0.7999999999999999, not 8 * 0.1.
        for wait in (_ticking_wait, grid_wait):
            trace, _ = self._run(wait, 0.1, flip=0.75)
            assert trace == [(0.75, "set"), (0.7999999999999999, "woke")]

    def test_a_flip_before_the_first_tick_waits_for_it(self):
        for wait in (_ticking_wait, grid_wait):
            trace, _ = self._run(wait, 0.25, flip=0.0625)
            assert trace == [(0.0625, "set"), (0.25, "woke")]

    def test_a_flip_in_the_instant_the_wait_began_waits_a_period(self):
        """The waiter has looked already; it looks again one period on —
        which is not a tie: the grid point in question is the next one."""
        ties = GridWait.ties
        for wait in (_ticking_wait, grid_wait):
            trace, _ = self._run(wait, 0.25, flip=None)
            assert trace == [(0.0, "set"), (0.25, "woke")]
        assert GridWait.ties == ties

    def test_a_wait_costs_one_entry_however_long(self):
        _, ticking = self._run(_ticking_wait, 0.1, flip=7.75)
        _, tickless = self._run(grid_wait, 0.1, flip=7.75)
        # The flipper's timer and two completions, and the wait: 78 ticks
        # or one entry.
        assert (ticking, tickless) == (3 + 78, 3 + 1)

    def test_a_flip_on_a_grid_point_is_followed_by_the_tick(self):
        """The tie rule.  With a 0.25 grid every point is exact, so a
        flip at 1.0 ties with the fourth tick.  The ticking loop's answer
        depends on when the flip's entry was keyed — before the third
        tick armed the fourth (then the flip runs first and the tick sees
        it) or after (then the tick runs first and misses it).  The
        tickless wait always takes the first answer, and counts."""
        ties = GridWait.ties
        early = self._run(grid_wait, 0.25, flip=1.0)
        late = self._run(grid_wait, 0.25, flip=1.0, arm_flip_at=0.875)
        assert early[0] == late[0] == [(1.0, "set"), (1.0, "woke")]
        assert GridWait.ties == ties + 2
        ticking, _ = self._run(_ticking_wait, 0.25, flip=1.0)
        assert ticking == early[0]
        ticking, _ = self._run(_ticking_wait, 0.25, flip=1.0, arm_flip_at=0.875)
        assert ticking == [(1.0, "set"), (1.25, "woke")]

    def test_an_unrelated_entry_at_the_wake_instant(self):
        """Something else due on the tick that sees the flip: it keeps its
        place when it was keyed before the tick's predecessor ran — any
        delay longer than the period.  (Keyed inside that last period,
        and due bit-exactly on the grid point, it would now run before
        the tick instead of after it; nothing in the tree does that.)"""

        def bystander(env, trace):
            yield env.timeout(0.5)
            trace.append((env.now, "bystander"))

        for wait in (_ticking_wait, grid_wait):
            trace, _ = self._run(wait, 0.25, flip=0.375, extra=bystander)
            assert trace == [(0.375, "set"), (0.5, "bystander"), (0.5, "woke")]

    def test_ready_on_entry_sleeps_not_and_costs_nothing(self):
        env = Environment()
        flag = _Flag()
        flag.value = True
        done = []

        def waiter(env):
            yield from grid_wait(env, 0.1, flag.ready, flag.subscribe)
            done.append(env.now)

        env.process(waiter(env))
        env.run()
        # The process's completion is the only entry; nobody subscribed.
        assert (done, env._eid, flag.watchers) == ([0.0], 1, [])

    def test_a_notification_for_nothing_costs_a_look(self):
        """Woken with nothing ready, the waiter looks on its next grid
        point — where the loop looked too — and goes back to sleep."""
        env = Environment()
        flag = _Flag()
        woke = []

        def waiter(env):
            yield from grid_wait(env, 0.25, flag.ready, flag.subscribe)
            woke.append(env.now)

        def poker(env):
            yield env.timeout(0.6)
            flag.notify()
            yield env.timeout(1.0)
            flag.value = True
            flag.notify()

        env.process(waiter(env))
        env.process(poker(env))
        env.run(until=1.0)
        assert woke == [] and len(flag.watchers) == 1
        env.run()
        assert woke == [1.75]
        # The poker's two timers, two completions and two grid entries.
        assert env._eid == 6

    def test_a_grid_needs_a_positive_period(self):
        env = Environment()
        flag = _Flag()
        process = env.process(grid_wait(env, 0.0, flag.ready, flag.subscribe))
        with pytest.raises(SimulationError, match="positive"):
            env.run(until=process)

    def test_the_grid_point_is_armed_as_it_was_summed(self):
        """Across zero ``now + (tick - now)`` does not give ``tick`` back:
        the wake-up must key the float the loop's additions produce."""
        tick = -0.3 + 0.2 + 0.2
        assert -0.05 + (tick - -0.05) != tick
        for wait in (_ticking_wait, grid_wait):
            trace, _ = self._run(wait, 0.2, flip=-0.05, start=-0.3)
            assert trace == [(-0.05, "set"), (tick, "woke")]


class TestTimeoutAt:
    def test_fires_at_the_very_float(self):
        # 0.25 + 2**-53 + ((1.5 + 2**-52) - (0.25 + 2**-53)) rounds to 1.5.
        now, when = 0.25 + 2**-53, 1.5 + 2**-52
        assert now + (when - now) != when
        env = Environment(initial_time=now)
        seen = []
        env.timeout_at(when, value="v").callbacks.append(
            lambda event: seen.append((env.now, event.value))
        )
        env.run()
        assert seen == [(when, "v")]

    def test_now_is_allowed_and_queues_behind_what_is_due(self):
        env = Environment(initial_time=3.0)
        order = []
        env.event().succeed().callbacks.append(lambda _e: order.append("first"))
        env.timeout_at(3.0).callbacks.append(lambda _e: order.append("second"))
        env.timeout(0.0).callbacks.append(lambda _e: order.append("third"))
        env.run()
        assert (order, env.now) == (["first", "second", "third"], 3.0)

    def test_the_past_is_refused(self):
        env = Environment(initial_time=3.0)
        with pytest.raises(SimulationError, match="past"):
            env.timeout_at(2.999)
        event = env.event()
        with pytest.raises(SimulationError, match="past"):
            event.succeed_at(2.0)
        assert not event.triggered
        event.succeed_at(4.0)
        with pytest.raises(SimulationError, match="already"):
            event.succeed_at(5.0)

    def test_under_a_policy_it_is_a_heap_entry_like_any_other(self):
        env = Environment()
        env.set_tiebreak(TieBreakPolicy())
        seen = []
        env.timeout_at(2.0).callbacks.append(lambda _e: seen.append(env.now))
        env.timeout(1.0).callbacks.append(lambda _e: seen.append(env.now))
        env.run()
        assert seen == [1.0, 2.0]


# ---------------------------------------------------------------------------
# Calls that are not processes: inline() and detach()
# ---------------------------------------------------------------------------
#
# ``yield from inline(env, gen)`` stands for ``yield env.process(gen)`` and
# ``detach(env, gen)`` for an ``env.process(gen)`` whose event is dropped.
# A random program — callers that mix both forms, callees that hold, sleep,
# post, start things, call further callees, return or raise (also without
# ever yielding), unwaited charges queued ahead of a call, small-integer
# times so that ties are exact — must dispatch the identical (time, label)
# trace whichever form each call takes, however the kernel is driven, and
# under a policy that always answers 0.  Every event in these programs has
# one subscriber: that is the condition the short forms are exact under
# (DESIGN §11, rule 5).

_CALLEE_STEP = st.one_of(
    st.tuples(st.just("hold"), st.integers(0, 1), st.integers(1, 2).map(float)),
    st.tuples(st.just("sleep"), st.integers(0, 2).map(float)),
    st.tuples(st.just("post")),  # wakes a getter first, if one is blocked
    st.tuples(st.just("charge")),  # an unwaited hold: a start left behind
    st.tuples(st.just("spawn")),  # a start that leaves a mark
    st.tuples(st.just("timer")),  # a zero-delay timer: a far entry due now
)
_CALLEE = st.recursive(
    st.tuples(st.lists(_CALLEE_STEP, max_size=3), st.booleans()),
    lambda inner: st.tuples(
        st.lists(
            st.one_of(
                _CALLEE_STEP,
                # A nested call: (callee, short form?).
                st.tuples(st.just("call"), inner, st.booleans()),
            ),
            max_size=3,
        ),
        st.booleans(),  # raise at the end instead of returning
    ),
    max_leaves=4,
)
_CALLER_STEP = st.one_of(
    st.tuples(st.just("call"), _CALLEE, st.booleans()),
    st.tuples(st.just("fire"), _CALLEE, st.booleans()),
    st.tuples(st.just("charge")),
    st.tuples(st.just("spawn")),
    st.tuples(st.just("get")),
    st.tuples(st.just("sleep"), _TIMES),
)
_CALLERS = st.lists(
    st.tuples(_TIMES, st.lists(_CALLER_STEP, min_size=1, max_size=4)),
    min_size=1,
    max_size=4,
)


class _Oops(Exception):
    pass


def _run_calls(callers, short=True, drive="run", policy=None):
    """Dispatch ``callers``; return ((time, label, what) trace, event ids).

    ``short=False`` spells every call as the process it stands for.
    """
    env = Environment()
    resources = [Resource(env, capacity=1), Resource(env, capacity=4)]
    store = Store(env)
    trace = []

    def mark(label, what):
        trace.append((env.now, label, what))

    def spawned(label):
        mark(label, "spawned")
        return
        yield

    def callee(label, spec, may_raise=True):
        steps, raises = spec
        mark(label, "in")
        for index, step in enumerate(steps):
            at = f"{label}/{index}"
            if step[0] == "hold":
                yield TimedHold(resources[step[1]], step[2])
            elif step[0] == "sleep":
                yield env.timeout(step[1])
            elif step[0] == "post":
                store.post(at)
            elif step[0] == "charge":
                TimedHold(resources[1], 1.0, tracker=_Marks(env, trace, at))
            elif step[0] == "spawn":
                env.process(spawned(at))
            elif step[0] == "timer":
                env.timeout(0.0).callbacks.append(lambda _e, at=at: mark(at, "timer"))
            else:
                yield from call(at, step[1], step[2])
            mark(at, "done")
        if raises and may_raise:
            raise _Oops(label)
        return label

    def call(label, spec, inlined):
        try:
            if inlined and short:
                result = yield from inline(env, callee(label, spec))
            else:
                result = yield env.process(callee(label, spec))
        except _Oops as exc:
            result = f"raised {exc}"
        mark(label, result)

    def caller(env, name, delay, steps):
        yield env.timeout(delay)
        for index, step in enumerate(steps):
            label = f"{name}.{index}"
            if step[0] == "call":
                yield from call(label, step[1], step[2])
            elif step[0] == "fire":
                # Nobody could catch what a forgotten callee raises.
                body = callee(label, step[1], may_raise=False)
                if step[2] and short:
                    detach(env, body)
                else:
                    env.process(body)
            elif step[0] == "charge":
                TimedHold(resources[0], 1.0, tracker=_Marks(env, trace, label))
            elif step[0] == "spawn":
                env.process(spawned(label))
            elif step[0] == "get":
                got = store.get()
                got.callbacks.append(lambda e, label=label: mark(label, e.value))
            else:
                yield env.timeout(step[1])
            mark(label, "next")

    for number, (delay, steps) in enumerate(callers):
        env.process(caller(env, f"c{number}", delay, steps))
    if policy is not None:
        env.set_tiebreak(policy)
    if drive == "step":
        while env.peek() != float("inf"):
            env.step()
    else:
        if drive == "until":
            env.run(until=2.5)
        env.run()
    return trace, env._eid


@settings(max_examples=200, deadline=None)
@given(callers=_CALLERS)
# A start queued ahead of an inlined call that returns at once.
@example(callers=[(0.0, [("spawn",), ("call", ([], False), True)])])
# A callee that raises without yielding, inside one that posts last.
@example(
    callers=[
        (
            1.0,
            [
                ("get",),
                ("call", ([("call", ([], True), True), ("post",)], False), True),
            ],
        ),
    ]
)
def test_inlined_and_detached_calls_dispatch_the_spawned_trace(callers):
    expected, reference_events = _run_calls(callers, short=False)
    for drive in ("run", "until", "step"):
        trace, events = _run_calls(callers, drive=drive)
        assert trace == expected
        assert events <= reference_events
    chosen, _ = _run_calls(callers, policy=TieBreakPolicy())
    assert chosen == expected


class TestInline:
    """Directed cases: what a call costs alone, and what forces the long way.

    Each negative is one clause of a test in ``inline`` — delete the
    clause and the trace below changes.
    """

    @staticmethod
    def _run(body, before_call=None, short=True, setup=None):
        """One caller at t=1 calling ``body(env, trace)``; (trace, ids)."""
        env = Environment()
        trace = []

        def caller(env):
            yield env.timeout(1.0)
            if before_call is not None:
                before_call(env, trace)
            if short:
                result = yield from inline(env, body(env, trace))
            else:
                result = yield env.process(body(env, trace))
            trace.append((env.now, "caller", result))

        if setup is not None:
            setup(env, trace)
        env.process(caller(env))
        env.run()
        return trace, env._eid

    def _both(self, body, **kwargs):
        short, short_events = self._run(body, **kwargs)
        spawned, spawned_events = self._run(body, short=False, **kwargs)
        assert short == spawned
        return short, spawned_events - short_events

    def test_a_call_alone_costs_what_its_callee_waits_on(self):
        def body(env, trace):
            trace.append((env.now, "callee", "in"))
            yield TimedHold(Resource(env), 1.0)
            return "out"

        trace, events = self._run(body)
        # The caller's timer, the hold's timeout, the caller's own end.
        assert events == 3
        assert trace == [(1.0, "callee", "in"), (2.0, "caller", "out")]
        assert self._both(body)[1] == 1  # the spawned callee's completion

    def test_a_callee_that_never_yields_costs_nothing(self):
        def body(env, trace):
            return "out"
            yield

        assert self._both(body) == ([(1.0, "caller", "out")], 1)

    def test_a_start_left_behind_goes_before_the_caller_carries_on(self):
        def started(env, trace):
            trace.append((env.now, "process", "started"))
            return
            yield

        def body(env, trace):
            yield env.timeout(1.0)
            env.process(started(env, trace))
            return "out"

        trace, saved = self._both(body)
        assert trace == [(2.0, "process", "started"), (2.0, "caller", "out")]
        assert saved == 0  # the completion kept its entry

    def test_a_zero_delay_entry_left_behind_goes_first(self):
        def body(env, trace):
            yield env.timeout(1.0)
            env.event().succeed().callbacks.append(
                lambda _e: trace.append((env.now, "event", "done"))
            )
            return "out"

        trace, saved = self._both(body)
        assert trace == [(2.0, "event", "done"), (2.0, "caller", "out")]
        assert saved == 0

    def test_a_far_entry_due_now_goes_first(self):
        def body(env, trace):
            yield env.timeout(1.0)
            env.timeout(0.0).callbacks.append(
                lambda _e: trace.append((env.now, "timer", "done"))
            )
            return "out"

        trace, saved = self._both(body)
        assert trace == [(2.0, "timer", "done"), (2.0, "caller", "out")]
        assert saved == 0

    def test_an_exception_waits_for_its_place_too(self):
        def body(env, trace):
            yield env.timeout(1.0)
            env.event().succeed().callbacks.append(
                lambda _e: trace.append((env.now, "event", "done"))
            )
            raise _Oops("late")

        def run(short):
            env = Environment()
            trace = []

            def caller(env):
                try:
                    if short:
                        yield from inline(env, body(env, trace))
                    else:
                        yield env.process(body(env, trace))
                except _Oops as exc:
                    trace.append((env.now, "caught", str(exc)))

            env.process(caller(env))
            env.run()
            return trace

        assert run(True) == run(False) == [
            (1.0, "event", "done"),
            (1.0, "caught", "late"),
        ]

    def test_a_start_queued_ahead_of_the_call_goes_first(self):
        def started(env, trace):
            trace.append((env.now, "process", "started"))
            return
            yield

        def spawn_first(env, trace):
            env.process(started(env, trace))

        def body(env, trace):
            trace.append((env.now, "callee", "in"))
            return "out"
            yield

        trace, saved = self._both(body, before_call=spawn_first)
        assert trace[:2] == [(1.0, "process", "started"), (1.0, "callee", "in")]
        assert saved == 0  # spawned after all

    def test_a_delayed_urgent_entry_due_now_goes_first(self):
        """The one keyed URGENT entry: ``schedule(delay > 0, URGENT)``.  Two
        fall due together; the caller wakes on the first and calls while
        the second is still the far head, ahead of any start."""

        def run(short):
            env = Environment()
            trace = []
            first, second = env.event(), env.event()
            for event in (first, second):
                event._value = None
                env.schedule(event, delay=1.0, priority=env.URGENT)
            second.callbacks.append(
                lambda _e: trace.append((env.now, "urgent", "done"))
            )

            def body():
                trace.append((env.now, "callee", "in"))
                return "out"
                yield

            def caller(env):
                yield first
                if short:
                    yield from inline(env, body())
                else:
                    yield env.process(body())

            env.process(caller(env))
            env.run()
            return trace

        assert run(True) == run(False) == [
            (1.0, "urgent", "done"),
            (1.0, "callee", "in"),
        ]

    def test_under_a_policy_it_is_the_spawn_it_stands_for(self):
        """Starts and completions are ties a policy enumerates: the
        explorer's event budgets and recorded choices count them."""
        counts = []
        for short in (True, False):
            env = Environment()
            env.set_tiebreak(TieBreakPolicy())

            def body():
                yield env.timeout(1.0)
                return "out"

            def caller(env):
                if short:
                    return (yield from inline(env, body(), "callee"))
                return (yield env.process(body(), name="callee"))

            assert env.run(until=env.process(caller(env))) == "out"
            counts.append(env._eid)
        # Two starts, the timeout, two completions.
        assert counts == [5, 5]

    def test_closing_a_caller_parked_in_its_callee_does_not_yield(self):
        """``generator.close()`` — what garbage collection does to a
        process that never finished — throws GeneratorExit through the
        callee; answering it with the completion's ``yield`` would be
        "generator ignored GeneratorExit"."""
        env = Environment()
        closed = []

        def body():
            try:
                yield env.timeout(1.0)
            finally:
                # Not adjacent, so a return would wait on an entry.
                env.event().succeed()
                closed.append("callee")

        def caller():
            yield from inline(env, body())

        parked = caller()
        assert isinstance(parked.send(None), type(env.timeout(0)))
        parked.close()
        assert closed == ["callee"]

    def test_nested_calls_unwind_one_entry_at_a_time(self):
        def body(env, trace):
            def inner():
                yield env.timeout(1.0)
                # Wakes nobody, but is pending when inner returns.
                env.event().succeed()
                return "deep"

            result = yield from inline(env, inner())
            trace.append((env.now, "middle", result))
            return "out"

        trace, saved = self._both(body)
        assert trace == [(2.0, "middle", "deep"), (2.0, "caller", "out")]
        # Inner's completion kept its entry (the event was pending); by
        # the time the middle one returns, nothing is.
        assert saved == 1


class TestDetach:
    def test_a_detached_generator_takes_no_entry_of_its_own(self):
        for start, expected in ((detach, 1), (Environment.process, 2)):
            env = Environment()
            done = []

            def body():
                yield TimedHold(Resource(env), 1.0)
                done.append(env.now)

            start(env, body())
            env.run()
            # The hold's timeout — and the process's completion.
            assert (done, env._eid) == ([1.0], expected)

    def test_it_starts_where_the_process_would_have(self):
        for start in (detach, Environment.process):
            env = Environment()
            order = []

            def body(tag):
                order.append(tag)
                return
                yield

            env.process(body("before"))
            start(env, body("detached"))
            env.process(body("after"))
            order.append("caller")
            env.run()
            assert order == ["caller", "before", "detached", "after"]

    def test_a_failed_event_is_thrown_in(self):
        env = Environment()
        seen = []

        def body():
            try:
                yield env.event().fail(_Oops("inside"))
            except _Oops as exc:
                seen.append(str(exc))

        detach(env, body())
        env.run()
        assert seen == ["inside"]

    def test_what_it_lets_escape_surfaces_through_the_kernel(self):
        env = Environment()

        def body():
            yield env.timeout(1.0)
            raise _Oops("nobody is waiting")

        detach(env, body())
        with pytest.raises(_Oops):
            env.run()

    def test_its_start_takes_the_entry_a_policy_hands_it(self):
        """Installing a policy turns pending starts into keyed entries,
        and an entry's callback is called with its event."""
        env = Environment()
        done = []

        def body():
            done.append("started")
            yield env.timeout(1.0)
            done.append("finished")

        detach(env, body())
        env.set_tiebreak(TieBreakPolicy())
        assert env._eid == 1  # the migrated start
        env.run()
        assert done == ["started", "finished"]

    def test_under_a_policy_it_is_the_process_it_stands_for(self):
        counts = []
        for start in (detach, Environment.process):
            env = Environment()
            env.set_tiebreak(TieBreakPolicy())

            def body():
                yield env.timeout(1.0)

            start(env, body())
            env.run()
            counts.append(env._eid)
        # Start, timeout, completion: every one a tie the policy may see.
        assert counts == [3, 3]


# ---------------------------------------------------------------------------
# Dead timers and parked receivers: Timeout.cancel() and Store.post_tail()
# ---------------------------------------------------------------------------
#
# ``timer.cancel()`` after ``yield env.any_of([signal, timer])`` stands for
# leaving the timer to fire into the AnyOf's no-op callback, and
# ``store.post_tail(item)`` as the last thing an arrival's last callback
# does stands for ``store.post(item)``.  A random program — racers whose
# signal or timer wins (or both in one instant), arrivals with and
# without a callback ahead of their delivery, receivers parked or busy,
# holds, starts, zero-delay entries and timers due now, small-integer
# times so that ties are exact — must dispatch the identical (time,
# label) trace either way, however the kernel is driven, and under a
# policy that always answers 0 (DESIGN §11, rules 6 and 7).

_RACE_STEP = st.one_of(
    # any_of([signal, timer]): the timer's delay, then the signal's.
    st.tuples(st.just("race"), _TIMES, _TIMES),
    # An arrival this much later at receiver 0 or 1, and whether a
    # callback (a trace span's end, say) runs ahead of its delivery.
    st.tuples(st.just("arrive"), _TIMES, st.integers(0, 1), st.booleans()),
    st.tuples(st.just("hold"), st.integers(1, 2).map(float)),
    st.tuples(st.just("spawn")),
    st.tuples(st.just("poke")),  # a zero-delay entry
    st.tuples(st.just("timer")),  # a far entry due now
    st.tuples(st.just("sleep"), _TIMES),
)
_RACERS = st.lists(
    st.tuples(_TIMES, st.lists(_RACE_STEP, min_size=1, max_size=5)),
    min_size=1,
    max_size=4,
)
#: How long each receiver is busy after an item (0: it parks at once).
_RECEIVERS = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _run_races(racers, receivers, short=True, drive="run", policy=None):
    """Dispatch the program; return ((time, label, what) trace, event ids).

    ``short=False`` leaves every lost timer on the agenda and posts every
    arrival the plain way.
    """
    env = Environment()
    cpu = Resource(env, capacity=1)
    stores = [Store(env), Store(env)]
    trace = []

    def mark(label, what):
        trace.append((env.now, label, what))

    def spawned(label):
        mark(label, "spawned")
        return
        yield

    def receiver(number, busy):
        while True:
            item = yield stores[number].get()
            mark(f"r{number}", item)
            if busy:
                yield TimedHold(cpu, float(busy))

    def deliver(arrival, store):
        # The arrival's last callback, and the post its last statement.
        if short:
            store.post_tail(arrival.value)
        else:
            store.post(arrival.value)

    def racer(env, name, delay, steps):
        yield env.timeout(delay)
        for index, step in enumerate(steps):
            label = f"{name}.{index}"
            if step[0] == "race":
                signal = env.event()
                timer = env.timeout(step[1])
                env.timeout(step[2]).callbacks.append(
                    lambda _e, signal=signal: signal.succeed()
                )
                yield env.any_of([signal, timer])
                mark(label, "signal" if signal.triggered else "timer")
                if short:
                    timer.cancel()
            elif step[0] == "arrive":
                _kind, delay, which, ahead = step
                arrival = env.timeout(delay, value=label)
                if ahead:
                    arrival.callbacks.append(lambda e: mark(e.value, "span"))
                arrival.callbacks.append(
                    lambda e, store=stores[which]: deliver(e, store)
                )
            elif step[0] == "hold":
                yield TimedHold(cpu, step[1])
            elif step[0] == "spawn":
                env.process(spawned(label))
            elif step[0] == "poke":
                env.event().succeed().callbacks.append(
                    lambda _e, label=label: mark(label, "poke")
                )
            elif step[0] == "timer":
                env.timeout(0.0).callbacks.append(
                    lambda _e, label=label: mark(label, "timer")
                )
            else:
                yield env.timeout(step[1])
            mark(label, "next")

    # One receiver parks as a process, the other as a drive: the two
    # kinds of callback a hand-over calls.
    env.process(receiver(0, receivers[0]))
    Drive(env, receiver(1, receivers[1]))
    for number, (delay, steps) in enumerate(racers):
        env.process(racer(env, f"c{number}", delay, steps))
    if policy is not None:
        env.set_tiebreak(policy)
    if drive == "step":
        while env.peek() != float("inf"):
            env.step()
    else:
        if drive == "until":
            env.run(until=2.5)
        env.run()
    return trace, env._eid


@settings(max_examples=200, deadline=None)
@given(racers=_RACERS, receivers=_RECEIVERS)
# Timer and signal in one instant, then an arrival behind a span callback.
@example(
    racers=[(1.0, [("race", 1.0, 1.0), ("arrive", 1.0, 0, True)])],
    receivers=(0, 0),
)
# Enough lost timers to rebuild the heap while arrivals are in flight.
@example(
    racers=[
        (0.0, [("race", 3.0, 0.0)] * 3 + [("arrive", 2.0, 1, False)]),
        (1.0, [("arrive", 0.0, 1, False), ("race", 2.0, 1.0)]),
    ],
    receivers=(1, 2),
)
def test_cancelled_timers_and_tail_posts_dispatch_the_reference_trace(
    racers, receivers
):
    expected, reference_events = _run_races(racers, receivers, short=False)
    for drive in ("run", "until", "step"):
        trace, events = _run_races(racers, receivers, drive=drive)
        assert trace == expected
        assert events <= reference_events
    chosen, _ = _run_races(racers, receivers, policy=TieBreakPolicy())
    assert chosen == expected


class TestCancel:
    """Directed cases for rule 6, one clause of ``Timeout.cancel`` each."""

    def test_a_lost_timer_leaves_the_agenda(self):
        def run(cancel):
            env = Environment()
            peak = []

            def racer(env):
                for _ in range(10):
                    timer = env.timeout(100.0)
                    yield env.any_of([env.timeout(1.0), timer])
                    if cancel:
                        timer.cancel()
                    peak.append(len(env._far))

            env.process(racer(env))
            env.run()
            return max(peak), env.now

        # Each cancelled timer is the only one pending, so more than half
        # the heap: rebuilt at once.  Left alone, the ten dead timers run
        # the clock out to the last one.
        assert run(cancel=True) == (0, 10.0)
        assert run(cancel=False) == (10, 109.0)

    def test_the_heap_is_rebuilt_once_cancelled_entries_are_the_majority(self):
        env = Environment()
        fired = []
        for when in (3.0, 1.0, 2.0):
            env.timeout(when, value=when).callbacks.append(
                lambda e: fired.append(e.value)
            )
        doomed = [env.timeout(0.5 + k) for k in range(5)]  # no subscriber
        sizes = []
        for timer in doomed:
            timer.cancel()
            sizes.append((len(env._far), env._cancelled))
        # Up to 4 of 8 is not more than half; 5 of 8 is.
        assert sizes == [(8, 1), (8, 2), (8, 3), (8, 4), (3, 0)]
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_bare_entries_survive_the_rebuild_in_order(self):
        """A bare entry has no event to be cancelled: the rebuild keeps
        it, and every survivor pops where it would have."""

        def run(cancel):
            env = Environment()
            fired = []
            for when in (3.0, 1.0, 2.5, 2.0, 0.75):
                env._eid += 1
                heapq.heappush(
                    env._far, (when, 1, env._eid, None, fired.append, ("bare", when))
                )
                env.timeout(when + 0.25, value=when).callbacks.append(
                    lambda e: fired.append(("event", e.value))
                )
            doomed = [env.timeout(0.5 + k) for k in range(11)]  # no subscriber
            sizes = []
            if cancel:
                for timer in doomed:
                    timer.cancel()
                    sizes.append(len(env._far))
            env.run()
            return fired, sizes

        expected, _ = run(cancel=False)
        fired, sizes = run(cancel=True)
        assert fired == expected
        # 11 of 21 is more than half: rebuilt, the ten survivors kept.
        assert sizes == [21] * 10 + [10]

    def test_a_subscriber_still_waiting_refuses_the_cancel(self):
        env = Environment()
        plain = env.timeout(1.0)
        plain.callbacks.append(lambda _e: None)
        pending = env.timeout(1.0)
        env.any_of([env.event(), pending])  # not triggered: still waiting
        waited = env.timeout(1.0)

        def waiter(env):
            yield waited

        env.process(waiter(env))
        env.step()  # the start: the process now waits on ``waited``
        for timer in (plain, pending, waited):
            with pytest.raises(SimulationError, match="still waits"):
                timer.cancel()
        assert env._cancelled == 0

    def test_waiting_on_a_cancelled_timer_raises(self):
        env = Environment()
        timer = env.timeout(1.0)
        timer.cancel()  # nobody subscribed: nothing to wait for it
        with pytest.raises(SimulationError, match="cancelled"):
            env.any_of([timer])
        with pytest.raises(SimulationError, match="cancelled"):
            timer.subscribe(lambda _e: None)

        def waiter(env):
            yield timer

        env.process(waiter(env))
        with pytest.raises(SimulationError, match="cancelled"):
            env.run()

    def test_a_timer_that_fired_is_left_alone(self):
        env = Environment()
        timer = env.timeout(1.0)
        env.run()
        timer.cancel()
        assert timer.processed and env._cancelled == 0

    def test_under_a_policy_the_entry_stays(self):
        """The policy enumerates the dead timer's entry among its ties,
        and the explorer's budgets count it."""
        env = Environment()
        env.set_tiebreak(TieBreakPolicy())
        timer = env.timeout(5.0)
        race = env.any_of([env.timeout(1.0), timer])
        env.run(until=race)
        timer.cancel()
        assert (len(env._far), env._cancelled) == (1, 0)
        env.run()
        assert timer.processed and env.now == 5.0


class TestPostTail:
    """Directed cases for rule 7: what a parked receiver saves, and one
    negative per clause of the test that keeps the getter's entry."""

    @staticmethod
    def _run(before_post=None, short=True, policy=None, wanted=None, setup=None):
        """A receiver parked on a store, a frame arriving at t=1; returns
        (trace, event ids, items left in the store)."""
        env = Environment()
        store = Store(env)
        trace = []

        def receiver(env):
            match = None if wanted is None else (lambda item: item == wanted)
            item = yield store.get(match)
            trace.append((env.now, "receiver", item))

        def arrive(_event):
            if before_post is not None:
                before_post(env, trace)
            if short:
                store.post_tail("frame")
            else:
                store.post("frame")

        env.process(receiver(env))
        env.timeout(1.0).callbacks.append(arrive)
        if setup is not None:
            setup(env, trace)
        if policy is not None:
            env.set_tiebreak(policy)
        env.run()
        return trace, env._eid, list(store.items)

    def _both(self, **kwargs):
        trace, events, items = self._run(**kwargs)
        reference = self._run(short=False, **kwargs)
        assert (trace, items) == (reference[0], reference[2])
        return trace, reference[1] - events

    def test_a_parked_receiver_takes_the_frame_in_place(self):
        trace, saved = self._both()
        assert trace == [(1.0, "receiver", "frame")]
        assert saved == 1  # the get's entry

    def test_a_pending_start_goes_first(self):
        def started(env, trace):
            trace.append((env.now, "process", "started"))
            return
            yield

        def spawn(env, trace):
            env.process(started(env, trace))

        trace, saved = self._both(before_post=spawn)
        assert trace == [(1.0, "process", "started"), (1.0, "receiver", "frame")]
        assert saved == 0

    def test_a_zero_delay_entry_goes_first(self):
        def poke(env, trace):
            env.event().succeed().callbacks.append(
                lambda _e: trace.append((env.now, "event", "done"))
            )

        trace, saved = self._both(before_post=poke)
        assert trace == [(1.0, "event", "done"), (1.0, "receiver", "frame")]
        assert saved == 0

    def test_a_far_entry_due_now_goes_first(self):
        def timer(env, trace):
            # Keyed after the arrival, due with it: pending at the post.
            env.timeout(1.0).callbacks.append(
                lambda _e: trace.append((env.now, "timer", "done"))
            )

        trace, saved = self._both(setup=timer)
        assert trace == [(1.0, "timer", "done"), (1.0, "receiver", "frame")]
        assert saved == 0

    def test_a_filtered_receiver_is_not_handed_anything(self):
        trace, saved = self._both(wanted="another frame")
        assert trace == [] and saved == 0
        assert self._run(wanted="another frame")[2] == ["frame"]

    def test_under_a_policy_it_is_post(self):
        trace, saved = self._both(policy=TieBreakPolicy())
        assert trace == [(1.0, "receiver", "frame")]
        assert saved == 0

    def test_a_busy_receiver_finds_the_frame_queued(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.post_tail("first")
        store.post_tail("second")  # full: waits behind a put event
        assert (list(store.items), store.pending_putters, env._eid) == (
            ["first"],
            1,
            0,
        )

    def test_a_traced_arrival_still_hands_over(self):
        """With a tracer the arrival's propagation span ends in a callback
        of its own, ahead of the delivery — which is still the last."""
        runs = []
        for short in (True, False):
            env = Environment()
            tracer = install_tracer(env, Tracer())
            store = Store(env)
            got = []

            def receiver(env):
                frame = yield store.get()
                got.append((env.now, frame.payload))

            env.process(receiver(env))
            link = Link(env, name="wire")
            link.attach_receiver(store.post_tail if short else store.post)
            root = tracer.start_trace("request", layer="test")
            env.run()  # the receiver parks, the transmit loop waits
            link.send(
                Frame(
                    src="a",
                    dst="b",
                    protocol="test",
                    wire_bytes=125,
                    payload="hello",
                    trace_ctx=root.context,
                )
            )
            env.run()
            spans = {
                span.name: span.end_time
                for span in tracer.spans
                if span.name.startswith("link.")
            }
            runs.append((got, spans, env._eid))
        (got, spans, events), (ref_got, ref_spans, ref_events) = runs
        assert got == ref_got and spans == ref_spans
        assert spans["link.propagate"] == got[0][0]
        assert ref_events - events == 1
