"""Property-based tests for the kernel's core ordering invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store, TieBreakPolicy
from repro.sim.resources import TimedHold


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
# each put takes the short form or the reference, on either scheduler, and
# under a policy that always answers 0.  Times are small integers so that
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


def _run_program(
    actors, scheduler="calendar", policy=None, long_charges=False, long_puts=False
):
    """Dispatch ``actors``; return ((time, label, what) trace, event ids).

    ``long_charges`` / ``long_puts`` replace every short form with its
    reference; ``policy`` is installed once the processes exist.
    """
    env = Environment(scheduler=scheduler)
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
    calendar, calendar_events = _run_program(actors)
    heap, heap_events = _run_program(actors, scheduler="heap")
    chosen, _ = _run_program(actors, policy=TieBreakPolicy())
    assert calendar == expected
    assert heap == expected
    assert chosen == expected
    assert heap_events == calendar_events <= reference_events


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
