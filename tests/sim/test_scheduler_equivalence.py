"""The kernel dispatches in ``(time, priority, sequence)`` order.

That total order is the reproduction's determinism contract — every
pinned schedule fingerprint depends on it — while the kernel serves it
from three lanes (a keyless urgent FIFO, a zero-delay FIFO, a far heap)
and, under a :class:`TieBreakPolicy`, from the far heap alone.  These
property tests run randomized programs on the kernel and on the
definition itself — one heap keyed ``(time, priority, sequence)``, a
dozen lines — and require identical dispatch traces under every drive:
``run()``, run-until-event, ``step()`` and a policy that always answers 0.
Entries come in both kinds the kernel has: events, and bare entries
(``(time, priority, sequence, None, fn, arg)``) — timers, the grants and
timers of holds on a one-core resource, hand-overs to a store consumer
that is a function.
"""

import heapq
import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store, TieBreakPolicy
from repro.sim.events import Event
from repro.sim.resources import TimedHold

_DRIVES = ["run", "until", "step", "policy"]

# Float delays: distinct instants, entries landing anywhere in the heap.
_OPS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2e-3, allow_nan=False),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=80,
)

# Small integer delays: ties, including several delayed URGENT entries
# at one instant, are common.
_TIED_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3).map(float),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=30,
)


# What entry ``index`` (scheduled ``delay`` after 0) pushes when it fires,
# as ``(kind, delay)`` in push order.  Kinds: "proc" starts a process
# (zero-delay URGENT) that naps ``delay`` on a Timeout unless it is None;
# "urgent" and "normal" go through ``schedule``; "timeout" is a Timeout
# made inside the callback; "at" is ``timeout_at(now + delay)``; "bare" is
# a bare timer; "hold" holds the one core for ``delay`` (a TimedHold,
# queued behind earlier holds); "handover" parks a consumer function on
# an empty store and posts to it, "waiting" posts first and then gets.


def _no_children(index, delay):
    return ()


def _callback_children(index, delay):
    if index % 3 == 0:
        # Zero rides the zero-delay lane; a short delay lands among the
        # entries already pending.
        yield "normal", (index % 5) * 1e-7
        yield "timeout", (index % 4) * 1e-7
        yield "at", delay / 3


def _process_children(index, delay):
    if index % 4 == 0:
        yield "proc", delay / 2


def _urgent_children(index, delay):
    if index % 2 == 0:
        yield "proc", None
        yield "urgent", 0.0
        yield "normal", 0.0


def _all_children(index, delay):
    yield from _callback_children(index, delay)
    yield from _process_children(index, delay)
    yield from _urgent_children(index, delay)


def _bare_children(index, delay):
    yield from _all_children(index, delay)
    if index % 2 == 0:
        # Zero rides the zero-delay lane.
        yield "bare", (index % 3) * 1e-7
        yield "hold", (index % 4) * 1e-7
    if index % 3 == 1:
        yield "handover", 0.0
        yield "waiting", 0.0
        # Short enough that the queue of holds drains before the "until"
        # drive's bound, long enough to end on other entries' instants.
        yield "hold", delay / 8


def _order_by_definition(ops, children):
    heap, sequence, trace = [], itertools.count(), []
    # The one core: held or not, and the holds queued for it.
    core = {"users": 0, "waiters": deque()}

    def push(when, priority, what):
        heapq.heappush(heap, (when, priority, next(sequence), what))

    for index, (delay, priority) in enumerate(ops):
        push(delay, priority, index)
    while heap:
        now, _priority, _sequence, what = heapq.heappop(heap)
        if isinstance(what, int):
            trace.append((now, what))
            # What ``fire`` below does, in the same order.
            for kind, delay in children(what, ops[what][0]):
                if kind == "proc":
                    push(now, 0, ("proc", what, delay))
                elif kind == "urgent":
                    push(now, 0, ("urgent", what))
                elif kind == "hold":
                    push(now, 0, ("acquire", what, delay))
                elif kind in ("handover", "waiting"):
                    push(now, 1, (kind, what))
                else:
                    push(now + delay, 1, (kind, what))
        elif what[0] == "proc":
            trace.append((now, ("start", what[1])))
            if what[2] is not None:
                push(now + what[2], 1, ("woke", what[1]))
        # A hold, every step an entry: start, grant, timer, completion;
        # a busy core queues it and a release grants the next in line.
        elif what[0] == "acquire":
            if core["users"]:
                core["waiters"].append(what[1:])
            else:
                core["users"] += 1
                push(now, 1, ("grant",) + what[1:])
        elif what[0] == "grant":
            push(now + what[2], 1, ("finish", what[1]))
        elif what[0] == "finish":
            core["users"] -= 1
            if core["waiters"]:
                core["users"] += 1
                push(now, 1, ("grant",) + core["waiters"].popleft())
            push(now, 1, ("hold", what[1]))
        else:
            trace.append((now, what))
    return trace


def _program(ops, children):
    """``ops`` scheduled on a fresh kernel; returns ``(env, trace)``."""
    env = Environment()
    trace = []

    def note(what):
        return lambda _event: trace.append((env.now, what))

    def ready(what):
        event = Event(env)
        event._value = None
        event.callbacks.append(note(what))
        return event

    core = Resource(env, capacity=1)
    store = Store(env)

    def record(what):
        trace.append((env.now, what))

    def proc(index, nap):
        trace.append((env.now, ("start", index)))
        if nap is not None:
            yield env.timeout(nap)
            trace.append((env.now, ("woke", index)))

    def fire(index):
        trace.append((env.now, index))
        for kind, delay in children(index, ops[index][0]):
            what = (kind, index)
            if kind == "proc":
                env.process(proc(index, delay))
            elif kind == "urgent":
                env.schedule(ready(what), priority=Environment.URGENT)
            elif kind == "normal":
                env.schedule(ready(what), delay=delay)
            elif kind == "timeout":
                env.timeout(delay).callbacks.append(note(what))
            elif kind == "bare":
                env._eid += 1
                if delay == 0.0:
                    env._dq.append((env.now, 1, env._eid, None, record, what))
                else:
                    heapq.heappush(
                        env._far, (env.now + delay, 1, env._eid, None, record, what)
                    )
            elif kind == "hold":
                TimedHold(core, delay).callbacks.append(note(what))
            elif kind == "handover":
                store.get_call(record)
                store.post(what)
            elif kind == "waiting":
                store.post(what)
                store.get_call(record)
            else:
                env.timeout_at(env.now + delay).callbacks.append(note(what))

    for index, (delay, priority) in enumerate(ops):
        event = Event(env)
        event._value = None
        event.callbacks.append(lambda _e, i=index: fire(i))
        env.schedule(event, delay=delay, priority=priority)
    return env, trace


def _order_by_kernel(ops, children, drive):
    env, trace = _program(ops, children)
    if drive == "policy":
        env.set_tiebreak(TieBreakPolicy())
    if drive == "step":
        while env.peek() != float("inf"):
            env.step()
    elif drive == "until":
        env.run(until=env.timeout(10.0))  # the run-until-event loops
    else:
        env.run()
    return trace


def _check(ops, children, drive):
    assert _order_by_kernel(ops, children, drive) == _order_by_definition(
        ops, children
    )


@pytest.mark.parametrize("drive", _DRIVES)
@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_kernel_pops_in_key_order(drive, ops):
    _check(ops, _no_children, drive)


@pytest.mark.parametrize("drive", _DRIVES)
@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_callback_scheduled_children_follow_the_key_order(drive, ops):
    _check(ops, _callback_children, drive)


@pytest.mark.parametrize("drive", _DRIVES)
@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_timeouts_inside_a_process_follow_the_key_order(drive, ops):
    _check(ops, _process_children, drive)


# Zero-delay URGENT entries (process starts, ``schedule(.., 0, URGENT)``)
# sit in a keyless FIFO that the loops drain first; delayed URGENT entries
# keep their key in the far lane.  Whatever the mix, dispatch must follow
# the definition.


@pytest.mark.parametrize("drive", _DRIVES)
@given(ops=_TIED_OPS)
@settings(max_examples=60, deadline=None)
def test_urgent_lane_follows_the_key_order(drive, ops):
    _check(ops, _urgent_children, drive)


@pytest.mark.parametrize("drive", _DRIVES)
@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_bare_entries_follow_the_key_order(drive, ops):
    _check(ops, _bare_children, drive)


@pytest.mark.parametrize("drive", _DRIVES)
@given(ops=_TIED_OPS)
@settings(max_examples=60, deadline=None)
def test_bare_entries_follow_the_key_order_through_ties(drive, ops):
    _check(ops, _bare_children, drive)


def test_policy_hand_over_mid_run_keeps_the_key_order():
    """Installing a policy moves the keyless lanes' entries into the far
    heap; clearing it moves nothing: whatever is pending then —
    zero-delay entries and keyed starts included — stays in the heap and
    is merged by full key.  Cleared after every possible number of
    steps, the trace equals the reference."""
    ops = [
        (0.0, 0), (0.0, 1), (1.0, 1), (1.0, 0), (0.0, 0),
        (1.0, 1), (2.0, 1), (0.0, 1), (2.0, 0), (1.0, 0),
    ]  # fmt: skip
    expected = _order_by_definition(ops, _all_children)
    handed_over_mid_instant = False
    for steps in range(len(expected) + 1):
        env, trace = _program(ops, _all_children)
        assert env._urgent and env._dq and env._far  # all three lanes
        env.set_tiebreak(TieBreakPolicy())
        assert not env._urgent and not env._dq
        for _ in range(steps):
            env.step()
        due_now = [entry for entry in env._far if entry[0] == env.now]
        env.set_tiebreak(None)
        if {0, 1} <= {entry[1] for entry in due_now}:
            handed_over_mid_instant = True  # keyed starts and zero-delay
        env.run()
        assert trace == expected, steps
    assert handed_over_mid_instant
