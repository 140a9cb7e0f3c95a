"""Heap and calendar schedulers must dispatch identical schedules.

The calendar queue replaces the kernel's binary heap as a *pure*
performance substitution: the agenda's total order ``(when, priority,
event id)`` is part of the reproduction's determinism contract (every
pinned schedule fingerprint depends on it), so the two schedulers must
pop exactly the same sequence for any workload.  These property tests
drive both modes with randomized ``(delay, priority)`` mixes — including
zero-delay NORMAL pushes (the deque fast lane), URGENT entries, and
events scheduled from inside callbacks (which land below the calendar's
current bucket boundary and take the insort slow path) — and require
bit-identical dispatch traces.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, TieBreakPolicy
from repro.sim.events import Event

_DELAYS = st.floats(min_value=0.0, max_value=2e-3, allow_nan=False)
_OPS = st.lists(
    st.tuples(_DELAYS, st.integers(min_value=0, max_value=1)),
    min_size=1,
    max_size=80,
)


def _run_schedule(mode, ops, cascade):
    """Dispatch ``ops`` under ``mode``; return the (time, id) trace."""
    env = Environment(scheduler=mode)
    trace = []

    def fire(event, index):
        trace.append((env.now, index))
        if cascade and index % 3 == 0:
            # Schedule children from inside a callback: a short-delay
            # child lands in the calendar's *current* bucket (insort
            # path), a zero-delay NORMAL child rides the deque lane.
            child = Event(env)
            child._ok = True
            child._value = None
            child.subscribe(
                lambda e, i=index: trace.append((env.now, ("child", i)))
            )
            env.schedule(child, delay=(index % 5) * 1e-7, priority=1)
    for index, (delay, priority) in enumerate(ops):
        event = Event(env)
        event._ok = True
        event._value = None
        event.subscribe(lambda e, i=index: fire(e, i))
        env.schedule(event, delay=delay, priority=priority)
    env.run()
    return trace


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_heap_and_calendar_pop_identical_order(ops):
    assert _run_schedule("heap", ops, False) == _run_schedule(
        "calendar", ops, False
    )


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_schedulers_agree_with_callback_scheduled_children(ops):
    assert _run_schedule("heap", ops, True) == _run_schedule(
        "calendar", ops, True
    )


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=5e-4), min_size=1, max_size=40
    )
)
@settings(max_examples=40, deadline=None)
def test_timeout_fast_path_matches_heap(delays):
    """Timeout's inlined calendar push must agree with the heap path."""

    def run(mode):
        env = Environment(scheduler=mode)
        fired = []

        def proc(env):
            for i, delay in enumerate(delays):
                t = env.timeout(delay, value=i)
                t.subscribe(lambda e: fired.append((env.now, e.value)))
                if i % 4 == 0:
                    yield env.timeout(delay / 2)
        env.process(proc(env))
        env.run()
        return fired

    assert run("heap") == run("calendar")


# ---------------------------------------------------------------------------
# The urgent lane against the definition of the order
# ---------------------------------------------------------------------------
#
# Zero-delay URGENT entries (process starts, ``schedule(.., 0, URGENT)``)
# sit in a keyless FIFO that the loops drain first; delayed URGENT entries
# keep their key in the far lane.  Whatever the mix, dispatch must follow
# the definition — a single heap keyed ``(time, priority, sequence)`` —
# under either scheduler, by either pair of run loops or by ``step()``,
# and under a policy that always answers 0.  Delays are small integers so that ties,
# including several delayed URGENT entries at one instant, are common.

_TIED_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3).map(float),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=30,
)


def _order_by_definition(ops):
    heap, sequence, trace = [], itertools.count(), []
    for index, (delay, priority) in enumerate(ops):
        heapq.heappush(heap, (delay, priority, next(sequence), index))
    while heap:
        now, _priority, _sequence, what = heapq.heappop(heap)
        trace.append((now, what))
        if isinstance(what, int) and what % 2 == 0:
            # What ``fire`` below does, in the same order.
            heapq.heappush(heap, (now, 0, next(sequence), ("start", what)))
            heapq.heappush(heap, (now, 0, next(sequence), ("urgent", what)))
            heapq.heappush(heap, (now, 1, next(sequence), ("normal", what)))
    return trace


def _order_by_kernel(ops, scheduler, drive):
    env = Environment(scheduler=scheduler)
    trace = []

    def ready(what):
        event = Event(env)
        event._value = None
        event.callbacks.append(lambda _e: trace.append((env.now, what)))
        return event

    def starter(what):
        trace.append((env.now, what))
        return
        yield

    def fire(index):
        trace.append((env.now, index))
        if index % 2 == 0:
            env.process(starter(("start", index)))
            env.schedule(ready(("urgent", index)), priority=Environment.URGENT)
            env.schedule(ready(("normal", index)))

    for index, (delay, priority) in enumerate(ops):
        event = Event(env)
        event._value = None
        event.callbacks.append(lambda _e, i=index: fire(i))
        env.schedule(event, delay=delay, priority=priority)
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


@pytest.mark.parametrize("drive", ["run", "until", "step", "policy"])
@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
@given(ops=_TIED_OPS)
@settings(max_examples=60, deadline=None)
def test_urgent_lane_follows_the_key_order(scheduler, drive, ops):
    assert _order_by_kernel(ops, scheduler, drive) == _order_by_definition(ops)
