"""What a request costs the agenda, pinned to the entry.

Host speed moves with the machine; the number of agenda entries a fixed
workload takes does not.  ``env._eid`` grows by one per keyed entry
(starts on the urgent lane, eventless puts and fused hold ends take
none, and so do gets handed over in place), it is the same on every
host, and it is what perfbench reports as ``sim.events_per_op``.  These
pins are the host-independent gate on it: a change that adds entries to
the request path fails here and has to move the number on purpose.
(Before the agenda diet the three figures were 80 258, 90 032 and
24 534; the echo was 22 048 while its readers still ticked through
their waits.)

``Process`` objects are pinned beside them.  Every channel, selector and
connection operation on the request path runs inside its caller
(``repro.sim.inline``) or detached (``repro.sim.detach``), so a new
spawn per request is a decision too.  So are the ``Event`` objects behind
the entries: an entry whose one subscriber is known when it is armed is
a bare tuple, not an event (DESIGN §11, rule 8).
"""

import gc
import sys

import pytest

from repro.bench.echo import run_echo
from repro.bench.figures import FIG3_PAYLOADS, FIG4_PAYLOADS, fig3_sweep, fig4_sweep
from repro.bench.selector_echo import reptor_echo
from repro.bft import BftCluster, BftConfig
from repro.sim import COPYSTATS, Event, GridWait, Process

PUTS = 40
#: Entries for 40 sequential unbatched PUTs on a wired 4-replica cluster.
#: From the spawning tree's 38 113 / 41 883, site by site:
#:
#: * detached, -1 280 on both: 1 120 replica sends and 160 batch
#:   executions no longer push a completion nobody could wait on;
#: * inlined calls whose completion would have been served next: RUBIN
#:   -2 806 (all 1 609 selects, all 1 158 reads, 39 of the client's 40
#:   sends; each of the 1 160 writes keeps its entry, because its
#:   ``post_send`` wakes the SQ getter first); NIO -3 923 (920 of 1 676
#:   selects, 803 of 881 ``epoll.wait``, 1 080 of 1 158 channel reads and
#:   as many ``tcp.read``, the 40 sends; no write, channel or TCP: its
#:   ``_kick_tx`` wakes the transmit loop first);
#: * hold grants that fuse now that no detached send's completion is
#:   pending when the next charge starts: -200 / -160.
#:
#: That gave 33 827 / 36 520.  Then rule 7 (DESIGN §11): an arriving
#: frame whose receive loop is parked on its queue takes it in place of
#: the get's entry — RUBIN -2 280 (2 280 of the 2 320 RoCE packets; 40
#: find the device's rx pipeline still busy), NIO -1 840 (1 840 of the
#: 2 160 TCP segments; 320 find the connection's receive loop busy).
#: Rule 6 moves no id: the 40 cancelled retry timers had theirs already
#: (one heap rebuild in the run), and no adjacency test reads otherwise.
PBFT_EVENTS = {"rubin": 31_547, "nio": 34_680}
#: ``Process`` objects over the same run: the client's ``invoke`` per PUT,
#: and on NIO one select that found a start queued ahead of it and was
#: spawned after all.  (The spawning tree made 5 291 / 8 558.)
PBFT_SPAWNS = {"rubin": 40, "nio": 41}
#: Python frames entered per PUT over the same 40 PUTs: ``sys.setprofile``
#: "call" events, so every function call and every generator resume, with
#: the cyclic collector off so no finalizer runs inside the count.  Exact
#: on one interpreter, whatever the hash seed; another CPython minor
#: version compiles other frames, so the pins hold on 3.11 only.  They
#: may only fall.  Before the per-message diet (the struct codec, MACs
#: from pad states, slotted records, NIO readiness read from fields) the
#: runs entered 12 534.475 / 15 826.45; before bare entries (DESIGN §11,
#: rule 8) 11 710.375 / 11 694.95; before one Reptor I/O path (readiness
#: read from ``ready_ops``, no per-transport write prologue) 10 262.025 /
#: 10 733.2; before the endpoint read each connection's cached selection
#: key directly (no ``_key_of`` call per send) 10 064.875 / 10 615.075.
PBFT_FRAMES_PER_PUT = {"rubin": 10_035.875, "nio": 10_586.075}
#: ``Event`` objects constructed per PUT over the same run, every class
#: counted (a ``Timeout``, a ``StoreGet``, a ``TimedHold``, ...).  Exact,
#: whatever the hash seed; they may only fall.  Before bare entries —
#: timers, free-core grants and queue hand-overs whose one subscriber is
#: known when they are armed (DESIGN §11, rule 8) — they were 1 079.575
#: over RUBIN and 1 208.85 over NIO.
PBFT_EVENT_OBJECTS_PER_PUT = {"rubin": 358.85, "nio": 563.1}
#: Entries for the whole Fig-3 channel echo run: 26 to connect, then 126
#: per echo — two messages of 15 + 6 per MTU frame, 8 frames here (the
#: per-primitive table in DESIGN §11) — and a dozen amortized ones (a
#: send CQE reaped every 8 sends, receive buffers re-posted every 16
#: reads, each application buffer's first use, the QPs' retry timers).
#: It was 3 000 while the echo's four reads per message were processes
#: (its two writes keep their completion entry), and 2 920 until every
#: one of an echo's 18 frames (8 data and an ACK per message) found the
#: receiving rx pipeline parked and handed its packet over in place.
ECHO_MESSAGES, ECHO_BYTES, ECHO_EVENTS = 20, 32 * 1024, 2_560
#: ``Event`` objects the whole echo run constructs; 3 462 before bare
#: entries.  What is left is mostly the holds themselves (the DMA and CPU
#: charges), the grid waits and the writes' completions.  May only fall.
ECHO_EVENT_OBJECTS = 671
#: Entries over whole echo-figure sweeps, summed over their points:
#: (sweep, messages per point, payloads, entries).  They move with every
#: workload the figures run (all four Fig-3 transports, both Fig-4
#: stacks), not just the channel echo above.  May only fall.
SWEEP_EVENTS = {
    "fig3": (fig3_sweep, 10, FIG3_PAYLOADS, 53_046),
    "fig4": (fig4_sweep, 30, FIG4_PAYLOADS, 155_215),
}
#: Host copies (``repro.sim.copystats``) of one representative point per
#: data path: (workload, transport, payload, messages) and the pinned
#: (copies, copied bytes, frames delivered).  Schedule-exact, so pinned
#: exactly; the copies may only fall.
COPY_WORKLOADS = {
    "fig3_rdma": ((run_echo, "rdma_channel", 10 * 1024, 20), (81, 829_440, 163)),
    "fig3_tcp": ((run_echo, "tcp", 10 * 1024, 20), (740, 1_638_400, 483)),
    "fig4_rubin": ((reptor_echo, "rubin", 20 * 1024, 30), (300, 2_459_820, 361)),
    "fig4_nio": ((reptor_echo, "nio", 20 * 1024, 30), (2_095, 9_553_166, 1_289)),
}

def _count_event_objects(monkeypatch):
    """Tally every :class:`Event` constructed from now on, whatever class.

    Each class's own ``__init__`` counts the objects whose type meets it
    first in its MRO, so an object is counted once however many
    ``super().__init__`` calls it makes.
    """
    made = [0]

    def classes(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from classes(sub)

    def first_init(cls):
        return next(c for c in cls.__mro__ if "__init__" in vars(c))

    for cls in set(classes(Event)):
        if "__init__" not in vars(cls):
            continue

        def counting(self, *args, _init=vars(cls)["__init__"], _cls=cls, **kwargs):
            if first_init(type(self)) is _cls:
                made[0] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


def _pbft_run(transport, monkeypatch):
    """(agenda entries, ``Process`` objects) of the 40 PUTs."""
    cluster = BftCluster(
        transport=transport, config=BftConfig(batch_size=1, batch_delay=0.0)
    )
    cluster.start()
    spawned = []
    init = Process.__init__

    def counting_init(self, env, generator, name=None):
        init(self, env, generator, name)
        spawned.append(self.name)

    monkeypatch.setattr(Process, "__init__", counting_init)
    before = cluster.env._eid
    for i in range(PUTS):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    return cluster.env._eid - before, len(spawned)


@pytest.mark.parametrize("transport", ["rubin", "nio"])
def test_pbft_puts_take_exactly_this_many_entries(transport, monkeypatch):
    events, spawns = _pbft_run(transport, monkeypatch)
    assert events == PBFT_EVENTS[transport]
    assert spawns == PBFT_SPAWNS[transport]


@pytest.mark.parametrize("transport", ["rubin", "nio"])
def test_pbft_puts_construct_exactly_this_many_event_objects(transport, monkeypatch):
    cluster = BftCluster(
        transport=transport, config=BftConfig(batch_size=1, batch_delay=0.0)
    )
    cluster.start()
    made = _count_event_objects(monkeypatch)
    for i in range(PUTS):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    assert made[0] / PUTS == PBFT_EVENT_OBJECTS_PER_PUT[transport]


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="frame counts are pinned for CPython 3.11",
)
@pytest.mark.parametrize("transport", ["rubin", "nio"])
def test_pbft_puts_enter_exactly_this_many_python_frames(transport):
    cluster = BftCluster(
        transport=transport, config=BftConfig(batch_size=1, batch_delay=0.0)
    )
    cluster.start()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        for i in range(PUTS):
            assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    finally:
        sys.setprofile(None)
        gc.enable()
    assert calls / PUTS == PBFT_FRAMES_PER_PUT[transport]


def test_channel_echo_takes_exactly_this_many_entries():
    ties = GridWait.ties
    result = run_echo("rdma_channel", ECHO_BYTES, ECHO_MESSAGES)
    assert result.sim_events == ECHO_EVENTS
    # No completion landed bit-exactly on a sleeping reader's poll grid.
    assert GridWait.ties == ties


def test_channel_echo_constructs_exactly_this_many_event_objects(monkeypatch):
    made = _count_event_objects(monkeypatch)
    run_echo("rdma_channel", ECHO_BYTES, ECHO_MESSAGES)
    assert made[0] == ECHO_EVENT_OBJECTS


@pytest.mark.parametrize("figure", sorted(SWEEP_EVENTS))
def test_echo_sweep_takes_exactly_this_many_entries(figure):
    sweep, messages, payloads, events = SWEEP_EVENTS[figure]
    results = sweep(messages, payloads)
    assert sum(r.sim_events for r in results.values()) == events


@pytest.mark.parametrize("workload", sorted(COPY_WORKLOADS))
def test_echo_copies_exactly_this_much(workload):
    (run, *args), expected = COPY_WORKLOADS[workload]
    COPYSTATS.reset()
    COPYSTATS.enabled = True
    try:
        run(*args)
        counted = (
            COPYSTATS.copies, COPYSTATS.copied_bytes, COPYSTATS.frames_delivered
        )
    finally:
        COPYSTATS.enabled = False
        COPYSTATS.reset()
    assert counted == expected
