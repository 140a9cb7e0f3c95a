"""What a request costs the agenda, pinned to the entry.

Host speed moves with the machine; the number of agenda entries a fixed
workload takes does not.  ``env._eid`` grows by one per keyed entry
(starts on the urgent lane, eventless puts and fused hold ends take
none), it is the same on every host, and it is what perfbench reports
as ``sim.events_per_op``.  These pins are the host-independent gate on
it: a change that adds entries to the request path fails here and has
to move the number on purpose.  (Before the
agenda diet the three figures were 80 258, 90 032 and 24 534; the echo
was 22 048 while its readers still ticked through their waits.)
"""

import pytest

from repro.bench.echo import run_echo
from repro.bft import BftCluster, BftConfig
from repro.sim import GridWait

PUTS = 40
#: Entries for 40 sequential unbatched PUTs on a wired 4-replica cluster.
PBFT_EVENTS = {"rubin": 38_113, "nio": 41_883}
#: Entries for the whole Fig-3 channel echo run: 26 to connect, then 148
#: per echo — two messages of 18 + 7 per MTU frame, 8 frames here (the
#: per-primitive table in DESIGN §11) — and a dozen amortized ones (a
#: send CQE reaped every 8 sends, receive buffers re-posted every 16
#: reads, each application buffer's first use, the QPs' retry timers).
ECHO_MESSAGES, ECHO_BYTES, ECHO_EVENTS = 20, 32 * 1024, 3_000


def _pbft_events(transport):
    cluster = BftCluster(
        transport=transport, config=BftConfig(batch_size=1, batch_delay=0.0)
    )
    cluster.start()
    before = cluster.env._eid
    for i in range(PUTS):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    return cluster.env._eid - before


@pytest.mark.parametrize("transport", ["rubin", "nio"])
def test_pbft_puts_take_exactly_this_many_entries(transport):
    assert _pbft_events(transport) == PBFT_EVENTS[transport]


def test_channel_echo_takes_exactly_this_many_entries():
    ties = GridWait.ties
    result = run_echo("rdma_channel", ECHO_BYTES, ECHO_MESSAGES)
    assert result.sim_events == ECHO_EVENTS
    # No completion landed bit-exactly on a sleeping reader's poll grid.
    assert GridWait.ties == ties
