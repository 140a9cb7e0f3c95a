"""Client protocol: quorum acceptance, retransmission, view tracking."""

import pytest

from repro.bft import BftCluster, BftConfig, faults
from repro.errors import BftError


def make_cluster(**kwargs):
    defaults = dict(
        transport="nio",
        config=BftConfig(view_change_timeout=30e-3, batch_delay=50e-6),
    )
    defaults.update(kwargs)
    cluster = BftCluster(**defaults)
    cluster.start()
    return cluster


def test_accepts_on_f_plus_1_matching_replies():
    cluster = make_cluster()
    client = cluster.client()
    event = client.invoke(b"PUT q=uorum")
    cluster.env.run(until=event)
    votes = None  # event resolved; bookkeeping for it is cleaned up
    assert event.value == b"OK"
    assert client.invocations == 1


def test_timestamps_are_monotonic():
    cluster = make_cluster()
    client = cluster.client()
    first = client._next_timestamp
    cluster.invoke_and_wait(b"PUT a=1")
    cluster.invoke_and_wait(b"PUT b=2")
    assert client._next_timestamp == first + 2


def test_retransmission_on_silent_leader():
    cluster = make_cluster()
    faults.go_silent(cluster.replica("r0"))
    client = cluster.client()
    assert cluster.invoke_and_wait(b"PUT retry=me") == b"OK"
    assert client.retransmissions >= 1


def test_no_retransmission_on_fast_path():
    cluster = make_cluster()
    client = cluster.client()
    cluster.invoke_and_wait(b"PUT fast=path")
    assert client.retransmissions == 0


def test_view_hint_tracks_replies():
    cluster = make_cluster()
    faults.go_silent(cluster.replica("r0"))
    client = cluster.client()
    cluster.invoke_and_wait(b"PUT learn=views")
    assert client._view_hint >= 1
    # The next request goes straight to the new leader: no retransmission.
    before = client.retransmissions
    cluster.invoke_and_wait(b"PUT second=request")
    assert client.retransmissions == before


def test_concurrent_invocations_from_one_client():
    cluster = make_cluster()
    client = cluster.client()
    events = [client.invoke(f"PUT c{i}=v".encode()) for i in range(8)]
    done = cluster.env.all_of(events)
    cluster.env.run(until=done)
    assert all(e.value == b"OK" for e in events)


def test_negative_f_rejected():
    from repro.bft import BftClient

    cluster = make_cluster()
    with pytest.raises(BftError):
        BftClient("cx", cluster.client().endpoint, ["r0"], f=-1)


def test_mismatched_results_do_not_reach_quorum():
    """Replies with differing results must not be pooled together."""
    cluster = make_cluster()
    client = cluster.client()
    from repro.bft.messages import Reply

    client._reply_votes[99] = {}
    client._accepted[99] = cluster.env.event()
    client._on_reply(Reply("r0", client.client_id, 99, 0, b"A"))
    client._on_reply(Reply("r1", client.client_id, 99, 0, b"B"))
    assert not client._accepted[99].triggered
    client._on_reply(Reply("r2", client.client_id, 99, 0, b"A"))
    assert client._accepted[99].triggered
    assert client._accepted[99].value == b"A"


def test_duplicate_votes_from_same_replica_ignored():
    cluster = make_cluster()
    client = cluster.client()
    from repro.bft.messages import Reply

    client._reply_votes[77] = {}
    client._accepted[77] = cluster.env.event()
    for _ in range(5):
        client._on_reply(Reply("r0", client.client_id, 77, 0, b"X"))
    assert not client._accepted[77].triggered  # one replica, one vote


def test_foreign_client_replies_ignored():
    cluster = make_cluster()
    client = cluster.client()
    from repro.bft.messages import Reply

    client._reply_votes[55] = {}
    client._accepted[55] = cluster.env.event()
    client._on_reply(Reply("r0", "someone-else", 55, 0, b"X"))
    assert client._reply_votes[55] == {}
