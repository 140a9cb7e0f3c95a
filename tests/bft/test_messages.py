"""Codec tests: every message type roundtrips; hostile input is rejected."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bft.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    ViewChange,
    decode,
    encode,
)
from repro.errors import BftError


def req(i=0):
    return Request(client_id=f"c{i}", timestamp=10 + i, operation=b"PUT k=v")


SAMPLES = [
    req(),
    Reply(
        replica_id="r1", client_id="c0", timestamp=10, view=2, result=b"OK"
    ),
    PrePrepare(view=1, seq=7, digest=b"d" * 32, batch=(req(0), req(1)), replica_id="r0"),
    Prepare(view=1, seq=7, digest=b"d" * 32, replica_id="r2"),
    Commit(view=1, seq=7, digest=b"d" * 32, replica_id="r3"),
    Checkpoint(seq=64, state_digest=b"s" * 32, replica_id="r1"),
    ViewChange(
        new_view=2,
        stable_seq=64,
        prepared=((65, 1, b"d" * 32, (req(),)),),
        replica_id="r2",
    ),
    NewView(
        new_view=2,
        view_change_senders=("r0", "r2", "r3"),
        pre_prepares=(
            PrePrepare(view=2, seq=65, digest=b"d" * 32, batch=(req(),), replica_id="r2"),
        ),
        replica_id="r2",
    ),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_roundtrip(message):
    assert decode(encode(message)) == message


def test_empty_input_rejected():
    with pytest.raises(BftError, match="empty"):
        decode(b"")


def test_unknown_type_rejected():
    with pytest.raises(BftError, match="unknown message type"):
        decode(b"\xff\x00\x00")


def test_truncated_input_rejected():
    wire = encode(req())
    with pytest.raises(BftError):
        decode(wire[:-3])


def test_trailing_garbage_rejected():
    wire = encode(req())
    with pytest.raises(BftError, match="trailing"):
        decode(wire + b"garbage")


def test_absurd_batch_size_rejected():
    import struct

    # Forge a PrePrepare header claiming a gigantic batch.
    wire = bytearray(encode(SAMPLES[2]))
    # view(8) + seq(8) + digest(4+32) after the type byte; batch count next.
    offset = 1 + 8 + 8 + 4 + 32
    wire[offset : offset + 4] = struct.pack(">I", 1 << 31)
    with pytest.raises(BftError):
        decode(bytes(wire))


def test_unencodable_object_rejected():
    with pytest.raises(BftError, match="cannot encode"):
        encode(object())


@given(
    client=st.text(min_size=1, max_size=20),
    timestamp=st.integers(min_value=0, max_value=2**63),
    operation=st.binary(max_size=5000),
)
def test_request_roundtrip_property(client, timestamp, operation):
    message = Request(client_id=client, timestamp=timestamp, operation=operation)
    assert decode(encode(message)) == message


@given(
    view=st.integers(min_value=0, max_value=2**32),
    seq=st.integers(min_value=0, max_value=2**32),
    digest=st.binary(min_size=0, max_size=64),
    replica=st.text(min_size=1, max_size=8),
)
def test_vote_roundtrip_property(view, seq, digest, replica):
    for cls in (Prepare, Commit):
        message = cls(view=view, seq=seq, digest=digest, replica_id=replica)
        assert decode(encode(message)) == message


@given(data=st.binary(max_size=200))
# A well-framed Request whose client_id is the invalid UTF-8 byte 0xFE.
@example(data=b"\x01\x00\x00\x00\x01\xfe" + (99).to_bytes(8, "big") + bytes(4))
def test_decoder_never_crashes_unsafely(data):
    """Arbitrary bytes either decode or raise BftError — nothing else."""
    try:
        decode(data)
    except BftError:
        pass
