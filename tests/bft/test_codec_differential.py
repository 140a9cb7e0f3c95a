"""The struct-compiled codec against the reader it replaced.

Every message type must encode to the reference's bytes, and every input
(round trips, every truncation point, trailing bytes, random byte flips,
absurd counts, invalid UTF-8) must get the reference's verdict: an equal
message, or ``BftError``.  The one deliberate difference: the reference
lets invalid UTF-8 escape as ``UnicodeDecodeError``, which now is a
``BftError`` like any other malformed bytes.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bft.messages import (
    Busy,
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StateTransferReply,
    StateTransferRequest,
    ViewChange,
    decode,
    encode,
)
from repro.errors import BftError
from tests.bft.reference_codec import reference_decode, reference_encode

u64 = st.integers(min_value=0, max_value=2**64 - 1)
text = st.text(max_size=6)
blob = st.binary(max_size=40)
requests = st.builds(Request, text, u64, blob)
batches = st.lists(requests, max_size=3).map(tuple)
pre_prepares = st.builds(PrePrepare, u64, u64, blob, batches, text)

MESSAGES = st.one_of(
    requests,
    st.builds(Reply, text, text, u64, u64, blob),
    pre_prepares,
    st.builds(Prepare, u64, u64, blob, text),
    st.builds(Commit, u64, u64, blob, text),
    st.builds(Checkpoint, u64, blob, text),
    st.builds(
        ViewChange,
        u64,
        u64,
        st.lists(st.tuples(u64, u64, blob, batches), max_size=2).map(tuple),
        text,
    ),
    st.builds(
        NewView,
        u64,
        st.lists(text, max_size=3).map(tuple),
        st.lists(pre_prepares, max_size=2).map(tuple),
        text,
    ),
    st.builds(StateTransferRequest, u64, text),
    st.builds(
        StateTransferReply,
        u64,
        blob,
        blob,
        st.lists(st.tuples(u64, batches), max_size=2).map(tuple),
        u64,
        text,
    ),
    st.builds(Busy, text, text, u64, u64),
)


def verdict(decoder, data):
    """``("ok", message)`` or ``("error",)``."""
    try:
        return ("ok", decoder(data))
    except BftError:
        return ("error",)
    except UnicodeDecodeError:
        if decoder is decode:
            raise
        return ("error",)


def assert_same_verdict(data):
    assert verdict(decode, data) == verdict(reference_decode, data)


@settings(max_examples=300, deadline=None)
@given(message=MESSAGES)
def test_every_type_encodes_to_the_reference_bytes_and_round_trips(message):
    wire = encode(message)
    assert wire == reference_encode(message)
    decoded = decode(wire)
    assert decoded == message
    assert type(decoded) is type(message)
    assert hash(decoded) == hash(message)


@settings(max_examples=150, deadline=None)
@given(message=MESSAGES)
def test_every_truncation_point_gets_the_reference_verdict(message):
    wire = encode(message)
    for cut in range(len(wire)):
        assert_same_verdict(wire[:cut])


@settings(max_examples=150, deadline=None)
@given(message=MESSAGES, extra=st.binary(min_size=1, max_size=8))
def test_trailing_bytes_get_the_reference_verdict(message, extra):
    with pytest.raises(BftError, match="trailing"):
        decode(encode(message) + extra)
    assert_same_verdict(encode(message) + extra)


@settings(max_examples=300, deadline=None)
@given(message=MESSAGES, data=st.data())
def test_random_byte_flips_get_the_reference_verdict(message, data):
    wire = bytearray(encode(message))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        wire[index] = data.draw(st.integers(min_value=0, max_value=255))
    assert_same_verdict(bytes(wire))


@given(data=st.binary(max_size=120))
def test_random_bytes_get_the_reference_verdict(data):
    assert_same_verdict(data)


def _req():
    return Request("c0", 7, b"PUT k=v")


def _absurd(message, offset, count=1 << 31):
    wire = bytearray(encode(message))
    wire[offset : offset + 4] = struct.pack(">I", count)
    return bytes(wire)


@pytest.mark.parametrize(
    "wire",
    [
        # PrePrepare batch count: after view, seq and a 32-byte digest.
        _absurd(PrePrepare(1, 2, b"d" * 32, (_req(),), "r0"), 1 + 8 + 8 + 4 + 32),
        # ViewChange prepared-set size: after new_view and stable_seq.
        _absurd(ViewChange(2, 0, (), "r1"), 1 + 8 + 8),
        # ViewChange batch inside one prepared entry.
        _absurd(
            ViewChange(2, 0, ((1, 1, b"d", (_req(),)),), "r1"),
            1 + 8 + 8 + 4 + 8 + 8 + 4 + 1,
        ),
        # NewView sender count, then pre-prepare count.
        _absurd(NewView(3, (), (), "r3"), 1 + 8, 10_001),
        _absurd(NewView(3, (), (), "r3"), 1 + 8 + 4),
        # StateTransferReply suffix size: after seq and two empty fields.
        _absurd(StateTransferReply(4, b"", b"", (), 0, "r2"), 1 + 8 + 4 + 4),
    ],
    ids=["batch", "prepared", "prepared-batch", "senders", "pre-prepares", "suffix"],
)
def test_absurd_counts_are_refused_before_reading(wire):
    with pytest.raises(BftError, match="absurd"):
        decode(wire)
    with pytest.raises(BftError, match="absurd"):
        reference_decode(wire)


def _bad_utf8(message, good: str):
    """``message``'s wire with string field ``good`` (1 byte) set to 0xFE."""
    wire = encode(message)
    field = struct.pack(">I", 1) + good.encode()
    assert wire.count(field) == 1
    return wire.replace(field, struct.pack(">I", 1) + b"\xfe")


@pytest.mark.parametrize(
    "wire",
    [
        _bad_utf8(Request("C", 1, b""), "C"),
        _bad_utf8(Reply("R", "c", 1, 0, b"OK"), "R"),
        _bad_utf8(Reply("r", "C", 1, 0, b"OK"), "C"),
        _bad_utf8(PrePrepare(1, 2, b"d", (), "R"), "R"),
        _bad_utf8(PrePrepare(1, 2, b"d", (Request("C", 1, b""),), "r"), "C"),
        _bad_utf8(Prepare(1, 2, b"d", "R"), "R"),
        _bad_utf8(Commit(1, 2, b"d", "R"), "R"),
        _bad_utf8(Checkpoint(3, b"s", "R"), "R"),
        _bad_utf8(ViewChange(2, 0, (), "R"), "R"),
        _bad_utf8(NewView(2, ("S",), (), "r"), "S"),
        _bad_utf8(NewView(2, (), (PrePrepare(2, 1, b"d", (), "P"),), "r"), "P"),
        _bad_utf8(StateTransferRequest(5, "R"), "R"),
        _bad_utf8(StateTransferReply(4, b"", b"", (), 0, "R"), "R"),
        _bad_utf8(Busy("R", "c", 1, 0), "R"),
        _bad_utf8(Busy("r", "C", 1, 0), "C"),
    ],
)
def test_invalid_utf8_in_any_string_field_is_a_bft_error(wire):
    with pytest.raises(BftError, match="UTF-8"):
        decode(wire)
    with pytest.raises(UnicodeDecodeError):
        reference_decode(wire)
