"""PBFT protocol messages and their binary codec.

Messages are encoded with an explicit, length-prefixed binary format (no
pickle: a Byzantine peer controls these bytes, so decoding must be strict
and bounded).  Every decoder validates lengths and rejects trailing
garbage; malformed input raises :class:`~repro.errors.BftError`, which a
replica treats as a faulty peer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.errors import BftError

__all__ = [
    "Request",
    "Reply",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "ViewChange",
    "NewView",
    "StateTransferRequest",
    "StateTransferReply",
    "Busy",
    "encode",
    "decode",
]

@dataclass(frozen=True)
class Request:
    """A client operation submitted for total ordering."""

    client_id: str
    timestamp: int  # client-local, monotonically increasing
    operation: bytes

    def key(self) -> Tuple[str, int]:
        """Deduplication key."""
        return (self.client_id, self.timestamp)


@dataclass(frozen=True)
class Reply:
    """A replica's response to an executed request."""

    replica_id: str
    client_id: str
    timestamp: int
    view: int
    result: bytes


@dataclass(frozen=True)
class PrePrepare:
    """Leader's ordering proposal for a batch of requests."""

    view: int
    seq: int
    digest: bytes  # digest of the encoded batch
    batch: Tuple[Request, ...]
    replica_id: str


@dataclass(frozen=True)
class Prepare:
    """Backup's agreement to the leader's proposal."""

    view: int
    seq: int
    digest: bytes
    replica_id: str


@dataclass(frozen=True)
class Commit:
    """Replica's commitment after collecting a prepared certificate."""

    view: int
    seq: int
    digest: bytes
    replica_id: str


@dataclass(frozen=True)
class Checkpoint:
    """Periodic state digest for log truncation."""

    seq: int
    state_digest: bytes
    replica_id: str


@dataclass(frozen=True)
class ViewChange:
    """Vote to move to ``new_view`` carrying prepared evidence.

    ``prepared`` maps seq -> (view, digest, batch) for every request this
    replica holds a prepared certificate for above its stable checkpoint.
    """

    new_view: int
    stable_seq: int
    prepared: Tuple[Tuple[int, int, bytes, Tuple[Request, ...]], ...]
    replica_id: str


@dataclass(frozen=True)
class NewView:
    """New leader's proof-backed view installation."""

    new_view: int
    view_change_senders: Tuple[str, ...]
    pre_prepares: Tuple[PrePrepare, ...]
    replica_id: str


@dataclass(frozen=True)
class StateTransferRequest:
    """A lagging/restarted replica asking peers for catch-up state.

    ``low_seq`` is the sender's current executed sequence number; peers
    answer with their stable checkpoint (if newer) plus the executed log
    suffix above it.
    """

    low_seq: int
    replica_id: str


@dataclass(frozen=True)
class StateTransferReply:
    """One peer's catch-up answer: stable checkpoint + executed suffix.

    ``snapshot`` is an opaque state-machine snapshot at ``checkpoint_seq``
    whose digest is ``state_digest``; ``suffix`` carries the batches this
    peer executed after the checkpoint, as (seq, batch) pairs.  The
    requester installs a checkpoint only once f+1 replies agree on
    (checkpoint_seq, state_digest) — at least one of them is honest —
    and verifies the snapshot by restoring it and re-digesting.
    """

    checkpoint_seq: int
    state_digest: bytes
    snapshot: bytes
    suffix: Tuple[Tuple[int, Tuple[Request, ...]], ...]
    view: int
    replica_id: str


@dataclass(frozen=True)
class Busy:
    """Admission-control rejection: the replica shed this request.

    Sent instead of processing when a replica's outstanding-request
    budget (``BftConfig.admission_budget``) is exhausted.  Carries the
    request's deduplication key back so the client can match it to the
    pending invocation; clients retry with exponential backoff once
    ``f + 1`` replicas report busy for the same timestamp (at least one
    of them is honest, so the overload signal is genuine).
    """

    replica_id: str
    client_id: str
    timestamp: int
    view: int


# ---------------------------------------------------------------------------
# Codec.  After the type byte, runs of fixed-width fields are one
# precompiled struct each; a string or byte field is a u32 length and the
# bytes.  A decoder reads ``data`` from ``pos`` and returns ``(message,
# end)``; :func:`decode` turns every way the bytes can be wrong into
# BftError: a fixed field past the end (``struct.error``), invalid UTF-8,
# a final field cut short (``end`` past the data) and trailing bytes
# (``end`` short of it).  A field cut short anywhere else is caught by the
# next fixed field, which then starts past the end.
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_QI = struct.Struct(">QI")
_QQ = struct.Struct(">QQ")
_QQI = struct.Struct(">QQI")
_TAG_Q = struct.Struct(">BQ")
_TAG_QI = struct.Struct(">BQI")
_TAG_QQ = struct.Struct(">BQQ")
_TAG_QQI = struct.Struct(">BQQI")

_MAX_ITEMS = 100_000


# -- encoding -----------------------------------------------------------------


def _field(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _request_wire(request: Request) -> bytes:
    client_id = request.client_id.encode()
    operation = request.operation
    return b"".join(
        (
            _U32.pack(len(client_id)),
            client_id,
            _QI.pack(request.timestamp, len(operation)),
            operation,
        )
    )


def _batch_wire(batch) -> bytes:
    return _U32.pack(len(batch)) + b"".join(map(_request_wire, batch))


def _preprepare_body(message: PrePrepare) -> bytes:
    digest = message.digest
    return b"".join(
        (
            _QQI.pack(message.view, message.seq, len(digest)),
            digest,
            _batch_wire(message.batch),
            _field(message.replica_id.encode()),
        )
    )


def _encode_request(message: Request) -> bytes:
    return b"\x01" + _request_wire(message)


def _encode_reply(message: Reply) -> bytes:
    return b"".join(
        (
            b"\x02",
            _field(message.replica_id.encode()),
            _field(message.client_id.encode()),
            _QQ.pack(message.timestamp, message.view),
            _field(message.result),
        )
    )


def _encode_preprepare(message: PrePrepare) -> bytes:
    return b"\x03" + _preprepare_body(message)


def _vote_encoder(type_id: int):
    def encode_vote(message) -> bytes:
        digest = message.digest
        replica_id = message.replica_id.encode()
        return b"".join(
            (
                _TAG_QQI.pack(type_id, message.view, message.seq, len(digest)),
                digest,
                _U32.pack(len(replica_id)),
                replica_id,
            )
        )

    return encode_vote


def _encode_checkpoint(message: Checkpoint) -> bytes:
    state_digest = message.state_digest
    return b"".join(
        (
            _TAG_QI.pack(6, message.seq, len(state_digest)),
            state_digest,
            _field(message.replica_id.encode()),
        )
    )


def _encode_view_change(message: ViewChange) -> bytes:
    out = [
        _TAG_QQ.pack(7, message.new_view, message.stable_seq),
        _U32.pack(len(message.prepared)),
    ]
    for seq, view, digest, batch in message.prepared:
        out += (_QQI.pack(seq, view, len(digest)), digest, _batch_wire(batch))
    out.append(_field(message.replica_id.encode()))
    return b"".join(out)


def _encode_new_view(message: NewView) -> bytes:
    out = [_TAG_QI.pack(8, message.new_view, len(message.view_change_senders))]
    out += (_field(sender.encode()) for sender in message.view_change_senders)
    out.append(_U32.pack(len(message.pre_prepares)))
    out += (_field(_preprepare_body(pp)) for pp in message.pre_prepares)
    out.append(_field(message.replica_id.encode()))
    return b"".join(out)


def _encode_state_transfer_request(message: StateTransferRequest) -> bytes:
    return _TAG_Q.pack(9, message.low_seq) + _field(message.replica_id.encode())


def _encode_state_transfer_reply(message: StateTransferReply) -> bytes:
    out = [
        _TAG_Q.pack(10, message.checkpoint_seq),
        _field(message.state_digest),
        _field(message.snapshot),
        _U32.pack(len(message.suffix)),
    ]
    for seq, batch in message.suffix:
        out += (_U64.pack(seq), _batch_wire(batch))
    out += (_U64.pack(message.view), _field(message.replica_id.encode()))
    return b"".join(out)


def _encode_busy(message: Busy) -> bytes:
    return b"".join(
        (
            b"\x0b",
            _field(message.replica_id.encode()),
            _field(message.client_id.encode()),
            _QQ.pack(message.timestamp, message.view),
        )
    )


# -- decoding -----------------------------------------------------------------


def _str_at(data: bytes, pos: int) -> Tuple[str, int]:
    (length,) = _U32.unpack_from(data, pos)
    pos += 4
    end = pos + length
    return data[pos:end].decode(), end


def _bytes_at(data: bytes, pos: int) -> Tuple[bytes, int]:
    (length,) = _U32.unpack_from(data, pos)
    pos += 4
    end = pos + length
    return data[pos:end], end


def _count_at(data: bytes, pos: int, what: str) -> Tuple[int, int]:
    (count,) = _U32.unpack_from(data, pos)
    if count > _MAX_ITEMS:
        raise BftError(f"absurd {what} {count}")
    return count, pos + 4


def _decode_request(data: bytes, pos: int):
    client_id, pos = _str_at(data, pos)
    timestamp, length = _QI.unpack_from(data, pos)
    pos += 12
    end = pos + length
    return Request(client_id, timestamp, data[pos:end]), end


def _batch_at(data: bytes, pos: int) -> Tuple[Tuple[Request, ...], int]:
    count, pos = _count_at(data, pos, "batch size")
    batch = []
    for _ in range(count):
        request, pos = _decode_request(data, pos)
        batch.append(request)
    return tuple(batch), pos


def _decode_reply(data: bytes, pos: int):
    replica_id, pos = _str_at(data, pos)
    client_id, pos = _str_at(data, pos)
    timestamp, view = _QQ.unpack_from(data, pos)
    result, end = _bytes_at(data, pos + 16)
    return Reply(replica_id, client_id, timestamp, view, result), end


def _decode_preprepare(data: bytes, pos: int):
    view, seq, length = _QQI.unpack_from(data, pos)
    pos += 20
    end = pos + length
    digest = data[pos:end]
    batch, pos = _batch_at(data, end)
    replica_id, end = _str_at(data, pos)
    return PrePrepare(view, seq, digest, batch, replica_id), end


def _vote_decoder(cls):
    def decode_vote(data: bytes, pos: int):
        view, seq, length = _QQI.unpack_from(data, pos)
        pos += 20
        end = pos + length
        digest = data[pos:end]
        (length,) = _U32.unpack_from(data, end)
        pos = end + 4
        end = pos + length
        return cls(view, seq, digest, data[pos:end].decode()), end

    return decode_vote


def _decode_checkpoint(data: bytes, pos: int):
    seq, length = _QI.unpack_from(data, pos)
    pos += 12
    end = pos + length
    state_digest = data[pos:end]
    replica_id, end = _str_at(data, end)
    return Checkpoint(seq, state_digest, replica_id), end


def _decode_view_change(data: bytes, pos: int):
    new_view, stable_seq = _QQ.unpack_from(data, pos)
    count, pos = _count_at(data, pos + 16, "prepared-set size")
    prepared = []
    for _ in range(count):
        seq, view, length = _QQI.unpack_from(data, pos)
        pos += 20
        end = pos + length
        digest = data[pos:end]
        batch, pos = _batch_at(data, end)
        prepared.append((seq, view, digest, batch))
    replica_id, end = _str_at(data, pos)
    return ViewChange(new_view, stable_seq, tuple(prepared), replica_id), end


def _decode_new_view(data: bytes, pos: int):
    new_view, count = _QI.unpack_from(data, pos)
    if count > 10_000:
        raise BftError(f"absurd sender count {count}")
    pos += 12
    senders = []
    for _ in range(count):
        sender, pos = _str_at(data, pos)
        senders.append(sender)
    count, pos = _count_at(data, pos, "pre-prepare count")
    pre_prepares = []
    for _ in range(count):
        body, pos = _bytes_at(data, pos)
        pre_prepare, end = _decode_preprepare(body, 0)
        _check_end(body, end)
        pre_prepares.append(pre_prepare)
    replica_id, end = _str_at(data, pos)
    return NewView(new_view, tuple(senders), tuple(pre_prepares), replica_id), end


def _decode_state_transfer_request(data: bytes, pos: int):
    (low_seq,) = _U64.unpack_from(data, pos)
    replica_id, end = _str_at(data, pos + 8)
    return StateTransferRequest(low_seq, replica_id), end


def _decode_state_transfer_reply(data: bytes, pos: int):
    (checkpoint_seq,) = _U64.unpack_from(data, pos)
    state_digest, pos = _bytes_at(data, pos + 8)
    snapshot, pos = _bytes_at(data, pos)
    count, pos = _count_at(data, pos, "suffix size")
    suffix = []
    for _ in range(count):
        (seq,) = _U64.unpack_from(data, pos)
        batch, pos = _batch_at(data, pos + 8)
        suffix.append((seq, batch))
    (view,) = _U64.unpack_from(data, pos)
    replica_id, end = _str_at(data, pos + 8)
    message = StateTransferReply(
        checkpoint_seq, state_digest, snapshot, tuple(suffix), view, replica_id
    )
    return message, end


def _decode_busy(data: bytes, pos: int):
    replica_id, pos = _str_at(data, pos)
    client_id, pos = _str_at(data, pos)
    timestamp, view = _QQ.unpack_from(data, pos)
    return Busy(replica_id, client_id, timestamp, view), pos + 16


def _check_end(data: bytes, end: int) -> None:
    if end > len(data):
        raise BftError("truncated byte field")
    if end < len(data):
        raise BftError(f"{len(data) - end} trailing bytes after message")


#: (type byte, class, encoder, decoder).  Each encoder writes the type
#: byte itself, folded into its first struct where it has one.
_CODECS = (
    (1, Request, _encode_request, _decode_request),
    (2, Reply, _encode_reply, _decode_reply),
    (3, PrePrepare, _encode_preprepare, _decode_preprepare),
    (4, Prepare, _vote_encoder(4), _vote_decoder(Prepare)),
    (5, Commit, _vote_encoder(5), _vote_decoder(Commit)),
    (6, Checkpoint, _encode_checkpoint, _decode_checkpoint),
    (7, ViewChange, _encode_view_change, _decode_view_change),
    (8, NewView, _encode_new_view, _decode_new_view),
    (9, StateTransferRequest, _encode_state_transfer_request,
     _decode_state_transfer_request),
    (10, StateTransferReply, _encode_state_transfer_reply,
     _decode_state_transfer_reply),
    (11, Busy, _encode_busy, _decode_busy),
)
_ENCODERS = {cls: encoder for _tag, cls, encoder, _decoder in _CODECS}
_DECODER_OF_TAG = {tag: decoder for tag, _cls, _encoder, decoder in _CODECS}
#: Decoder by type byte; ``None`` where no type has that byte.
_DECODERS = tuple(_DECODER_OF_TAG.get(byte) for byte in range(256))


def encode(message) -> bytes:
    """Serialize any protocol message to bytes."""
    encoder = _ENCODERS.get(message.__class__)
    if encoder is None:
        raise BftError(f"cannot encode {type(message).__name__}")
    return encoder(message)


def decode(data: bytes):
    """Parse bytes back into a protocol message (strict)."""
    if not data:
        raise BftError("empty message")
    decoder = _DECODERS[data[0]]
    if decoder is None:
        raise BftError(f"unknown message type {data[0]}")
    try:
        message, end = decoder(data, 1)
    except struct.error:
        raise BftError("truncated message") from None
    except UnicodeDecodeError as exc:
        raise BftError(f"string field is not UTF-8 ({exc.reason})") from None
    if end != len(data):
        _check_end(data, end)
    return message
