"""The reference codec: the byte-at-a-time reader and writer that the
struct-compiled codec in ``repro.bft.messages`` replaced, kept verbatim so
the differential tests can hold the new codec to the old verdicts.

Its one known flaw is kept too: invalid UTF-8 in a string field escapes as
``UnicodeDecodeError`` rather than ``BftError``.
"""

import struct

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
)
from repro.errors import BftError

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _pack_bytes(out: bytearray, data: bytes) -> None:
    out.extend(_U32.pack(len(data)))
    out.extend(data)


def _pack_str(out: bytearray, text: str) -> None:
    _pack_bytes(out, text.encode())


class _Reader:
    """Bounded, strict reader over an encoded message."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def _unpack(self, fmt: struct.Struct) -> int:
        end = self.pos + fmt.size
        if end > len(self.data):
            raise BftError("truncated message")
        (value,) = fmt.unpack_from(self.data, self.pos)
        self.pos = end
        return value

    def bytes_(self) -> bytes:
        length = self.u32()
        end = self.pos + length
        if end > len(self.data):
            raise BftError("truncated byte field")
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def str_(self) -> str:
        return self.bytes_().decode()

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise BftError(
                f"{len(self.data) - self.pos} trailing bytes after message"
            )


_TYPE_IDS = {
    Request: 1,
    Reply: 2,
    PrePrepare: 3,
    Prepare: 4,
    Commit: 5,
    Checkpoint: 6,
    ViewChange: 7,
    NewView: 8,
    StateTransferRequest: 9,
    StateTransferReply: 10,
    Busy: 11,
}
_TYPES = {v: k for k, v in _TYPE_IDS.items()}


def _encode_request_body(out: bytearray, message: Request) -> None:
    _pack_str(out, message.client_id)
    out.extend(_U64.pack(message.timestamp))
    _pack_bytes(out, message.operation)


def _decode_request_body(reader: _Reader) -> Request:
    return Request(reader.str_(), reader.u64(), reader.bytes_())


def _encode_preprepare_body(out: bytearray, message: PrePrepare) -> None:
    out.extend(_U64.pack(message.view))
    out.extend(_U64.pack(message.seq))
    _pack_bytes(out, message.digest)
    out.extend(_U32.pack(len(message.batch)))
    for request in message.batch:
        _encode_request_body(out, request)
    _pack_str(out, message.replica_id)


def _decode_preprepare_body(reader: _Reader) -> PrePrepare:
    view = reader.u64()
    seq = reader.u64()
    digest = reader.bytes_()
    count = reader.u32()
    if count > 100_000:
        raise BftError(f"absurd batch size {count}")
    batch = tuple(_decode_request_body(reader) for _ in range(count))
    return PrePrepare(view, seq, digest, batch, reader.str_())

def reference_encode(message) -> bytes:
    """The byte-at-a-time encoder the struct codec replaced."""
    type_id = _TYPE_IDS.get(type(message))
    if type_id is None:
        raise BftError(f"cannot encode {type(message).__name__}")
    out = bytearray([type_id])
    if isinstance(message, Request):
        _encode_request_body(out, message)
    elif isinstance(message, Reply):
        _pack_str(out, message.replica_id)
        _pack_str(out, message.client_id)
        out.extend(_U64.pack(message.timestamp))
        out.extend(_U64.pack(message.view))
        _pack_bytes(out, message.result)
    elif isinstance(message, PrePrepare):
        _encode_preprepare_body(out, message)
    elif isinstance(message, (Prepare, Commit)):
        out.extend(_U64.pack(message.view))
        out.extend(_U64.pack(message.seq))
        _pack_bytes(out, message.digest)
        _pack_str(out, message.replica_id)
    elif isinstance(message, Checkpoint):
        out.extend(_U64.pack(message.seq))
        _pack_bytes(out, message.state_digest)
        _pack_str(out, message.replica_id)
    elif isinstance(message, ViewChange):
        out.extend(_U64.pack(message.new_view))
        out.extend(_U64.pack(message.stable_seq))
        out.extend(_U32.pack(len(message.prepared)))
        for seq, view, digest, batch in message.prepared:
            out.extend(_U64.pack(seq))
            out.extend(_U64.pack(view))
            _pack_bytes(out, digest)
            out.extend(_U32.pack(len(batch)))
            for request in batch:
                _encode_request_body(out, request)
        _pack_str(out, message.replica_id)
    elif isinstance(message, StateTransferRequest):
        out.extend(_U64.pack(message.low_seq))
        _pack_str(out, message.replica_id)
    elif isinstance(message, Busy):
        _pack_str(out, message.replica_id)
        _pack_str(out, message.client_id)
        out.extend(_U64.pack(message.timestamp))
        out.extend(_U64.pack(message.view))
    elif isinstance(message, StateTransferReply):
        out.extend(_U64.pack(message.checkpoint_seq))
        _pack_bytes(out, message.state_digest)
        _pack_bytes(out, message.snapshot)
        out.extend(_U32.pack(len(message.suffix)))
        for seq, batch in message.suffix:
            out.extend(_U64.pack(seq))
            out.extend(_U32.pack(len(batch)))
            for request in batch:
                _encode_request_body(out, request)
        out.extend(_U64.pack(message.view))
        _pack_str(out, message.replica_id)
    elif isinstance(message, NewView):
        out.extend(_U64.pack(message.new_view))
        out.extend(_U32.pack(len(message.view_change_senders)))
        for sender in message.view_change_senders:
            _pack_str(out, sender)
        out.extend(_U32.pack(len(message.pre_prepares)))
        for pre_prepare in message.pre_prepares:
            body = bytearray()
            _encode_preprepare_body(body, pre_prepare)
            _pack_bytes(out, bytes(body))
        _pack_str(out, message.replica_id)
    return bytes(out)


def reference_decode(data: bytes):
    """The byte-at-a-time reader the struct codec replaced."""
    if not data:
        raise BftError("empty message")
    type_id = data[0]
    cls = _TYPES.get(type_id)
    if cls is None:
        raise BftError(f"unknown message type {type_id}")
    reader = _Reader(data)
    reader.pos = 1
    if cls is Request:
        message = _decode_request_body(reader)
    elif cls is Reply:
        message = Reply(
            reader.str_(), reader.str_(), reader.u64(), reader.u64(), reader.bytes_()
        )
    elif cls is PrePrepare:
        message = _decode_preprepare_body(reader)
    elif cls in (Prepare, Commit):
        message = cls(reader.u64(), reader.u64(), reader.bytes_(), reader.str_())
    elif cls is Checkpoint:
        message = Checkpoint(reader.u64(), reader.bytes_(), reader.str_())
    elif cls is ViewChange:
        new_view = reader.u64()
        stable_seq = reader.u64()
        count = reader.u32()
        if count > 100_000:
            raise BftError(f"absurd prepared-set size {count}")
        prepared = []
        for _ in range(count):
            seq = reader.u64()
            view = reader.u64()
            digest = reader.bytes_()
            batch_len = reader.u32()
            if batch_len > 100_000:
                raise BftError(f"absurd batch size {batch_len}")
            batch = tuple(_decode_request_body(reader) for _ in range(batch_len))
            prepared.append((seq, view, digest, batch))
        message = ViewChange(new_view, stable_seq, tuple(prepared), reader.str_())
    elif cls is StateTransferRequest:
        message = StateTransferRequest(reader.u64(), reader.str_())
    elif cls is Busy:
        message = Busy(reader.str_(), reader.str_(), reader.u64(), reader.u64())
    elif cls is StateTransferReply:
        checkpoint_seq = reader.u64()
        state_digest = reader.bytes_()
        snapshot = reader.bytes_()
        count = reader.u32()
        if count > 100_000:
            raise BftError(f"absurd suffix size {count}")
        suffix = []
        for _ in range(count):
            seq = reader.u64()
            batch_len = reader.u32()
            if batch_len > 100_000:
                raise BftError(f"absurd batch size {batch_len}")
            batch = tuple(_decode_request_body(reader) for _ in range(batch_len))
            suffix.append((seq, batch))
        message = StateTransferReply(
            checkpoint_seq,
            state_digest,
            snapshot,
            tuple(suffix),
            reader.u64(),
            reader.str_(),
        )
    elif cls is NewView:
        new_view = reader.u64()
        sender_count = reader.u32()
        if sender_count > 10_000:
            raise BftError(f"absurd sender count {sender_count}")
        senders = tuple(reader.str_() for _ in range(sender_count))
        pp_count = reader.u32()
        if pp_count > 100_000:
            raise BftError(f"absurd pre-prepare count {pp_count}")
        pre_prepares = []
        for _ in range(pp_count):
            body = reader.bytes_()
            inner = _Reader(body)
            pre_prepares.append(_decode_preprepare_body(inner))
            inner.finish()
        message = NewView(new_view, senders, tuple(pre_prepares), reader.str_())
    else:  # pragma: no cover - exhaustive
        raise BftError(f"unhandled type {cls}")
    reader.finish()
    return message
