"""Message framing with optional HMAC trailers.

Wire format of one frame::

    +---------+---------+---------------------+----------------+
    | len: 4B | flag:1B | payload: len bytes  | mac: 16B (opt) |
    +---------+---------+---------------------+----------------+

``len`` covers only the payload.  The MAC (present when the flag's bit 0
is set) covers header plus payload, so neither length forgery nor payload
tampering goes unnoticed.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.crypto import MAC_BYTES, HmacAuthenticator
from repro.errors import BftError
from repro.sim.copystats import COPYSTATS

__all__ = ["Framer", "HEADER_BYTES", "frame_overhead"]

HEADER_BYTES = 5
_HEADER = struct.Struct(">IB")
FLAG_MAC = 0x1


def frame_overhead(authenticated: bool) -> int:
    """Per-message framing overhead in bytes."""
    return HEADER_BYTES + (MAC_BYTES if authenticated else 0)


class Framer:
    """Stateful encoder/decoder for one connection's byte stream."""

    def __init__(
        self,
        auth: Optional[HmacAuthenticator] = None,
        max_message: int = 128 * 1024,
    ):
        self.auth = auth
        self.max_message = max_message
        self._parse_buffer = bytearray()
        self.decoded_count = 0
        self.rejected_count = 0

    # -- encoding ----------------------------------------------------------

    def encode_parts(self, payload: bytes) -> Tuple[bytes, ...]:
        """Frame one message as ``(header, payload, [mac])`` without joining.

        The payload rides through by reference: writers that can gather
        multiple segments (staging rings, vectored sends) never pay for
        a concatenation.  The MAC is computed incrementally over the
        parts, so authentication adds no copy either.
        """
        if len(payload) > self.max_message:
            raise BftError(
                f"message of {len(payload)}B exceeds max_message "
                f"{self.max_message}B"
            )
        if self.auth is not None:
            header = _HEADER.pack(len(payload), FLAG_MAC)
            mac = self.auth.sign_parts((header, payload))
            return (header, payload, mac)
        return (_HEADER.pack(len(payload), 0), payload)

    def encode(self, payload: bytes) -> bytes:
        """Frame one message as a single owned byte string."""
        parts = self.encode_parts(payload)
        if COPYSTATS.enabled:
            COPYSTATS.copy(sum(len(p) for p in parts))
        return b"".join(parts)

    def encoded_size(self, payload_len: int) -> int:
        """Wire size of a framed message with ``payload_len`` payload."""
        return payload_len + frame_overhead(self.auth is not None)

    # -- decoding -----------------------------------------------------------

    def feed(self, data: "bytes | memoryview") -> List[bytes]:
        """Consume stream bytes; return the complete, *verified* payloads.

        Complete frames are parsed straight out of ``data`` — the only
        owned materialization is the payload itself.  Bytes of a trailing
        partial frame (and anything arriving while one is pending) are
        staged in the parse buffer until completed by a later chunk.

        A frame with a bad MAC raises :class:`BftError` — the caller
        (replica) treats the connection as compromised.
        """
        out: List[bytes] = []
        buf = self._parse_buffer
        if not buf:
            view = data if isinstance(data, memoryview) else memoryview(data)
            pos, end = 0, len(view)
            try:
                while True:
                    extracted = self._extract_at(view, pos, end)
                    if extracted is None:
                        break
                    payload, consumed = extracted
                    out.append(payload)
                    pos += consumed
                if pos < end:
                    if COPYSTATS.enabled:
                        COPYSTATS.copy(end - pos)
                    buf.extend(view[pos:end])
            finally:
                if view is not data:
                    view.release()
            return out
        if COPYSTATS.enabled:
            COPYSTATS.copy(len(data))
        buf.extend(data)
        while True:
            frame = self._try_extract()
            if frame is None:
                break
            out.append(frame)
        return out

    def _try_extract(self) -> Optional[bytes]:
        buf = self._parse_buffer
        view = memoryview(buf)
        try:
            extracted = self._extract_at(view, 0, len(buf))
        finally:
            # Released before the resize below, or bytearray raises.
            view.release()
        if extracted is None:
            return None
        payload, consumed = extracted
        del buf[:consumed]
        return payload

    def _extract_at(
        self, view: "memoryview | bytearray", pos: int, end: int
    ) -> Optional[Tuple[bytes, int]]:
        """Parse one frame at ``pos``; return ``(payload, consumed)``.

        Verification runs over sub-views, so the payload copy is the only
        allocation a well-formed frame costs.
        """
        if end - pos < HEADER_BYTES:
            return None
        length, flags = _HEADER.unpack_from(view, pos)
        if length > self.max_message:
            raise BftError(
                f"framed length {length} exceeds max_message "
                f"{self.max_message} (corrupt or hostile stream)"
            )
        has_mac = bool(flags & FLAG_MAC)
        total = HEADER_BYTES + length + (MAC_BYTES if has_mac else 0)
        if end - pos < total:
            return None
        if COPYSTATS.enabled:
            COPYSTATS.copy(length)
        body = pos + HEADER_BYTES
        payload = bytes(view[body : body + length])
        if has_mac:
            if self.auth is None:
                raise BftError("authenticated frame on an unauthenticated link")
            if COPYSTATS.enabled:
                COPYSTATS.copy(MAC_BYTES)
            mac = bytes(view[body + length : pos + total])
            # One update over the contiguous header and payload.
            if not self.auth.verify_parts((view[pos : body + length],), mac):
                self.rejected_count += 1
                raise BftError("HMAC verification failed: message tampered")
        elif self.auth is not None:
            raise BftError("unauthenticated frame on an authenticated link")
        self.decoded_count += 1
        return payload, total

    @property
    def buffered_bytes(self) -> int:
        """Bytes awaiting a complete frame."""
        return len(self._parse_buffer)

    def mac_bytes_for(self, payload_len: int) -> int:
        """How many bytes a MAC computation covers for cost charging."""
        return HEADER_BYTES + payload_len


def split_batches(payloads: List[bytes], batch_size: int) -> List[List[bytes]]:
    """Group payloads into write batches of at most ``batch_size``."""
    return [
        payloads[i : i + batch_size] for i in range(0, len(payloads), batch_size)
    ]
