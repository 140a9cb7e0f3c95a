"""Replicated state machines executed by the BFT core.

"In the execution stage, the replicated service uses the ordered requests
provided by the agreement stage as input, executes the client operations,
and finally sends a reply to the clients" (paper, Section II-B).

The interface is deliberately tiny: deterministic ``apply`` plus a state
``digest`` for checkpoints.  Two ready-made machines cover the tests and
examples; the permissioned blockchain of :mod:`repro.chain` is a third
implementation.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Optional, Protocol, Tuple

from repro.crypto import digest as sha256
from repro.errors import BftError

__all__ = ["StateMachine", "KeyValueStore", "CounterMachine"]


class StateMachine(Protocol):
    """What the BFT execution stage needs from a service."""

    def apply(self, operation: bytes) -> bytes:
        """Execute one operation deterministically; returns the result."""
        ...  # pragma: no cover - protocol

    def digest(self) -> bytes:
        """Digest of the full current state (for checkpoints)."""
        ...  # pragma: no cover - protocol

    def snapshot(self) -> bytes:
        """Opaque serialization of the full state (for state transfer)."""
        ...  # pragma: no cover - protocol

    def restore(self, blob: bytes) -> None:
        """Replace the full state with a :meth:`snapshot` blob."""
        ...  # pragma: no cover - protocol


class KeyValueStore:
    """A string key/value store with GET/PUT/DEL operations.

    Operation wire format (all UTF-8):

    * ``PUT <key>=<value>`` -> returns ``b"OK"``
    * ``GET <key>``         -> returns the value or ``b""``
    * ``DEL <key>``         -> returns ``b"OK"`` or ``b""`` if absent
    """

    def __init__(self):
        self._data: Dict[str, str] = {}
        self.applied_count = 0
        #: Bumped by every apply and restore; names the state the cached
        #: encoding was taken of.
        self._version = 0
        self._encoded: Tuple[int, bytes, Optional[bytes]] = (-1, b"", None)

    def apply(self, operation: bytes) -> bytes:
        self._version += 1
        try:
            text = operation.decode()
            verb, _, rest = text.partition(" ")
        except UnicodeDecodeError as exc:
            raise BftError(f"malformed operation: {exc}") from None
        self.applied_count += 1
        if verb == "PUT":
            key, sep, value = rest.partition("=")
            if not sep:
                raise BftError(f"malformed PUT {rest!r}")
            self._data[key] = value
            return b"OK"
        if verb == "GET":
            return self._data.get(rest, "").encode()
        if verb == "DEL":
            return b"OK" if self._data.pop(rest, None) is not None else b""
        raise BftError(f"unknown verb {verb!r}")

    def _encode(self, snapshot: bool) -> Tuple[int, bytes, Optional[bytes]]:
        """(version, digest, snapshot or None) of the current state.

        One sorted walk yields the digest and, when asked, the snapshot
        as well, and both are kept until the next apply or restore: a
        checkpoint takes the snapshot, then the digest, and walks once.
        A digest on its own keeps no copy of the state.
        """
        encoded = self._encoded
        if encoded[0] == self._version and (
            encoded[2] is not None or not snapshot
        ):
            return encoded
        data = self._data
        hasher = hashlib.sha256()
        out = bytearray(struct.pack(">I", len(data))) if snapshot else None
        for key in sorted(data):
            key_bytes = key.encode()
            value_bytes = data[key].encode()
            hasher.update(key_bytes + b"\0" + value_bytes + b"\0")
            if out is not None:
                out += struct.pack(">I", len(key_bytes))
                out += key_bytes
                out += struct.pack(">I", len(value_bytes))
                out += value_bytes
        encoded = self._encoded = (
            self._version,
            hasher.digest(),
            None if out is None else bytes(out),
        )
        return encoded

    def digest(self) -> bytes:
        """sha256 over ``key NUL value NUL`` in sorted key order."""
        return self._encode(snapshot=False)[1]

    def snapshot(self) -> bytes:
        """Length-prefixed key/value pairs in sorted order."""
        return self._encode(snapshot=True)[2]

    def restore(self, blob: bytes) -> None:
        pos = 0

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > len(blob):
                raise BftError("truncated snapshot")
            out = blob[pos : pos + n]
            pos += n
            return out

        (count,) = struct.unpack(">I", take(4))
        data: Dict[str, str] = {}
        for _ in range(count):
            (key_len,) = struct.unpack(">I", take(4))
            key = take(key_len).decode()
            (value_len,) = struct.unpack(">I", take(4))
            data[key] = take(value_len).decode()
        if pos != len(blob):
            raise BftError("trailing bytes in snapshot")
        self._data = data
        self._version += 1

    def get(self, key: str) -> str | None:
        """Direct (non-replicated) state access for assertions."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)


class CounterMachine:
    """A single integer register supporting ADD deltas.

    Operation format: 8-byte big-endian signed delta; result is the new
    value as 8-byte big-endian.  Useful for checking that all replicas
    executed the same operations in the same order.
    """

    _I64 = struct.Struct(">q")

    def __init__(self):
        self.value = 0
        self.applied_count = 0

    def apply(self, operation: bytes) -> bytes:
        if len(operation) != 8:
            raise BftError(f"counter op must be 8 bytes, got {len(operation)}")
        (delta,) = self._I64.unpack(operation)
        self.value += delta
        self.applied_count += 1
        return self._I64.pack(self.value)

    def digest(self) -> bytes:
        return sha256(self._I64.pack(self.value))

    def snapshot(self) -> bytes:
        return self._I64.pack(self.value)

    def restore(self, blob: bytes) -> None:
        if len(blob) != 8:
            raise BftError(f"counter snapshot must be 8 bytes, got {len(blob)}")
        (self.value,) = self._I64.unpack(blob)

    @classmethod
    def add(cls, delta: int) -> bytes:
        """Build an ADD operation."""
        return cls._I64.pack(delta)
