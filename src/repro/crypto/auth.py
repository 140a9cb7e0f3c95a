"""HMAC authenticators and digests with a CPU cost model.

MACs are computed for real (HMAC-SHA256, truncated) so integrity tests
exercise genuine verification, while the *time* they take on a replica's
CPU comes from :class:`CryptoCosts` — hashing throughput on the paper's
Xeon v2 class hardware is roughly 1.5 GB/s per core with a sub-microsecond
fixed cost per invocation.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import BftError, ConfigurationError

__all__ = ["MAC_BYTES", "CryptoCosts", "HmacAuthenticator", "KeyStore", "digest"]

#: Truncated MAC length carried on the wire (16 B, like PBFT).
MAC_BYTES = 16

#: SHA-256's block size, and the RFC 2104 pads XORed into the block-sized
#: key: the inner hash starts from ``key ^ ipad``, the outer from
#: ``key ^ opad``.
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def digest(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (used for request/batch identifiers)."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class CryptoCosts:
    """CPU cost of MAC/digest operations (seconds / seconds-per-byte)."""

    mac_base: float = 0.4e-6
    mac_per_byte: float = 0.65e-9

    def __post_init__(self) -> None:
        if self.mac_base < 0 or self.mac_per_byte < 0:
            raise ConfigurationError("crypto costs must be >= 0")

    def mac_seconds(self, nbytes: int) -> float:
        """CPU seconds to MAC (or verify) ``nbytes``."""
        return self.mac_base + self.mac_per_byte * nbytes


#: Host-side memo of recently signed messages per authenticator.  The
#: echo benchmarks sign the same (key, message) pair on every round trip;
#: recomputing HMAC-SHA256 for them dominates host profile at large
#: payloads.  Purely a host optimization: the *modeled* MAC cost is
#: charged by callers via :meth:`HmacAuthenticator.cost_seconds`
#: regardless of whether the digest came from the memo.
_SIGN_MEMO_MAX = 256


class HmacAuthenticator:
    """Symmetric-key authenticator between two parties.

    HMAC-SHA256 (RFC 2104) from two precomputed hash states: the inner
    hash after absorbing ``key ^ ipad`` and the outer after ``key ^
    opad``.  A MAC copies both, so it costs the hashing of the message and
    one 32-byte digest, the same bytes as ``hmac.new(key, message,
    hashlib.sha256)``.
    """

    def __init__(self, key: bytes, costs: CryptoCosts | None = None):
        if not key:
            raise BftError("authenticator key must be non-empty")
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))
        self.costs = costs if costs is not None else CryptoCosts()
        # Bounded FIFO memo (insertion-ordered dict).  Keyed on the message
        # alone: the key is fixed per authenticator instance.
        self._sign_memo: Dict[bytes, bytes] = {}

    def sign(self, message: bytes) -> bytes:
        """Compute the truncated MAC of ``message``."""
        if not isinstance(message, bytes):
            message = bytes(message)
        memo = self._sign_memo
        mac = memo.get(message)
        if mac is None:
            mac = self.sign_parts((message,))
            if len(memo) >= _SIGN_MEMO_MAX:
                del memo[next(iter(memo))]
            memo[message] = mac
        return mac

    def sign_parts(self, parts) -> bytes:
        """MAC of the concatenation of ``parts`` without materializing it.

        Accepts any iterable of bytes-like objects; equivalent to
        ``sign(b"".join(parts))`` but feeds the HMAC incrementally so the
        zero-copy framing path never builds the joined message.
        """
        inner = self._inner.copy()
        for part in parts:
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:MAC_BYTES]

    def verify(self, message: bytes, mac: bytes) -> bool:
        """Constant-time check of ``mac`` against ``message``."""
        return _hmac.compare_digest(self.sign(message), mac)

    def verify_parts(self, parts, mac: bytes) -> bool:
        """Constant-time check of ``mac`` against concatenated ``parts``."""
        return _hmac.compare_digest(self.sign_parts(parts), mac)

    def cost_seconds(self, nbytes: int) -> float:
        """CPU time to charge for signing/verifying ``nbytes``."""
        return self.costs.mac_seconds(nbytes)


class KeyStore:
    """Pairwise session keys for a group of named parties.

    PBFT authenticates every replica pair (and client-replica pair) with a
    shared secret; an *authenticator vector* on a broadcast message is one
    MAC per recipient.  The keystore derives deterministic per-pair keys
    from a group secret — adequate for a simulation (no real key exchange
    is modeled) while keeping every MAC genuinely verifiable.
    """

    def __init__(self, group_secret: bytes = b"repro-group-secret"):
        if not group_secret:
            raise BftError("group secret must be non-empty")
        self._secret = group_secret
        self._cache: Dict[Tuple[str, str], HmacAuthenticator] = {}

    def authenticator(self, a: str, b: str) -> HmacAuthenticator:
        """The (symmetric) authenticator between parties ``a`` and ``b``."""
        pair = (a, b) if a <= b else (b, a)
        auth = self._cache.get(pair)
        if auth is None:
            key = _hmac.new(
                self._secret, f"{pair[0]}|{pair[1]}".encode(), hashlib.sha256
            ).digest()
            auth = HmacAuthenticator(key)
            self._cache[pair] = auth
        return auth

    def vector(self, sender: str, recipients: list[str], message: bytes) -> dict:
        """An authenticator vector: one MAC per recipient."""
        return {
            recipient: self.authenticator(sender, recipient).sign(message)
            for recipient in recipients
        }

    def verify_from(self, sender: str, me: str, message: bytes, mac: bytes) -> bool:
        """Verify ``sender``'s MAC addressed to ``me``."""
        return self.authenticator(sender, me).verify(message, mac)
