"""HMAC authenticators, keystores and cost model."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import MAC_BYTES, CryptoCosts, HmacAuthenticator, KeyStore, digest
from repro.errors import BftError


def test_sign_verify_roundtrip():
    auth = HmacAuthenticator(b"secret-key")
    mac = auth.sign(b"a message")
    assert len(mac) == MAC_BYTES
    assert auth.verify(b"a message", mac)


def test_tampered_message_fails_verification():
    auth = HmacAuthenticator(b"secret-key")
    mac = auth.sign(b"a message")
    assert not auth.verify(b"A message", mac)


def test_tampered_mac_fails_verification():
    auth = HmacAuthenticator(b"secret-key")
    mac = bytearray(auth.sign(b"a message"))
    mac[0] ^= 0xFF
    assert not auth.verify(b"a message", bytes(mac))


def test_different_keys_produce_different_macs():
    a = HmacAuthenticator(b"key-a")
    b = HmacAuthenticator(b"key-b")
    assert a.sign(b"msg") != b.sign(b"msg")


def test_empty_key_rejected():
    with pytest.raises(BftError):
        HmacAuthenticator(b"")


def test_cost_model_scales_with_size():
    costs = CryptoCosts(mac_base=1e-6, mac_per_byte=1e-9)
    assert costs.mac_seconds(0) == pytest.approx(1e-6)
    assert costs.mac_seconds(1000) == pytest.approx(2e-6)


def test_digest_is_sha256():
    import hashlib

    assert digest(b"abc") == hashlib.sha256(b"abc").digest()


class TestKeyStore:
    def test_pairwise_keys_are_symmetric(self):
        ks = KeyStore()
        assert ks.authenticator("r0", "r1") is ks.authenticator("r1", "r0")

    def test_distinct_pairs_get_distinct_keys(self):
        ks = KeyStore()
        mac01 = ks.authenticator("r0", "r1").sign(b"m")
        mac02 = ks.authenticator("r0", "r2").sign(b"m")
        assert mac01 != mac02

    def test_vector_has_one_mac_per_recipient(self):
        ks = KeyStore()
        vector = ks.vector("r0", ["r1", "r2", "r3"], b"prepare")
        assert set(vector) == {"r1", "r2", "r3"}
        for recipient, mac in vector.items():
            assert ks.verify_from("r0", recipient, b"prepare", mac)

    def test_vector_macs_not_transferable(self):
        """r1 cannot replay r0's MAC-for-r1 to convince r2 (PBFT's
        authenticator weakness is at least scoped per recipient)."""
        ks = KeyStore()
        vector = ks.vector("r0", ["r1", "r2"], b"msg")
        assert not ks.verify_from("r0", "r2", b"msg", vector["r1"])

    def test_group_secret_isolates_clusters(self):
        ks1 = KeyStore(b"cluster-1")
        ks2 = KeyStore(b"cluster-2")
        mac = ks1.authenticator("a", "b").sign(b"m")
        assert not ks2.authenticator("a", "b").verify(b"m", mac)


@given(message=st.binary(max_size=1000), key=st.binary(min_size=1, max_size=64))
def test_verify_accepts_only_the_signed_message(message, key):
    auth = HmacAuthenticator(key)
    mac = auth.sign(message)
    assert auth.verify(message, mac)
    assert not auth.verify(message + b"x", mac)


@given(
    key=st.binary(min_size=1, max_size=200),  # beyond sha256's 64-byte block too
    parts=st.lists(st.binary(max_size=300), max_size=6),
)
# Keys one short of, exactly and one past the block (hashed first), long.
@example(key=b"k" * 63, parts=[b"m"])
@example(key=b"k" * 64, parts=[b"m"])
@example(key=b"k" * 65, parts=[b"m"])
@example(key=bytes(range(256)) * 4, parts=[b"", b"m", b""])
def test_macs_are_plain_hmac_sha256_of_the_concatenation(key, parts):
    """The authenticator keeps the inner and outer hash states after the
    RFC 2104 pads and MACs from copies of them; byte for byte that is
    ``hmac.new(key, message, sha256)``."""
    import hashlib
    import hmac

    message = b"".join(parts)
    expected = hmac.new(key, message, hashlib.sha256).digest()[:MAC_BYTES]
    auth = HmacAuthenticator(key)
    assert auth.sign_parts(parts) == expected
    assert auth.sign(message) == expected
    # The pad states are never consumed: sign again, both ways round.
    assert auth.sign_parts([message]) == expected
    assert auth.sign(message + b"x") != expected
    assert auth.verify_parts(parts, expected)
    # The framer verifies one contiguous view of header and payload.
    assert auth.verify_parts((memoryview(message),), expected)
    assert auth.verify(message, expected)
