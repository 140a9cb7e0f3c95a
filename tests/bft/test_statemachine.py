"""State machines: determinism, digests, operation validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bft import BftConfig, CounterMachine, KeyValueStore
from repro.crypto import digest as sha256
from repro.errors import BftError, ConfigurationError


class TestKeyValueStore:
    def test_put_get_roundtrip(self):
        kv = KeyValueStore()
        assert kv.apply(b"PUT name=value") == b"OK"
        assert kv.apply(b"GET name") == b"value"

    def test_get_missing_returns_empty(self):
        assert KeyValueStore().apply(b"GET ghost") == b""

    def test_del_existing_and_missing(self):
        kv = KeyValueStore()
        kv.apply(b"PUT k=v")
        assert kv.apply(b"DEL k") == b"OK"
        assert kv.apply(b"DEL k") == b""
        assert kv.apply(b"GET k") == b""

    def test_put_overwrites(self):
        kv = KeyValueStore()
        kv.apply(b"PUT k=old")
        kv.apply(b"PUT k=new")
        assert kv.apply(b"GET k") == b"new"

    def test_value_may_contain_equals(self):
        kv = KeyValueStore()
        kv.apply(b"PUT url=a=b=c")
        assert kv.apply(b"GET url") == b"a=b=c"

    def test_malformed_operations_rejected(self):
        kv = KeyValueStore()
        with pytest.raises(BftError, match="unknown verb"):
            kv.apply(b"FROB k")
        with pytest.raises(BftError, match="malformed PUT"):
            kv.apply(b"PUT no-equals-sign")
        with pytest.raises(BftError, match="malformed operation"):
            kv.apply(b"\xff\xfe GET")

    def test_digest_reflects_state_not_history(self):
        a, b = KeyValueStore(), KeyValueStore()
        a.apply(b"PUT x=1")
        a.apply(b"PUT y=2")
        b.apply(b"PUT y=2")
        b.apply(b"PUT x=1")
        assert a.digest() == b.digest()  # order-independent state

    def test_digest_and_snapshot_follow_every_apply_and_restore(self):
        """One sorted walk serves both until the state may have changed;
        a digest alone keeps no copy of the state."""
        kv = KeyValueStore()
        kv.apply(b"PUT b=2")
        kv.apply(b"PUT a=1")
        digest = kv.digest()
        assert kv._encoded[2] is None
        blob = kv.snapshot()
        assert blob == (
            b"\x00\x00\x00\x02"
            b"\x00\x00\x00\x01a\x00\x00\x00\x011"
            b"\x00\x00\x00\x01b\x00\x00\x00\x012"
        )
        assert digest == sha256(b"a\x001\x00b\x002\x00")
        assert kv.digest() == digest and kv.snapshot() is blob  # cached
        kv.apply(b"PUT a=3")
        assert kv.digest() != digest and kv.snapshot() != blob
        kv.restore(blob)
        assert (kv.digest(), kv.snapshot()) == (digest, blob)
        with pytest.raises(BftError, match="truncated"):
            kv.restore(blob[:-1])  # refused whole: state and cache stand
        assert (kv.digest(), kv.get("a")) == (digest, "1")

    def test_applied_count(self):
        kv = KeyValueStore()
        kv.apply(b"PUT a=1")
        kv.apply(b"GET a")
        assert kv.applied_count == 2

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["PUT", "GET", "DEL"]),
                st.text(
                    alphabet="abcdef", min_size=1, max_size=4
                ),
            ),
            max_size=30,
        )
    )
    def test_identical_op_streams_produce_identical_digests(self, ops):
        def run():
            kv = KeyValueStore()
            for verb, key in ops:
                operation = (
                    f"PUT {key}={key}" if verb == "PUT" else f"{verb} {key}"
                )
                kv.apply(operation.encode())
            return kv.digest()

        assert run() == run()


class TestCounterMachine:
    def test_add_accumulates(self):
        counter = CounterMachine()
        counter.apply(CounterMachine.add(5))
        result = counter.apply(CounterMachine.add(-2))
        assert counter.value == 3
        assert int.from_bytes(result, "big", signed=True) == 3

    def test_wrong_size_operation_rejected(self):
        with pytest.raises(BftError, match="8 bytes"):
            CounterMachine().apply(b"123")

    def test_digest_tracks_value(self):
        a, b = CounterMachine(), CounterMachine()
        assert a.digest() == b.digest()
        a.apply(CounterMachine.add(1))
        assert a.digest() != b.digest()


class TestBftConfig:
    def test_defaults_valid(self):
        config = BftConfig()
        assert config.f == 1
        assert config.n == 4

    @pytest.mark.parametrize("n,f", [(1, 0), (4, 1), (7, 2), (10, 3)])
    def test_valid_group_sizes(self, n, f):
        assert BftConfig(n=n).f == f

    @pytest.mark.parametrize("n", [0, 2, 3, 5, 6, 8])
    def test_invalid_group_sizes_rejected(self, n):
        with pytest.raises(ConfigurationError):
            BftConfig(n=n)

    def test_log_window_must_exceed_checkpoint_interval(self):
        with pytest.raises(ConfigurationError, match="log_window"):
            BftConfig(checkpoint_interval=100, log_window=100)

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            BftConfig(execution_cost=-1.0)
        with pytest.raises(ConfigurationError):
            BftConfig(handler_cost=-1.0)

    def test_pipeline_count_validated(self):
        with pytest.raises(ConfigurationError):
            BftConfig(pipelines=0)
