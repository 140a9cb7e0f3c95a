"""Buffer pools: slices of one demand-zero mapping, final destroy.

A pool's buffers share one mapping, so the properties the channel relies
on — buffers never overlap, the pool is dead after ``destroy()``, the
mapping goes away with its last user — are pinned here.
"""

import mmap
import weakref

import pytest

from repro.errors import RubinError
from repro.rubin.buffer_pool import BufferPool

from tests.rubin.conftest import RubinRig
from tests.rubin.test_channel import read_message, write_all


def make_pool(count, size):
    device = RubinRig().client_dev
    return device, BufferPool(device, device.alloc_pd(), count, size, name="t")


class TestPoolSlices:
    # 100-byte buffers share pages; 4 KiB buffers are page-aligned.
    @pytest.mark.parametrize("size", [100, 4096])
    def test_buffers_never_overlap(self, size):
        _device, pool = make_pool(64, size)
        buffers = [pool.acquire() for _ in range(64)]
        assert pool.try_acquire() is None
        for index, pooled in enumerate(buffers):
            assert len(pooled.data) == size
            assert not pooled.data.readonly
            assert bytes(pooled.data) == bytes(size)  # demand-zero
            pooled.data[:] = bytes([index + 1]) * size
        # Every buffer still holds its own fill: a write through buffer
        # i reached neither i - 1 nor i + 1.
        for index, pooled in enumerate(buffers):
            assert bytes(pooled.data) == bytes([index + 1]) * size

    def test_one_mapping_per_pool_created_on_first_acquire(self):
        _device, pool = make_pool(64, 4096)
        assert pool._memory is None
        buffers = [pool.acquire() for _ in range(64)]
        mappings = {id(pooled.data.obj) for pooled in buffers}
        assert len(mappings) == 1
        assert isinstance(buffers[0].data.obj, mmap.mmap)


class TestDestroy:
    def test_destroyed_pool_refuses_to_lend(self):
        device, pool = make_pool(4, 1024)
        held = pool.acquire()
        pool.destroy()
        assert pool.available == 0
        assert device.find_mr(held.mr.rkey) is None
        with pytest.raises(RubinError, match="destroyed"):
            pool.try_acquire()
        with pytest.raises(RubinError, match="destroyed"):
            pool.acquire()
        held.release()  # a late return is harmless and re-lends nothing
        assert pool.available == 0

    def test_destroy_before_first_acquire(self):
        """The zero-copy send pool's case: nothing materialized yet."""
        device, pool = make_pool(64, 1024)
        registered = len(device._mrs)
        pool.destroy()
        assert pool.available == 0
        with pytest.raises(RubinError, match="destroyed"):
            pool.try_acquire()
        assert len(device._mrs) == registered

    def test_mapping_is_unmapped_with_its_last_buffer(self):
        _device, pool = make_pool(4, 1024)
        held = pool.acquire()
        pool.acquire().release()
        mapping = weakref.ref(held.data.obj)
        pool.destroy()
        assert mapping() is not None  # still on loan
        del held
        assert mapping() is None


class TestChannelRelease:
    @staticmethod
    def recv_mapping(channel):
        return weakref.ref(next(iter(channel._recv_wr_map.values())).data.obj)

    def test_close_gives_the_pools_back(self, rig):
        client, server = rig.establish()
        mapping = self.recv_mapping(client)
        client.close()
        assert client.recv_pool.available == 0
        assert client.send_pool.available == 0
        # The flushed receives were forgotten with the pool: nothing on
        # the (still referenced) channel keeps the mapping alive.
        assert mapping() is None
        assert self.recv_mapping(server)() is not None  # peer untouched

    def test_message_received_before_close_is_still_readable(self, rig):
        client, server = rig.establish()
        payload = bytes(range(256)) * 8
        rig.env.run(until=write_all(rig, server, payload))
        rig.run_for(1e-3)  # delivered, completion queued, not yet read
        client.close()
        assert rig.env.run(until=read_message(rig, client, len(payload))) == payload

    def test_accepted_channel_releases_on_error(self, rig):
        _client, server = rig.establish()
        mapping = self.recv_mapping(server)
        server.qp._enter_error()
        assert server.errored
        assert mapping() is None
        with pytest.raises(RubinError, match="re-dial"):
            server.reconnect()

    def test_dialed_channel_keeps_its_pools_across_an_error(self, rig):
        client, _server = rig.establish()
        mapping = self.recv_mapping(client)
        client.qp._enter_error()
        assert client.errored
        assert mapping() is not None  # reconnect() re-posts from them
