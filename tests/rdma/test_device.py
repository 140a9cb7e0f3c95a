"""Device factories, limits, and memory-region lifecycle."""

from array import array

import pytest

from repro.errors import RdmaError
from repro.net import Fabric
from repro.rdma import (
    Access,
    DeviceAttributes,
    QpCapabilities,
    RdmaDevice,
    alloc_registered,
)
from repro.sim import Environment


@pytest.fixture
def device():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_host("solo")
    return RdmaDevice(fabric.host("solo"))


class TestAttributes:
    def test_defaults_sane(self):
        attrs = DeviceAttributes()
        assert attrs.mtu == 4096
        assert attrs.max_inline == 256
        assert attrs.gather_setup > 0

    def test_tiny_mtu_rejected(self):
        with pytest.raises(RdmaError, match="mtu"):
            DeviceAttributes(mtu=16)

    def test_zero_post_batch_rejected(self):
        with pytest.raises(RdmaError, match="max_post_batch"):
            DeviceAttributes(max_post_batch=0)


class TestFactories:
    def test_cq_capacity_bounded_by_device(self, device):
        with pytest.raises(RdmaError, match="exceeds device limit"):
            device.create_cq(capacity=device.attrs.max_cq_entries + 1)

    def test_qp_send_queue_bounded_by_device(self, device):
        pd = device.alloc_pd()
        cq = device.create_cq()
        with pytest.raises(RdmaError, match="max_send_wr"):
            device.create_qp(
                pd, cq, cq, QpCapabilities(max_send_wr=device.attrs.max_qp_wr + 1)
            )

    def test_qp_inline_bounded_by_device(self, device):
        pd = device.alloc_pd()
        cq = device.create_cq()
        with pytest.raises(RdmaError, match="max_inline"):
            device.create_qp(pd, cq, cq, QpCapabilities(max_inline=100_000))

    def test_qp_lookup(self, device):
        pd = device.alloc_pd()
        cq = device.create_cq()
        qp = device.create_qp(pd, cq, cq)
        assert device.qp(qp.qp_num) is qp
        with pytest.raises(RdmaError, match="no QP"):
            device.qp(999999)

    def test_foreign_pd_rejected_for_mr(self, device):
        env2 = Environment()
        fabric2 = Fabric(env2)
        fabric2.add_host("other")
        other = RdmaDevice(fabric2.host("other"))
        foreign_pd = other.alloc_pd()
        with pytest.raises(RdmaError, match="another device"):
            device.reg_mr(foreign_pd, bytearray(64))

    def test_invalid_qp_caps_rejected(self):
        with pytest.raises(RdmaError):
            QpCapabilities(max_send_wr=0)
        with pytest.raises(RdmaError):
            QpCapabilities(rnr_timer=0.0)


class TestMemoryRegions:
    def test_register_and_lookup_by_rkey(self, device):
        pd = device.alloc_pd()
        mr = device.reg_mr(pd, bytearray(128))
        assert device.find_mr(mr.rkey) is mr
        assert device.find_mr(None) is None
        assert device.find_mr(0xBAD) is None

    def test_deregister_invalidates(self, device):
        pd = device.alloc_pd()
        mr = device.reg_mr(pd, bytearray(128))
        device.dereg_mr(mr)
        assert mr.invalidated
        assert device.find_mr(mr.rkey) is None
        with pytest.raises(RdmaError, match="invalidated"):
            mr.check_local_read(0, 1)

    def test_keys_are_unique(self, device):
        pd = device.alloc_pd()
        a = device.reg_mr(pd, bytearray(8))
        b = device.reg_mr(pd, bytearray(8))
        assert a.lkey != b.lkey
        assert a.rkey != b.rkey
        assert a.lkey != a.rkey

    def test_mr_requires_mutable_buffer(self, device):
        pd = device.alloc_pd()
        with pytest.raises(RdmaError, match="mutable"):
            device.reg_mr(pd, b"immutable")  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "buffer",
        [
            memoryview(bytearray(8)).toreadonly(),
            memoryview(bytearray(8))[::2],  # not contiguous
            memoryview(array("i", [1, 2])),  # not bytes
            "text",
        ],
        ids=["readonly", "strided", "int-items", "str"],
    )
    def test_mr_rejects_buffers_the_rnic_cannot_dma(self, device, buffer):
        pd = device.alloc_pd()
        with pytest.raises(RdmaError, match="mutable"):
            device.reg_mr(pd, buffer)

    def test_mr_wraps_a_writable_view_in_place(self, device):
        pd = device.alloc_pd()
        backing = bytearray(16)
        mr = device.reg_mr(pd, memoryview(backing)[4:12])
        assert mr.length == 8
        mr.write_bytes(2, b"dma")
        assert bytes(backing) == bytes(6) + b"dma" + bytes(7)
        assert mr.read_bytes(2, 3) == b"dma"
        with pytest.raises(RdmaError, match="outside"):
            mr.check_local_write(6, 3)

    def test_alloc_registered_is_zeroed_writable_bytes(self, device):
        memory = alloc_registered(3 * 4096 + 1)
        assert len(memory) == 3 * 4096 + 1
        assert not any(memory)
        mr = device.reg_mr(device.alloc_pd(), memory[4096:8192])
        mr.write_bytes(0, b"x")
        assert memory[4095:4098] == b"\0x\0"

    def test_timed_registration_charges_cpu(self, device):
        pd = device.alloc_pd()
        env = device.env
        start = env.now
        done = device.reg_mr_timed(pd, bytearray(1 << 20))  # 256 pages
        mr = env.run(until=done)
        assert mr.length == 1 << 20
        elapsed = env.now - start
        small_start = env.now
        done = device.reg_mr_timed(pd, bytearray(4096))  # 1 page
        env.run(until=done)
        assert elapsed > (env.now - small_start)  # cost scales with pages

    def test_remote_access_checks(self, device):
        pd = device.alloc_pd()
        mr = device.reg_mr(pd, bytearray(64), Access.LOCAL_WRITE | Access.REMOTE_READ)
        mr.check_remote(mr.rkey, 0, 64, write=False)
        with pytest.raises(RdmaError, match="REMOTE_WRITE"):
            mr.check_remote(mr.rkey, 0, 64, write=True)
        with pytest.raises(RdmaError, match="rkey mismatch"):
            mr.check_remote(mr.rkey + 1, 0, 64, write=False)
        with pytest.raises(RdmaError, match="outside"):
            mr.check_remote(mr.rkey, 60, 8, write=False)
