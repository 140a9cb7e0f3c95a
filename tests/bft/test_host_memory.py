"""Host memory of a RUBIN cluster is proportional to the bytes it holds.

The default 4-replica / 4-client RUBIN cluster pre-registers 44 receive
pools of 64 x 128 KiB — 352 MiB of *modeled* registered memory.  The host
must not pay for it up front, must register exactly the regions it always
did (lkeys/rkeys are on the wire), must give a dead channel's pool and
registrations back when crashes and redials replace it, and must not keep
the pages of messages already read, nor request batches below the stable
checkpoint.
"""

import ctypes
import hashlib
import mmap
import os
import struct
import sys
import tracemalloc
import weakref

import pytest

from repro.bft import BftCluster, BftConfig
from repro.rdma.device import RdmaDevice
from repro.rubin import buffer_pool
from repro.rubin import channel as rubin_channel

from tests.bft.test_recovery import make_cluster

MIB = 1 << 20


def resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def record_channels(monkeypatch):
    """Weak references to every RUBIN channel made from now on."""
    made = []
    init = rubin_channel.RubinChannel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(rubin_channel.RubinChannel, "__init__", recording_init)
    return made


def live_channels(made):
    """Recorded channels whose pools are still mapped."""
    channels = (ref() for ref in made)
    return [
        ch for ch in channels if ch is not None and ch.recv_pool._memory is not None
    ]


def crash_redial_cycles(cluster, cycles=4):
    """Crash and restart r2 ``cycles`` times; yields after each cycle."""
    for cycle in range(cycles):
        assert cluster.invoke_and_wait(f"PUT a{cycle}=1".encode()) == b"OK"
        cluster.crash_replica("r2")
        cluster.run_for(30e-3)
        assert cluster.invoke_and_wait(f"PUT b{cycle}=1".encode()) == b"OK"
        cluster.restart_replica("r2")
        cluster.run_for(400e-3)
        yield cycle


def test_start_does_not_pay_for_untouched_receive_buffers():
    linux = sys.platform.startswith("linux")
    before = resident_bytes() if linux else 0
    tracemalloc.start()
    try:
        BftCluster(transport="rubin", num_clients=4).start()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * MIB
    if linux:
        assert resident_bytes() - before < 64 * MIB


def test_start_registers_the_same_regions_in_the_same_order(monkeypatch):
    """MR count, order, size, access and key sequence of the default
    cluster, pinned from the eager ``bytearray`` implementation."""
    registered = []
    reg_mr = RdmaDevice.reg_mr

    def recording_reg_mr(self, pd, buffer, *args, **kwargs):
        mr = reg_mr(self, pd, buffer, *args, **kwargs)
        registered.append((self.name, mr.length, int(mr.access), mr.lkey, mr.rkey))
        return mr

    monkeypatch.setattr(RdmaDevice, "reg_mr", recording_reg_mr)
    BftCluster(transport="rubin", num_clients=4).start()

    assert len(registered) == 44 * 64
    base = registered[0][3]  # keys come from a process-wide counter
    digest = hashlib.sha256()
    for name, length, access, lkey, rkey in registered:
        digest.update(f"{name}:{length}:{access}:{lkey - base}:{rkey - base};".encode())
    assert digest.hexdigest() == (
        "8eb853eb58da7e9774f7ea0a27e6a425db1fada715f7ec3803513d612ba19ea5"
    )


def test_crash_redial_cycles_do_not_accumulate_pool_mappings(monkeypatch):
    mappings = []
    alloc = buffer_pool.alloc_registered

    def recording_alloc(nbytes):
        view = alloc(nbytes)
        mappings.append(weakref.ref(view.obj))
        return view

    monkeypatch.setattr(buffer_pool, "alloc_registered", recording_alloc)

    def live():
        return sum(1 for mapping in mappings if mapping() is not None)

    cluster = make_cluster()
    at_start = live()
    for _cycle in crash_redial_cycles(cluster):
        # Every cycle maps fresh pools for r2's new channels; the pools
        # of the channels they replace must be gone by then.
        assert live() <= at_start
    assert len(mappings) > at_start
    assert len(set(cluster.state_digests().values())) == 1


def test_crash_redial_cycles_do_not_leak_registrations(monkeypatch):
    """A closed channel deregisters its staging buffers with its pools;
    a dialed channel waiting to re-dial keeps both."""
    made = record_channels(monkeypatch)
    cluster = make_cluster()
    devices = [host.stack("rdma") for host in cluster.fabric.hosts()]
    for _cycle in crash_redial_cycles(cluster):
        held = set()
        for ch in live_channels(made):
            for pool in (ch.recv_pool, ch.send_pool):
                held.update(pooled.mr.rkey for pooled in pool._buffers)
            held.update(mr.rkey for mr in ch._app_mr_cache.values())
        registered = {rkey for device in devices for rkey in device._mrs}
        assert registered == held
    assert len(live_channels(made)) < len(made)  # some channels were released


def resident_pages(mapping) -> list:
    """Present bit of each page of ``mapping`` (``/proc/self/pagemap``)."""
    page = mmap.PAGESIZE
    address = ctypes.addressof(ctypes.c_char.from_buffer(mapping))
    count = len(mapping) // page
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(address // page * 8)
        entries = struct.unpack(f"<{count}Q", pagemap.read(count * 8))
    return [bool(entry >> 63) for entry in entries]


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(mmap, "MADV_DONTNEED")),
    reason="reads page residency from /proc/self/pagemap",
)
def test_read_receive_buffers_give_their_pages_back(monkeypatch):
    """After 80 PUTs each channel holds pages only in the buffers not
    yet re-posted, the last buffer of each repost batch (exempt for a
    view read from it), and buffers whose message is still unread."""
    made = record_channels(monkeypatch)
    cluster = BftCluster(transport="rubin")
    cluster.start()
    for i in range(80):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    cluster.run_for(5e-3)
    recycled = 0
    for ch in live_channels(made):
        pool = ch.recv_pool
        pages = resident_pages(pool._memory.obj)
        per_buffer = pool.buffer_size // mmap.PAGESIZE
        holding = sum(
            1
            for index in range(pool.capacity)
            if any(pages[index * per_buffer : (index + 1) * per_buffer])
        )
        batch = ch.config.post_batch
        unread = len(ch._ready_messages) + len(ch.recv_cq._entries)
        assert holding <= (batch - 1) + -(-pool.capacity // batch) + unread
        # Receive work requests posted so far: every buffer has carried
        # a message once this passes twice the pool.
        recycled += max(ch._recv_wr_map) > 2 * pool.capacity
    assert recycled > 0


@pytest.mark.parametrize("group_count", [1, 4])
def test_request_batches_go_at_the_stable_checkpoint(group_count):
    cluster = BftCluster(
        transport="rubin",
        num_clients=1,
        config=BftConfig(
            group_count=group_count,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
        ),
    )
    cluster.start()
    for i in range(32):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    logs = [
        pipeline.log
        for replica in cluster.replicas.values()
        for pipeline in replica.group_pipelines()
    ]
    assert all(log.stable_seq > 0 for log in logs)
    for log in logs:
        assert all(seq > log.stable_seq for seq in log.batches)
        assert len(log.batches) <= log.window
