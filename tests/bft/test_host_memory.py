"""Host memory of a RUBIN cluster is proportional to the bytes it touches.

The default 4-replica / 4-client RUBIN cluster pre-registers 44 receive
pools of 64 x 128 KiB — 352 MiB of *modeled* registered memory.  The host
must not pay for it up front, must register exactly the regions it always
did (lkeys/rkeys are on the wire), and must give a dead channel's pool
back when crashes and redials replace it.
"""

import hashlib
import os
import sys
import tracemalloc
import weakref

from repro.bft import BftCluster
from repro.rdma.device import RdmaDevice
from repro.rubin import buffer_pool

from tests.bft.test_recovery import make_cluster

MIB = 1 << 20


def resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


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
    for cycle in range(4):
        assert cluster.invoke_and_wait(f"PUT a{cycle}=1".encode()) == b"OK"
        cluster.crash_replica("r2")
        cluster.run_for(30e-3)
        assert cluster.invoke_and_wait(f"PUT b{cycle}=1".encode()) == b"OK"
        cluster.restart_replica("r2")
        cluster.run_for(400e-3)
        # Every cycle maps fresh pools for r2's new channels; the pools
        # of the channels they replace must be gone by then.
        assert live() <= at_start
    assert len(mappings) > at_start
    assert len(set(cluster.state_digests().values())) == 1
