"""The RNIC's callback pipelines arm the agenda as the Drive loops did.

The device's rx pipeline and the QP's send pipeline were generator loops
under ``repro.sim.Drive``, waiting on a ``StoreGet`` and ``Timeout``
events; they are callback machines on bare entries now.  Each bare entry
takes its id at the statement where the event it replaces took one, so
every served entry keeps its ``(time, id)``.  These tests record what the
run loop serves over a 40-PUT RUBIN run and a 20-message channel echo and
hold it to:

* the loops kept in ``reference_pipelines`` (the pipelines' own entries,
  and everything else), and
* the whole agenda of the tree before bare entries existed, as a sha256
  of its ``(time, id)`` sequence — which any entry armed one statement
  early or late anywhere changes.
"""

import hashlib
import heapq

import pytest

from repro.bench.echo import run_echo
from repro.bft import BftCluster, BftConfig
from repro.errors import SimulationError
from repro.rdma.device import RdmaDevice
from repro.rdma.qp import QueuePair
from repro.sim import Drive, Environment, Infinity
from tests.rdma import reference_pipelines

#: sha256 of the ``(time, id)`` of every served entry, as the tree whose
#: RNIC pipelines ran under Drive and whose timers, grants and hand-overs
#: were all events served them.
AGENDA_DIGESTS = {
    "rubin_puts": "63e204dc1874f6f50b8aa36b7e345c95fef4c822a2e7ea6cf8196b82783be5a7",
    "echo": "75a11e4e88a7fa15942f685e2f5640b6166ded61ee6c3176605d922c94c480c2",
}


def _is_pipeline(entry) -> bool:
    """Whether the entry is one the RNIC pipelines wait on."""
    if entry[3] is None:
        callback = entry[4]
    else:
        callbacks = entry[3].callbacks
        if not callbacks:
            return False
        callback = callbacks[0]
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, (RdmaDevice, QueuePair)):
        return True
    return isinstance(owner, Drive) and owner._generator.__name__ in (
        "rx_loop",
        "sq_loop",
    )


def _recording_loop(served):
    """``Environment._run_loop`` with each served entry noted.

    ``step()``'s order (starts first unless a delayed URGENT entry fell
    due, then the lanes merged by full key), in one loop.
    """

    def run_loop(self, stop_event, stop_at):
        urgent, dq, far = self._urgent, self._dq, self._far
        while True:
            if urgent and (not far or far[0][1] or far[0][0] > self._now):
                urgent.popleft()()
            else:
                if dq and not (far and far[0] < dq[0]):
                    entry = dq.popleft()
                elif far:
                    if stop_event is None and far[0][0] > stop_at:
                        self._now = stop_at
                        return None
                    entry = heapq.heappop(far)
                else:
                    break
                served.append((entry[0], entry[2], _is_pipeline(entry)))
                self._now = entry[0]
                if entry[3] is None:
                    entry[4](entry[5])
                else:
                    self._fire(entry[3])
            if stop_event is not None and stop_event.callbacks is None:
                if stop_event._ok:
                    return stop_event._value
                stop_event._defused = True
                raise stop_event._value
        if stop_event is not None:
            raise SimulationError("ran out of events")
        if stop_at is not Infinity:
            self._now = stop_at
        return None

    return run_loop


def _rubin_puts():
    cluster = BftCluster(
        transport="rubin", config=BftConfig(batch_size=1, batch_delay=0.0)
    )
    cluster.start()
    for i in range(40):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"


def _echo():
    assert len(run_echo("rdma_channel", 32 * 1024, 20).latencies_us) == 20


WORKLOADS = {"rubin_puts": _rubin_puts, "echo": _echo}


def _served(monkeypatch, workload, reference):
    served = []
    with monkeypatch.context() as patch:
        patch.setattr(Environment, "_run_loop", _recording_loop(served))
        if reference:
            reference_pipelines.install(patch)
        WORKLOADS[workload]()
    return served


def _digest(served) -> str:
    text = ";".join(f"{when!r},{eid}" for when, eid, _pipeline in served)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rnic_pipelines_serve_what_the_drive_loops_did(monkeypatch, workload):
    served = _served(monkeypatch, workload, reference=False)
    expected = _served(monkeypatch, workload, reference=True)
    pipeline = [(when, eid) for when, eid, mine in served if mine]
    assert pipeline == [(when, eid) for when, eid, mine in expected if mine]
    # Packets arrive and leave through both pipelines.
    assert len(pipeline) >= 800
    assert served == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_entry_keeps_its_time_and_id(monkeypatch, workload):
    assert _digest(_served(monkeypatch, workload, reference=False)) == (
        AGENDA_DIGESTS[workload]
    )
