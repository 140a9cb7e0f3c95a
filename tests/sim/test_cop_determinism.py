"""COP degenerate-case fingerprints: ``group_count=1`` moves no event.

Consensus-oriented parallelization lives inside ``Replica`` and
``BftClient`` and promises an *exact* degenerate case: with one
consensus group they must schedule the very same agenda entries, in the
same order, as the sequential pipeline always did.  These tests replay
the pinned schedule fingerprints from ``test_fastpath_determinism``
through the chaos and overload runs — a digest mismatch means some COP
code path created, delayed or reordered an event at G=1.

A fifth digest pins the G=4 multi-group chaos schedule itself, so COP
changes that reshuffle the parallel pipelines are caught the same way.
"""

import hashlib

from repro.bench.echo import run_echo
from repro.bench.overload import run_overload
from repro.bench.selector_echo import reptor_echo
from repro.bft import BftCluster, BftConfig
from repro.rubin import RubinConfig

from tests.sim.test_fastpath_determinism import (
    CHAOS_DIGEST,
    FIG3_POINT_DIGEST,
    FIG4_POINT_DIGEST,
    OVERLOAD_DIGEST,
    _digest,
    _echo_fingerprint,
)

# The G=4 variant of the chaos run (crash + rejoin of r2 across four
# ordering groups on a faulty fabric), recorded when the COP subsystem
# landed.  Pins the group mux, the round-robin merge, merge-stall
# fillers and the coordinated multi-group state transfer.
COP_CHAOS_G4_DIGEST = (
    "4517060585bc6a014a6686bb3613317c398b984436177de806c8a5c981dd1f5e"
)


def _chaos_run(group_count: int, settle_s: float, tail_s: float) -> str:
    cluster = BftCluster(
        transport="rubin",
        config=BftConfig(
            group_count=group_count,
            view_change_timeout=80e-3,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
        ),
        rubin_config=RubinConfig(retry_timeout=1e-3, retry_count=3),
        faulty_fabric=True,
    )
    cluster.start()
    times = []
    for i in range(6):
        assert cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
        times.append(round(cluster.env.now, 12))
    cluster.crash_replica("r2")
    cluster.run_for(30e-3)
    for i in range(6, 12):
        assert cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
        times.append(round(cluster.env.now, 12))
    cluster.restart_replica("r2")
    cluster.run_for(settle_s)
    cluster.invoke_and_wait(b"PUT after=rejoin")
    times.append(round(cluster.env.now, 12))
    cluster.run_for(tail_s)
    if group_count == 1:
        positions = sorted(cluster.executed_sequences().items())
    else:
        positions = sorted(cluster.merged_positions().items())
    return _digest(
        (
            times,
            positions,
            sorted((k, v.hex()) for k, v in cluster.state_digests().items()),
        )
    )


def test_fig3_point_unchanged_with_cop_loaded():
    """The Fig-3 echo schedule is untouched by the COP subsystem."""
    result = run_echo("rdma_channel", 10 * 1024, 20)
    assert _echo_fingerprint(result) == FIG3_POINT_DIGEST


def test_fig4_point_unchanged_with_cop_loaded():
    """The Fig-4 selector-echo schedule is untouched by the COP subsystem."""
    result = reptor_echo("rubin", 20 * 1024, 30)
    assert _echo_fingerprint(result) == FIG4_POINT_DIGEST


def test_chaos_schedule_bit_identical_at_group_count_one():
    """The G=1 chaos run replays the pinned sequential schedule."""
    assert _chaos_run(1, 400e-3, 100e-3) == CHAOS_DIGEST


def test_overload_schedule_bit_identical_at_group_count_one():
    """The overload scenario replays its pinned schedule at G=1."""
    record = run_overload()
    fingerprint = _digest(
        (
            sorted(
                (k, round(v, 6)) for k, v in record["latency_us"].items()
            ),
            round(record["duration_s"], 12),
            record["shed_total"],
            record["busy_backoffs"],
            record["retransmissions"],
        )
    )
    assert fingerprint == OVERLOAD_DIGEST


def test_chaos_schedule_pinned_at_group_count_four():
    """The G=4 multi-group chaos run replays its own pinned schedule."""
    assert _chaos_run(4, 600e-3, 300e-3) == COP_CHAOS_G4_DIGEST
