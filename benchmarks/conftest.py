"""Shared sweep caches for the benchmark suite.

The figure sweeps are deterministic simulations, so each is executed once
per pytest session and shared between the latency and throughput panels
of the same figure (they come from the same runs, exactly as in the
paper).
"""

import os

import pytest

from repro.bench import (
    FIG3_PAYLOADS,
    FIG4_PAYLOADS,
    fig3_sweep,
    fig4_sweep,
    sweep_points,
)
from repro.obs.sampler import write_json_atomic

#: Messages per data point.  The paper uses 1000; the default here keeps
#: `pytest benchmarks/` pleasant.  EXPERIMENTS.md documents a bigger run.
FIG3_MESSAGES = 60
FIG4_MESSAGES = 100


def _write_baseline(figure: str, results) -> None:
    """Write BENCH_<figure>.json (into ``REPRO_BENCH_DIR``, default ``.``)."""
    directory = os.environ.get("REPRO_BENCH_DIR", ".")
    write_json_atomic(
        {"figure": figure, "points": sweep_points(results)},
        os.path.join(directory, f"BENCH_{figure}.json"),
    )


@pytest.fixture(scope="session")
def fig3_results():
    """All Figure-3 echo runs, keyed by (transport, payload_kb)."""
    results = fig3_sweep(FIG3_MESSAGES, FIG3_PAYLOADS)
    _write_baseline("fig3", results)
    return results


@pytest.fixture(scope="session")
def fig4_results():
    """All Figure-4 Reptor-stack runs, keyed by (transport, payload_kb)."""
    results = fig4_sweep(FIG4_MESSAGES, FIG4_PAYLOADS)
    _write_baseline("fig4", results)
    return results
