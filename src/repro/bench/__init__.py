"""Benchmark harness: calibration, workloads, and figure regeneration.

* :mod:`repro.bench.calibration` — the simulated twin of the paper's
  testbed, with every model constant documented;
* :mod:`repro.bench.echo` — the four Figure-3 micro-benchmark workloads;
* :mod:`repro.bench.selector_echo` — the Figure-4 Reptor-stack workload;
* :mod:`repro.bench.overload`, :mod:`repro.bench.onesided`,
  :mod:`repro.bench.cop` — the BFT workloads behind the overload,
  one-sided and COP figures;
* :mod:`repro.bench.figures` — per-figure sweeps, the shape checks that
  encode the paper's Section-V claims, and :data:`FIGURES`, the registry
  declaring each gated figure once;
* :mod:`repro.bench.regression` — the ``--check`` gate over the
  committed ``BENCH_*.json`` baselines;
* :mod:`repro.bench.profiles` — the committed ``PROFILE_*.json``
  critical-path profiles that attribute a gate failure to a layer;
* :mod:`repro.bench.results` — result containers and table rendering.

Host time (events per host second, host seconds per operation) is
perfbench's to measure; the exact agenda-entry and copy counts of the
echo sweeps are pinned in ``tests/sim/test_event_budget.py``.
"""

from repro.bench.calibration import (
    LINK_BANDWIDTH_BPS,
    LINK_PROPAGATION,
    TESTBED_CPU_COSTS,
    TESTBED_DEVICE_ATTRS,
    TESTBED_TCP_CONFIG,
    Testbed,
    build_testbed,
)
from repro.bench.echo import (
    rdma_read_write_echo,
    rdma_send_recv_echo,
    rubin_channel_echo,
    run_echo,
    tcp_echo,
)
from repro.bench.figures import (
    FIG3_PAYLOADS,
    FIG3_TRANSPORTS,
    FIG4_PAYLOADS,
    FIGURES,
    Figure,
    check_fig3_shape,
    check_fig4_shape,
    fig3_panels,
    fig3_sweep,
    fig4_panels,
    fig4_sweep,
    sweep_points,
)
from repro.bench.results import (
    EchoResult,
    FigureTable,
    echo_record,
    percent_higher,
    percent_lower,
)
from repro.bench.selector_echo import FIG4_BATCH, FIG4_WINDOW, reptor_echo

__all__ = [
    "build_testbed",
    "Testbed",
    "TESTBED_CPU_COSTS",
    "TESTBED_DEVICE_ATTRS",
    "TESTBED_TCP_CONFIG",
    "LINK_BANDWIDTH_BPS",
    "LINK_PROPAGATION",
    "run_echo",
    "tcp_echo",
    "rdma_send_recv_echo",
    "rdma_read_write_echo",
    "rubin_channel_echo",
    "reptor_echo",
    "FIG4_WINDOW",
    "FIG4_BATCH",
    "fig3_sweep",
    "fig4_sweep",
    "fig3_panels",
    "fig4_panels",
    "sweep_points",
    "echo_record",
    "check_fig3_shape",
    "check_fig4_shape",
    "Figure",
    "FIGURES",
    "FIG3_PAYLOADS",
    "FIG4_PAYLOADS",
    "FIG3_TRANSPORTS",
    "EchoResult",
    "FigureTable",
    "percent_lower",
    "percent_higher",
]
