"""Committed critical-path profiles per figure, for regression attribution.

Every ``--check`` figure has a *profile scenario*
(:attr:`~repro.bench.figures.Figure.scenario`): a fixed, deterministic
traced run whose critical-path profile (``repro.obs/critical_path/v1``)
is committed beside the ``BENCH_*.json`` baselines as
``PROFILE_<figure>.json``.  When the perf gate fails a tolerance it
re-captures the failing figure's profile and ranks the per-node mean
deltas against the committed one — turning "fig4 p50 regressed 9%" into
"``rdma.qp.sq_loop`` self-time +38%".

The scenarios are intentionally *smaller* than the bench sweeps (one
representative point each, modest message counts): the profile's job is
to localise a regression to a layer, not to re-measure the figure.  They
are exactly reproducible, so the committed profiles are bit-stable and
``--update-baseline`` refreshes them atomically with the bench baselines.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.figures import FIGURES
from repro.errors import ReproError
from repro.obs.attribution import rank_suspects, render_suspects
from repro.obs.critical_path import critical_path, load_profile_document
from repro.obs.sampler import MetricsSampler

__all__ = [
    "scenarios",
    "capture_observability",
    "capture_profile",
    "profile_path",
    "timeseries_path",
    "attribute_figure",
]

#: Sim-clock sampling period used when a scenario also records a time
#: series (1 ms covers every scenario with a handful of samples).
_SAMPLE_PERIOD = 1e-3


def _scenario_chaos(tracer, sampler) -> Dict[str, Any]:
    """The crash/restart recipe of the chaos fingerprint, traced.

    Mirrors ``tests/sim/test_fastpath_determinism.py``: 6 requests, crash
    ``r2``, 6 more under f=1, restart, state transfer, one final request.
    """
    from repro.bft import BftCluster, BftConfig
    from repro.rubin import RubinConfig

    cluster = BftCluster(
        transport="rubin",
        config=BftConfig(
            view_change_timeout=80e-3,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
        ),
        rubin_config=RubinConfig(retry_timeout=1e-3, retry_count=3),
        faulty_fabric=True,
        tracer=tracer,
    )
    cluster.start()
    if sampler is not None:
        sampler.bind(cluster.env, cluster.metrics_registry())
        sampler.start()
    for i in range(6):
        cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
    cluster.crash_replica("r2")
    cluster.run_for(30e-3)
    for i in range(6, 12):
        cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode())
    cluster.restart_replica("r2")
    cluster.run_for(400e-3)
    cluster.invoke_and_wait(b"PUT after=rejoin")
    cluster.run_for(100e-3)
    if sampler is not None:
        sampler.sample_now()
        sampler.stop()
    return {"transport": "rubin", "faulty_fabric": True, "requests": 13}


def scenarios() -> Dict[str, Callable[[Any, Any], Dict[str, Any]]]:
    """Every profile scenario: each registered figure's, then the
    profile-only chaos run."""
    return {**{n: f.scenario for n, f in FIGURES.items()}, "chaos": _scenario_chaos}


def capture_observability(
    figure: str, with_timeseries: bool = False
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run ``figure``'s profile scenario; return (profile, timeseries).

    The profile document carries ``figure`` and ``scenario`` keys on top
    of the ``repro.obs/critical_path/v1`` schema.  The time series (only
    captured when asked — it costs sampler timer events) is the
    scenario's full metrics dump, tagged the same way.
    """
    from repro.trace import Tracer

    scenario = scenarios().get(figure)
    if scenario is None:
        raise ReproError(
            f"no profile scenario for figure {figure!r} "
            f"(have {', '.join(scenarios())})"
        )
    tracer = Tracer()
    sampler = MetricsSampler(period=_SAMPLE_PERIOD) if with_timeseries else None
    params = scenario(tracer, sampler)
    profile = critical_path(tracer).to_dict()
    profile["figure"] = figure
    profile["scenario"] = params
    timeseries = None
    if sampler is not None:
        timeseries = sampler.to_dict()
        timeseries["figure"] = figure
        timeseries["scenario"] = params
    return profile, timeseries


def capture_profile(figure: str) -> Dict[str, Any]:
    """Just the critical-path profile of ``figure``'s scenario."""
    profile, _ = capture_observability(figure)
    return profile


def profile_path(directory: str, figure: str) -> str:
    return os.path.join(directory, f"PROFILE_{figure}.json")


def timeseries_path(directory: str, figure: str) -> str:
    return os.path.join(directory, f"TIMESERIES_{figure}.json")


def attribute_figure(
    figure: str,
    baseline_dir: str,
    fresh: Optional[Dict[str, Any]] = None,
    top: int = 8,
) -> List[str]:
    """Suspect-layer lines for a failing ``figure``, vs its committed profile.

    Captures a fresh profile when one is not supplied.  Returns
    human-readable lines; a missing committed profile yields a single
    explanatory line rather than an error, so the gate still reports the
    tolerance failure itself.
    """
    path = profile_path(baseline_dir, figure)
    if not os.path.exists(path):
        return [
            f"no committed profile at {path} — run with --update-baseline "
            f"to record one"
        ]
    baseline = load_profile_document(path)
    if fresh is None:
        fresh = capture_profile(figure)
    suspects = rank_suspects(baseline, fresh)
    return render_suspects(suspects, top=top, baseline=baseline, fresh=fresh)
