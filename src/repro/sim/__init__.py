"""Deterministic discrete-event simulation kernel.

This package is the substrate for everything else in :mod:`repro`: the
network fabric, TCP and RDMA stacks, the RUBIN framework and the BFT
replicas are all processes scheduled on one :class:`Environment`.

Quick tour::

    from repro.sim import Environment

    env = Environment()

    def hello(env):
        yield env.timeout(1.5)
        return "done at %.1f" % env.now

    proc = env.process(hello(env))
    print(env.run(until=proc))   # -> "done at 1.5"
"""

from repro.sim.copystats import COPYSTATS, CopyStats
from repro.sim.core import Environment, Infinity, TieBreakPolicy
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.gridwait import GridWait, grid_wait
from repro.sim.monitor import (
    Counter,
    Gauge,
    SummaryStats,
    TimeSeries,
    UtilizationTracker,
)
from repro.sim.process import Drive, Process, ProcessGenerator, detach, inline
from repro.sim.resources import Resource, ResourceRequest, Store, StoreGet, StorePut

__all__ = [
    "COPYSTATS",
    "CopyStats",
    "Environment",
    "Infinity",
    "TieBreakPolicy",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "GridWait",
    "grid_wait",
    "Process",
    "Drive",
    "ProcessGenerator",
    "inline",
    "detach",
    "Store",
    "StorePut",
    "StoreGet",
    "Resource",
    "ResourceRequest",
    "Counter",
    "Gauge",
    "TimeSeries",
    "UtilizationTracker",
    "SummaryStats",
]
