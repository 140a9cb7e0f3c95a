"""perfbench — the repo's two-clock benchmark.

Modeled time (``sim_*`` metrics) is what the simulated RDMA/BFT stack
would take; host time (everything else) is what the simulator itself
costs.  See ``perfbench/README.md`` for the metric glossary and
``BENCHMARK.json`` for the contract later PRs are measured against.

This package measures ``repro`` strictly from outside, through its
public API; importing it imports nothing from ``repro``.
"""
