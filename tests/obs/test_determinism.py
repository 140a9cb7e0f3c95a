"""Observability must not move the schedule: pinned sampled-run digests.

The sampler's wake-up timers are real agenda entries, but they only ever
schedule the sampler's own next tick, so the relative order of protocol
events — and therefore every modeled output — is unchanged.  These tests
pin that claim: a sampler-enabled figure run reproduces the exact same
fingerprint as the unsampled pinned runs, the only extra agenda entries
are the sampler's own, and the sampled series itself is bit-stable
(the sixth pinned digest).

The accounting is in keyed agenda entries (``env._eid``).  The sampler's
loop arms one timer per periodic sample; its start rides the urgent lane
and the harness's closing ``sample_now()`` arms nothing, so a run with
``ticks`` samples carries ``ticks - 1`` extra entries.  Equality also
says no timer fell on an instant where a hold would otherwise have run
its grant or completion on the spot (that would show as one more entry).
"""

from repro.bench.echo import run_echo
from repro.bench.selector_echo import reptor_echo
from repro.obs import MetricsSampler
from tests.sim.test_fastpath_determinism import (
    FIG3_POINT_DIGEST,
    FIG4_POINT_DIGEST,
    _digest,
    _echo_fingerprint,
)

# Digest of the sampled Fig-4 run's full time series (0.5 ms period),
# recorded when the sampler landed.  Rounding below matches the capture.
FIG4_SAMPLED_SERIES_DIGEST = (
    "411744e4cb8bb6984efc6906ed11aa76e3332bc6888069a9eddd98e85dc42b13"
)


def _series_fingerprint(sampler) -> str:
    return _digest(
        [
            (
                round(sample["t"], 9),
                sorted(
                    (key, round(value, 6))
                    for key, value in sample["values"].items()
                ),
            )
            for sample in sampler.samples
        ]
    )


def test_sampled_fig4_run_keeps_pinned_fingerprint():
    """Sampler on: modeled outputs bit-identical, extra events sampler-only."""
    plain = reptor_echo("rubin", 20 * 1024, 30)
    sampler = MetricsSampler(period=0.5e-3)
    sampled = reptor_echo("rubin", 20 * 1024, 30, sampler=sampler)
    assert _echo_fingerprint(sampled) == FIG4_POINT_DIGEST
    # Every extra agenda entry is one of the sampler's timers.
    assert sampled.sim_events - plain.sim_events == sampler.ticks - 1
    assert sampler.ticks > 1


def test_sampled_fig4_series_is_pinned():
    """The sixth pinned digest: the recorded series itself is bit-stable."""
    sampler = MetricsSampler(period=0.5e-3)
    reptor_echo("rubin", 20 * 1024, 30, sampler=sampler)
    assert _series_fingerprint(sampler) == FIG4_SAMPLED_SERIES_DIGEST


def test_sampled_fig3_run_keeps_pinned_fingerprint():
    sampler = MetricsSampler(period=0.5e-3)
    result = run_echo(
        "rdma_channel", 10 * 1024, 20, sampler=sampler
    )
    assert _echo_fingerprint(result) == FIG3_POINT_DIGEST
    assert sampler.ticks > 0


def test_traced_fig4_run_keeps_pinned_fingerprint():
    """The tracer is pure observation: zero agenda entries, same digest."""
    from repro.trace import Tracer

    tracer = Tracer()
    plain = reptor_echo("rubin", 20 * 1024, 30)
    traced = reptor_echo("rubin", 20 * 1024, 30, tracer=tracer)
    assert _echo_fingerprint(traced) == FIG4_POINT_DIGEST
    assert traced.sim_events == plain.sim_events
    assert len(tracer.spans) > 0
