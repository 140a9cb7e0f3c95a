"""Profile scenarios: committed baselines, capture determinism, attribution."""

import inspect
import json
import os

import pytest

from repro.bench.__main__ import build_parser
from repro.bench.figures import FIGURES
from repro.bench.profiles import (
    attribute_figure,
    capture_observability,
    capture_profile,
    profile_path,
    scenarios,
    timeseries_path,
)
from repro.bench.regression import run_check
from repro.errors import ReproError
from repro.obs import load_profile_document
from repro.obs.sampler import write_json_atomic

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
BASELINE_DIR = os.path.join(REPO_ROOT, "benchmarks", "baselines")


def test_every_gate_figure_has_a_scenario():
    """The registry is the one list of figures: the ``--fig`` choices, the
    gate's default set, the profile scenarios and the committed baselines
    all name exactly its figures (chaos is a profile-only scenario)."""
    names = list(FIGURES)
    assert names == ["fig3", "fig4", "overload", "onesided", "cop"]
    fig = next(a for a in build_parser()._actions if a.dest == "fig")
    assert list(fig.choices) == [*names, "all"]
    assert inspect.signature(run_check).parameters["figures"].default == (
        tuple(names)
    )
    assert list(scenarios()) == [*names, "chaos"]
    assert sorted(os.listdir(BASELINE_DIR)) == sorted(
        [f"BENCH_{name}.json" for name in names]
        + [f"PROFILE_{name}.json" for name in scenarios()]
    )


def test_unknown_figure_rejected():
    with pytest.raises(ReproError, match="no profile scenario"):
        capture_profile("fig9")


def test_paths():
    assert profile_path("d", "fig3") == os.path.join("d", "PROFILE_fig3.json")
    assert timeseries_path("d", "fig3") == os.path.join(
        "d", "TIMESERIES_fig3.json"
    )


@pytest.mark.parametrize("figure", list(scenarios()))
def test_committed_profile_baselines_exist(figure):
    """Every scenario has a committed, schema-valid profile."""
    document = load_profile_document(profile_path(BASELINE_DIR, figure))
    assert document["figure"] == figure
    assert document["traces"] > 0
    assert document["nodes"]


def test_fig3_capture_matches_committed_baseline():
    """The scenario is deterministic: a fresh capture is bit-identical."""
    fresh = capture_profile("fig3")
    committed = load_profile_document(profile_path(BASELINE_DIR, "fig3"))
    assert json.dumps(fresh, sort_keys=True) == json.dumps(
        committed, sort_keys=True
    )


def test_capture_with_timeseries():
    profile, timeseries = capture_observability("fig3", with_timeseries=True)
    assert profile["figure"] == "fig3"
    assert timeseries["figure"] == "fig3"
    assert timeseries["samples"]
    assert any(m.startswith("host.client.cpu") for m in timeseries["metrics"])


class TestAttributeFigure:
    def test_missing_baseline_explains_itself(self, tmp_path):
        lines = attribute_figure("fig3", str(tmp_path))
        assert len(lines) == 1
        assert "no committed profile" in lines[0]

    def test_detects_inflated_layer(self, tmp_path):
        """A doctored baseline makes the real capture read as a regression."""
        fresh = capture_profile("fig3")
        doctored = json.loads(json.dumps(fresh))
        victim = max(
            doctored["nodes"], key=lambda n: doctored["nodes"][n]["mean_us"]
        )
        doctored["nodes"][victim]["mean_us"] *= 0.5
        write_json_atomic(doctored, profile_path(str(tmp_path), "fig3"))
        lines = attribute_figure("fig3", str(tmp_path), fresh=fresh)
        assert any(f"#1 {victim}" in line for line in lines)

    def test_identical_profiles_report_no_movement(self, tmp_path):
        fresh = capture_profile("fig3")
        write_json_atomic(fresh, profile_path(str(tmp_path), "fig3"))
        lines = attribute_figure("fig3", str(tmp_path), fresh=fresh)
        assert any("no critical-path node moved" in line for line in lines)
