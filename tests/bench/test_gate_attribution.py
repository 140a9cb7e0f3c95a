"""The perf gate's attribution pass and observability artifacts.

Uses a tiny synthetic fig3 baseline (one fast echo point) so a full gate
run takes seconds.  Doctoring the stored numbers downwards makes the
deterministic re-run read as a regression, which must trigger the
critical-path suspect ranking; leaving them untouched must keep the gate
green with no attribution output.
"""

import json
import os

import pytest

from repro.bench.__main__ import main
from repro.bench.echo import run_echo
from repro.bench.profiles import capture_profile, profile_path
from repro.bench.results import echo_record
from repro.obs.sampler import write_json_atomic

POINT_PAYLOAD = 2048
POINT_MESSAGES = 10


def seed_baselines(directory, latency_scale=1.0, profile_scale=1.0):
    """Write a one-point BENCH_fig3.json + PROFILE_fig3.json into
    ``directory``, optionally scaling the stored numbers to provoke a
    gate failure (the re-run is deterministic, so scaling the baseline
    down is equivalent to the tree regressing)."""
    result = run_echo("rdma_channel", POINT_PAYLOAD, POINT_MESSAGES)
    point = echo_record(result)
    point["latency_us"] = {
        key: value * latency_scale
        for key, value in point["latency_us"].items()
    }
    write_json_atomic(
        {"figure": "fig3", "points": [point]},
        os.path.join(directory, "BENCH_fig3.json"),
    )
    profile = capture_profile("fig3")
    for node in profile["nodes"].values():
        node["mean_us"] *= profile_scale
    write_json_atomic(profile, profile_path(directory, "fig3"))
    return point


def gate_args(directory, *extra):
    return [
        "--check", "--fig", "3",
        "--baseline-dir", directory,
        "--history", os.path.join(directory, "history.jsonl"),
        *extra,
    ]


@pytest.fixture
def green_dir(tmp_path):
    directory = str(tmp_path / "baselines")
    os.makedirs(directory)
    seed_baselines(directory)
    return directory


@pytest.fixture
def red_dir(tmp_path):
    directory = str(tmp_path / "baselines")
    os.makedirs(directory)
    seed_baselines(directory, latency_scale=0.5, profile_scale=0.5)
    return directory


class TestGateAttribution:
    def test_green_gate_prints_no_suspects(self, green_dir, capsys):
        assert main(gate_args(green_dir)) == 0
        out = capsys.readouterr().out
        assert "fig3: PASS" in out
        assert "critical-path suspects" not in out

    def test_failing_gate_ranks_suspect_layers(self, red_dir, capsys):
        assert main(gate_args(red_dir)) == 1
        out = capsys.readouterr().out
        assert "fig3: FAIL" in out
        assert "fig3 critical-path suspects" in out
        assert "#1 " in out
        assert "self-time" in out

    def test_failing_gate_appends_github_step_summary(
        self, red_dir, tmp_path, monkeypatch, capsys
    ):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert main(gate_args(red_dir)) == 1
        text = summary.read_text()
        assert "### fig3 regression suspects" in text
        assert "#1 " in text

    def test_obs_dir_writes_artifacts(self, green_dir, tmp_path, capsys):
        obs_dir = str(tmp_path / "obs")
        assert main(gate_args(green_dir, "--obs-dir", obs_dir)) == 0
        assert os.path.exists(os.path.join(obs_dir, "PROFILE_fig3.json"))
        assert os.path.exists(os.path.join(obs_dir, "TIMESERIES_fig3.json"))
        profile = json.load(
            open(os.path.join(obs_dir, "PROFILE_fig3.json"))
        )
        assert profile["figure"] == "fig3"

    def test_missing_profile_baseline_degrades_gracefully(
        self, red_dir, capsys
    ):
        os.remove(profile_path(red_dir, "fig3"))
        assert main(gate_args(red_dir)) == 1
        out = capsys.readouterr().out
        assert "no committed profile" in out


class TestUpdateBaseline:
    def test_refreshes_bench_and_profile_together(self, red_dir, capsys):
        args = [
            "--update-baseline", "--fig", "3", "--baseline-dir", red_dir,
        ]
        assert main(args) == 0
        # The doctored numbers are gone: the gate is green again.
        assert main(gate_args(red_dir)) == 0
        fresh_bench = json.load(
            open(os.path.join(red_dir, "BENCH_fig3.json"))
        )
        point = fresh_bench["points"][0]
        assert point["payload_bytes"] == POINT_PAYLOAD
        assert point["messages"] == POINT_MESSAGES
        fresh_profile = json.load(open(profile_path(red_dir, "fig3")))
        assert fresh_profile["figure"] == "fig3"
        # Profile means are back to the real capture (not the 0.5x fake).
        reference = capture_profile("fig3")
        assert fresh_profile["nodes"] == reference["nodes"]
