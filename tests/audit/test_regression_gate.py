"""The bench regression gate: reproduce, tolerate, and fail loudly.

The simulation is deterministic, so a freshly generated baseline always
reproduces exactly; a *synthetic* regression is injected by shrinking
the stored numbers (making the fresh run look slower), which must fail
the gate and exit non-zero through the CLI.
"""

import json
import os

import pytest

from repro.bench import run_echo, sweep_points
from repro.bench.__main__ import main as bench_main
from repro.bench.regression import (
    HISTORY_MAX_LINES,
    append_history,
    check_figure,
    load_baseline,
    run_check,
)
from repro.errors import ReproError
from repro.obs.sampler import write_json_atomic

PAYLOAD = 1024
MESSAGES = 5


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory):
    """A tiny committed-style fig3 baseline (one transport, one point)."""
    directory = tmp_path_factory.mktemp("baselines")
    results = {("tcp", 1): run_echo("tcp", PAYLOAD, MESSAGES)}
    write_json_atomic(
        {"figure": "fig3", "points": sweep_points(results)},
        str(directory / "BENCH_fig3.json"),
    )
    return directory


def test_identical_rerun_passes(baseline_dir):
    document = load_baseline(str(baseline_dir / "BENCH_fig3.json"))
    report = check_figure(document)
    assert report.ok
    # Determinism: every fresh number equals its baseline exactly.
    for point in report.points:
        for check in point.checks:
            assert check.fresh == check.baseline


def test_synthetic_regression_fails_the_gate(baseline_dir, tmp_path):
    # Shrink the stored latencies so the (unchanged) fresh run looks 2x
    # slower; raise the stored throughput so the fresh run looks slower
    # there too.
    document = load_baseline(str(baseline_dir / "BENCH_fig3.json"))
    for point in document["points"]:
        for percentile in ("p50", "p95", "p99"):
            point["latency_us"][percentile] /= 2.0
        point["throughput_rps"] *= 2.0
    tampered = tmp_path / "BENCH_fig3.json"
    tampered.write_text(json.dumps(document))

    report = check_figure(load_baseline(str(tampered)))
    assert not report.ok
    regressed = {c.metric for c in report.regressions}
    assert "latency_us.p50" in regressed
    assert "throughput_rps" in regressed


def test_cli_check_exits_nonzero_on_regression(baseline_dir, tmp_path):
    document = load_baseline(str(baseline_dir / "BENCH_fig3.json"))
    for point in document["points"]:
        point["latency_us"]["p50"] /= 2.0
    gate_dir = tmp_path / "gate"
    gate_dir.mkdir()
    (gate_dir / "BENCH_fig3.json").write_text(json.dumps(document))
    history = gate_dir / "BENCH_history.jsonl"

    code = bench_main(
        [
            "--check",
            "--fig",
            "3",
            "--baseline-dir",
            str(gate_dir),
            "--history",
            str(history),
        ]
    )
    assert code == 1
    # The failed run still lands in the history trajectory.
    entries = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["ok"] is False
    assert entries[0]["figures"]["fig3"]["regressions"]


def test_cli_check_passes_and_appends_history(baseline_dir, tmp_path):
    history = tmp_path / "BENCH_history.jsonl"
    code = bench_main(
        [
            "--check",
            "--fig",
            "3",
            "--baseline-dir",
            str(baseline_dir),
            "--history",
            str(history),
        ]
    )
    assert code == 0
    entries = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["ok"] is True


def test_missing_baseline_is_an_error(tmp_path):
    with pytest.raises(ReproError):
        run_check(str(tmp_path), figures=("fig3",))


def test_history_entry_shape(baseline_dir, tmp_path):
    document = load_baseline(str(baseline_dir / "BENCH_fig3.json"))
    report = check_figure(document)
    history = tmp_path / "h.jsonl"
    entry = append_history(str(history), [report])
    assert os.path.exists(history)
    assert set(entry) == {"checked_at", "ok", "figures"}
    assert entry["figures"]["fig3"]["points"] == len(report.points)


class TestHistoryCap:
    def test_history_is_bounded(self, baseline_dir, tmp_path):
        report = check_figure(load_baseline(str(baseline_dir / "BENCH_fig3.json")))
        path = str(tmp_path / "BENCH_history.jsonl")
        for _ in range(12):
            append_history(path, [report], max_lines=5)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5
        for line in lines:
            json.loads(line)  # every surviving line is intact JSON
        assert not os.path.exists(path + ".tmp")

    def test_default_cap_is_sane(self):
        assert HISTORY_MAX_LINES >= 50

    def test_entries_record_verdict_and_regressions(self, baseline_dir, tmp_path):
        document = load_baseline(str(baseline_dir / "BENCH_fig3.json"))
        for point in document["points"]:
            point["latency_us"]["p50"] /= 2.0
        entry = append_history(str(tmp_path / "h.jsonl"), [check_figure(document)])
        assert entry["ok"] is False
        assert [c["metric"] for c in entry["figures"]["fig3"]["regressions"]] == [
            "latency_us.p50"
        ]
