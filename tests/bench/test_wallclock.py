"""Unit tests for the wall-clock gate plumbing (no timed sweeps here).

The timed passes are exercised by CI's perf-gate job; these tests cover
the pure logic around them: the direction-signed band check, the atomic
baseline write, schema validation, and the bounded history file.
"""

import json
import os

import pytest

from repro.bench.wallclock import (
    HISTORY_MAX_LINES,
    SCHEMA,
    WALLCLOCK_TOLERANCES,
    append_wallclock_history,
    check_wallclock,
    host_fingerprint,
    load_wallclock_baseline,
    write_wallclock_baseline,
)
from repro.errors import ReproError


def _synthetic_document(value: float = 100.0) -> dict:
    """A document carrying every gated metric at ``value``."""
    document = {
        "schema": SCHEMA,
        "host": {"fingerprint": host_fingerprint()},
        "fig3": {},
        "fig4": {},
        "copies": {},
    }
    for metric in WALLCLOCK_TOLERANCES:
        node = document
        parts = metric.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return document


class TestCheckWallclock:
    def test_identical_documents_pass(self):
        ok, checks = check_wallclock(_synthetic_document(), _synthetic_document())
        assert ok
        assert len(checks) == len(WALLCLOCK_TOLERANCES)

    def test_direction_signs_are_honoured(self):
        """A rate metric (direction -1) regresses only when it *drops*;
        a cost metric (direction +1) only when it *grows*."""
        baseline = _synthetic_document(100.0)
        higher, _ = check_wallclock(_synthetic_document(1000.0), baseline)
        lower_doc = _synthetic_document(1.0)
        lower, lower_checks = check_wallclock(lower_doc, baseline)
        assert not higher  # cost metrics (host_seconds, copies) blew up
        assert not lower  # rate metrics collapsed
        regressed = {c["metric"] for c in lower_checks if c["regressed"]}
        assert "fig4.events_per_sec" in regressed
        assert "copies.fig4_nio.copied_per_frame" not in regressed

    def test_foreign_host_downgrades_host_dependent_metrics(self):
        baseline = _synthetic_document(100.0)
        baseline["host"]["fingerprint"] = "not-this-machine"
        fresh = _synthetic_document(1.0)  # every rate collapsed
        ok, checks = check_wallclock(fresh, baseline)
        # Host-independent copy metrics still enforce; the collapsed
        # rates only warn.
        warned = {c["metric"] for c in checks if c["warned"]}
        assert "fig4.events_per_sec" in warned
        assert ok  # nothing host-independent regressed (copies grew? no: 1 < 100 with +1 direction passes)

    def test_event_counts_are_exact_on_any_host_and_may_only_fall(self):
        baseline = _synthetic_document(100.0)
        baseline["host"]["fingerprint"] = "not-this-machine"
        for sweep in ("fig3", "fig4"):
            more = _synthetic_document(100.0)
            more[sweep]["sim_events"] = 101.0
            ok, checks = check_wallclock(more, baseline)
            assert not ok
            assert [c["metric"] for c in checks if c["regressed"]] == [
                f"{sweep}.sim_events"
            ]
            fewer = _synthetic_document(100.0)
            fewer[sweep]["sim_events"] = 99.0
            assert check_wallclock(fewer, baseline)[0]

    def test_bad_tolerance_scale_rejected(self):
        with pytest.raises(ReproError):
            check_wallclock(_synthetic_document(), _synthetic_document(), 0.0)


class TestBaselineIO:
    def test_atomic_write_round_trips(self, tmp_path):
        path = str(tmp_path / "nested" / "BENCH_wallclock.json")
        document = _synthetic_document()
        write_wallclock_baseline(document, path)
        assert not os.path.exists(path + ".tmp")
        assert load_wallclock_baseline(path) == document

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "BENCH_wallclock.json")
        document = _synthetic_document()
        document["schema"] = "wallclock-v1"
        write_wallclock_baseline(document, path)
        with pytest.raises(ReproError, match=f"not a {SCHEMA}"):
            load_wallclock_baseline(path)
        # The previous schema is a baseline to refresh, and says so.
        document["schema"] = "wallclock-v2"
        write_wallclock_baseline(document, path)
        with pytest.raises(ReproError, match="re-record with --update-baseline"):
            load_wallclock_baseline(path)

    def test_missing_section_rejected(self, tmp_path):
        path = str(tmp_path / "BENCH_wallclock.json")
        document = _synthetic_document()
        del document["copies"]
        write_wallclock_baseline(document, path)
        with pytest.raises(ReproError):
            load_wallclock_baseline(path)


class TestHistoryCap:
    def test_history_is_bounded(self, tmp_path):
        path = str(tmp_path / "BENCH_history.jsonl")
        document = _synthetic_document()
        for _ in range(12):
            append_wallclock_history(path, document, [], max_lines=5)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5
        for line in lines:
            json.loads(line)  # every surviving line is intact JSON

    def test_default_cap_is_sane(self):
        assert HISTORY_MAX_LINES >= 50

    def test_entries_record_verdict_and_metrics(self, tmp_path):
        path = str(tmp_path / "BENCH_history.jsonl")
        checks = [
            {"metric": "fig4.events_per_sec", "fresh": 1.0,
             "regressed": True, "warned": False},
        ]
        entry = append_wallclock_history(path, _synthetic_document(), checks)
        assert entry["ok"] is False
        assert entry["metrics"] == {"fig4.events_per_sec": 1.0}
