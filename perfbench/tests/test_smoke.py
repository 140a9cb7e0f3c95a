"""Smoke pass over all four workloads at 2 % scale (~15 s).

Not part of tier-1 (``testpaths = ["tests"]``); run with
``python -m pytest perfbench/tests``.  Checks the benchmark's own
plumbing — every metric ``BENCHMARK.json`` lists is emitted with its
unit, both attributions are complete partitions, traced and untraced
runs agree on ``sim_digest``, and the bypass predictions hold — not
any number's value.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.__main__ import contract_line  # noqa: E402
from perfbench.layers import per_layer_units  # noqa: E402
from perfbench.runner import load_spec, measure, trace  # noqa: E402

SCALE = 0.02
SPEC = load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def docs():
    return {
        name: {
            "run": measure(name, seed=1, scale=SCALE, reps=1),
            "trace": trace(name, seed=1, scale=SCALE),
        }
        for name in NAMES
    }


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert name.match(entry["name"]), entry
            assert entry["name"] not in seen, entry
            seen.add(entry["name"])
            if section != "workloads":
                assert unit.match(entry["unit"]), entry
                assert entry["better"] in ("lower", "higher"), entry
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert len(SPEC["per_layer"]) <= 128


def test_spec_lists_exactly_the_per_layer_metrics_the_code_emits():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == per_layer_units()


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(docs, name):
    doc = docs[name]["run"]
    assert doc["correct"], doc["errors"]
    assert doc["failed_share"] == 0
    for metric in SPEC["end_to_end"]:
        got = doc["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    line = json.loads(contract_line(doc, SPEC["end_to_end"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", NAMES)
def test_every_per_layer_metric_is_emitted_or_reported_absent(docs, name):
    doc = docs[name]["trace"]
    assert doc["correct"], doc["errors"]
    units = per_layer_units()
    assert set(doc["per_layer"]) | set(doc["absent"]) == set(units)
    for key, got in doc["per_layer"].items():
        assert got["unit"] == units[key]
    line = json.loads(contract_line(doc, SPEC["per_layer"]))
    assert set(line["metrics"]) == set(units)


@pytest.mark.parametrize("name", NAMES)
def test_attributions_are_complete_and_digests_agree(docs, name):
    doc = docs[name]["trace"]
    assert doc["checks"]["layers_over_profiled_total"] == pytest.approx(1, abs=0.02)
    assert doc["checks"]["nodes_over_modeled_latency"] == pytest.approx(1, abs=0.01)
    # trace() already failed if its plain, profiled and traced passes
    # disagreed; the separate untraced run must match them too.
    assert doc["sim_digest"] == docs[name]["run"]["sim_digest"]


def _calls(doc, layer):
    return doc["per_layer"][f"{layer}.calls_per_op"]["value"]


def test_bypass_predictions_hold(docs):
    rdma_side = ("rubin", "rdma.qp", "rdma.cq", "rdma.mr", "rdma.device", "rdma.verbs")
    nio = docs["pbft_nio"]["trace"]
    assert all(_calls(nio, layer) == 0 for layer in rdma_side)
    assert _calls(nio, "tcpstack") > 0 and _calls(nio, "nio") > 0
    echo = docs["echo_rdma_bulk"]["trace"]
    assert all(_calls(echo, layer) == 0 for layer in ("bft", "reptor", "crypto"))
    for name in ("pbft_rubin", "echo_rdma_bulk", "pbft_sched_crash"):
        doc = docs[name]["trace"]
        # Not exactly 0 on the echo: its profile includes run_echo's own
        # testbed set-up, which constructs an (unused) TcpStack per host.
        assert _calls(doc, "tcpstack") < 1 and _calls(doc, "nio") == 0
        assert _calls(doc, "rubin") > 0 and _calls(doc, "rdma.qp") > 0


def test_the_crash_workload_measures_its_outage(docs):
    layer = docs["pbft_sched_crash"]["trace"]["per_layer"]
    assert layer["bft.view_changes"]["value"] >= 1
    assert layer["bft.recovery_ms"]["value"] > 1
    assert layer["bft.ops_per_batch"]["value"] > 1


def test_a_different_seed_changes_the_modeled_results(docs):
    other = measure("pbft_nio", seed=2, scale=SCALE, reps=1)
    assert other["sim_digest"] != docs["pbft_nio"]["run"]["sim_digest"]
