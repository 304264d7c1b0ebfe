"""Tiny-size smoke test of the benchmark runner.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a fraction of a second and checks the output
contract: the last stdout line is one JSON object with exactly `correct`,
`attempted`, `failed` and `metrics`, and the metrics are exactly the
BENCHMARK.json end-to-end (untraced) or per-layer (traced) names.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(root, workload, trace, seed=1, seconds="0.3"):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = result_of(run(ROOT, workload, 0))
    assert result["correct"] is True
    names = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
    if workload != "cli":
        assert result["failed"] == 0


def test_traced_run_reports_per_layer_metrics():
    result = result_of(run(ROOT, "keylemma", 1))
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.construct.calls"] > 0
    assert metrics["xi.key_lemma_1.self_s"] > 0
    assert metrics["harness.key_lemma.xi.item4.attempts"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_same_seed_same_inputs_and_verdicts():
    a = result_of(run(ROOT, "cli", 0, seed=7))
    b = result_of(run(ROOT, "cli", 0, seed=7))
    c = result_of(run(ROOT, "cli", 0, seed=8))
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert (a["attempted"], a["failed"]) == (c["attempted"], c["failed"])


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    assert set(layer_map) == {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for name, entry in layer_map.items():
        assert set(entry["moves"]) <= e2e, name
        assert set(entry["workloads"]) <= set(WORKLOADS), name


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
