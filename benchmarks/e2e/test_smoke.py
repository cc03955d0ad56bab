"""Smoke test of the end-to-end benchmark at about two seconds a workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Checks the
result contract of ``run.py`` against ``BENCHMARK.json`` -- every metric
emitted, with its unit and a finite value -- and that the traced runs
record spans in every layer of the program.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: One metric per layer that is non-zero only when the layer's spans exist.
LAYER_PROBES = {
    "storage": "storage.open_s",
    "geometry.grid": "grid.pairs",
    "core.kernels (prob)": "kernels.prob_pairs",
    "core.kernels (devmax)": "kernels.devmax_calls",
    "core.engine": "engine.entries",
    "core.engine (nm_batch)": "engine.patterns_scored",
    "core.parallel": "parallel.start_s",
    "core.trajpattern": "miner.iterations",
    "core.groups": "groups.discover_s",
    "core.results_io": "results.save_s",
    "serve.snapshot": "snapshot.load_s",
    "serve.protocol": "protocol.decode_ms",
    "serve.batcher": "batcher.submit_ms.p50",
    "serve.server": "serve.eval_ms.p50",
    "apps": "apps.predict_ms",
    "core.incremental": "ingest.append_ms",
    "process": "process.import_s",
}


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def _result(*args: str) -> dict:
    code, stdout = _run(*args)
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _check_metrics(metrics: dict, listed: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result("--workload", workload, "--smoke", "--trace", "0")
    _check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    return {
        w: _result("--workload", w, "--smoke", "--trace", "1")["metrics"] for w in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced, workload):
    _check_metrics(traced[workload], SPEC["per_layer"])


@pytest.mark.parametrize("layer", sorted(LAYER_PROBES))
def test_traced_runs_record_spans_in_every_layer(traced, layer):
    metric = LAYER_PROBES[layer]
    assert any(traced[w][metric]["value"] > 0 for w in WORKLOADS), metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sheds_count_as_failures(traced, workload):
    shed = traced[workload]["batcher.shed"]["value"]
    failed = traced[workload]["failed_frac"]["value"]
    assert (shed == 0) == (failed == 0)


def _bench_module(name: str):
    sys.path.insert(0, str(HERE))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(HERE))


def test_degraded_answer_counts_as_shed():
    client = _bench_module("client")
    assert client.succeeded({"ok": True, "values": [0.5]})
    assert not client.succeeded({"ok": True, "degraded": True, "reason": "deadline"})
    assert not client.succeeded({"ok": False, "error": "overloaded"})


def test_compare_verdicts():
    verdict = _bench_module("compare").verdict
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.10)[1] == "REGRESSION"
    assert verdict(parent, [x * 0.8 for x in parent], "lower", 0.10)[1] == "gain"
    assert verdict(parent, [x * 1.2 for x in parent], "lower", None)[1] == "worse"
    assert verdict(parent, [x * 1.2 for x in parent], "higher", None)[1] == "gain"
    noisy = [10.0, 14.0] * 5
    assert verdict(parent, noisy, "lower", 0.10)[1] == "unresolved"


def test_per_layer_list_matches_the_aggregator():
    layers = _bench_module("layers")
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    code, stdout = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in stdout
