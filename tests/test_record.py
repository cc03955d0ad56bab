"""The BENCH recorder (``benchmarks/record.py``): parsing, summaries, files.

The recorder is loaded by path, as a script; the timed runs themselves
are replaced by canned ``run.py`` output.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDER = ROOT / "benchmarks" / "record.py"
_spec = importlib.util.spec_from_file_location("record", RECORDER)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: One skewed value per seed, so the quartiles differ from the extremes.
SETUP_S = [0.52, 0.11, 0.34, 0.95, 0.2]


def canned(workload: str, seed: int, correct: bool = True) -> str:
    """``run.py --trace 1`` output: metric lines, then the result JSON."""
    lines = [
        f"{workload:<13} {'setup_s':<22} {SETUP_S[seed]:12.4f} s",
        f"{workload:<13} {'peak_rss_mb':<22} {40.0 + seed:12.4f} MiB",
        f"{workload:<13} {'failed_frac':<22} {0.0:12.4f} ratio",
    ]
    if not correct:
        lines.append(f"{workload:<13} CHECK FAILED: top-k differs")
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {"kernels.prob_s": {"value": 0.1 * (seed + 1), "unit": "s"}},
    }
    return "\n".join([*lines, json.dumps(result)]) + "\n"


def test_summaries_are_quartiles_with_units():
    calls = []

    def run(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        return canned(workload, seed)

    workloads = record.e2e_workloads(SPEC, run)
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(calls) == sorted(
        (name, seed, SPEC["run_seconds"]) for name in names for seed in range(5)
    )
    assert list(workloads) == names
    q1, median, q3 = statistics.quantiles(SETUP_S, n=4)
    assert workloads["mine-deep"]["setup_s"] == {
        "median": median, "q1": q1, "q3": q3, "n": 5, "unit": "s",
    }  # fmt: skip
    assert workloads["serve-ingest"]["peak_rss_mb"]["median"] == 42.0
    assert workloads["serve-ingest"]["peak_rss_mb"]["unit"] == "MiB"
    assert workloads["mine-wide"]["kernels.prob_s"]["unit"] == "s"
    assert workloads["mine-wide"]["failed_frac"]["unit"] == "ratio"


def test_failed_check_raises_before_any_file(tmp_path):
    def run(workload, seed, seconds):
        return canned(workload, seed, correct=seed != 4)

    with pytest.raises(RuntimeError, match="output check failed"):
        record.record(tmp_path, run=run, suites=())
    assert list(tmp_path.iterdir()) == []


def test_files_carry_sha_and_host_and_no_history(tmp_path):
    record.record(tmp_path, run=canned, suites=())
    for name, prefix in (("BENCH_engine.json", "mine-"), ("BENCH_serve.json", "serve-")):
        report = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert "history" not in report
        assert report["git_sha"] == record.git_sha()
        assert report["host"] == record.host_fingerprint()
        assert set(report["host"]) == {
            "cpu_count", "platform", "python", "numpy", "kernel_backend",
        }  # fmt: skip
        assert report["host"]["kernel_backend"] in ("numpy", "cnative")
        assert report["workloads"]
        assert all(w.startswith(prefix) for w in report["workloads"])


def test_loading_imports_no_program_module():
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('record', {str(RECORDER)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
