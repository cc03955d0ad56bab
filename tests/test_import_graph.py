"""Each command imports only the code it runs.

Every check runs in a fresh interpreter: the test process itself has long
since imported everything, so ``sys.modules`` here proves nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import kernels

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_heavy_modules():
    loaded = _run(
        """
        import json, sys
        import repro.cli
        heavy = ("scipy", "networkx", "repro.experiments", "repro.baselines",
                 "repro.datagen", "repro.serve", "repro.dist")
        print(json.dumps({"loaded": [m for m in heavy if m in sys.modules]}))
        """
    )["loaded"]
    assert loaded == []


def test_compiled_engine_and_snapshot_load_no_scipy():
    reason = kernels.compiled_unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")
    result = _run(
        """
        import json, sys
        from repro.core.engine import EngineConfig, NMEngine
        from repro.serve.snapshot import ServingSnapshot
        from repro.testkit.datasets import seeded_dataset
        dataset = seeded_dataset(101)
        grid = dataset.make_grid(0.05)
        engine = NMEngine(dataset, grid, EngineConfig(delta=0.05, backend="compiled"))
        snapshot = ServingSnapshot.from_dataset(
            dataset, cell_size=0.05, delta=0.05, backend="compiled")
        print(json.dumps({
            "backends": [engine.backend_name, snapshot.engine.backend_name],
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        }))
        """
    )
    assert "numpy" not in result["backends"]
    assert result["scipy"] == []


def test_grouping_mine_loads_no_scipy():
    reason = kernels.compiled_unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")
    result = _run(
        """
        import json, os, sys, tempfile
        from repro import cli
        from repro.storage import write_store
        from repro.testkit.datasets import seeded_dataset
        with tempfile.TemporaryDirectory() as tmp:
            store = os.path.join(tmp, "data.tjc")
            out = os.path.join(tmp, "patterns.json")
            write_store(seeded_dataset(7, n_trajectories=12, n_ticks=20), store)
            code = cli.main([
                "mine", store, "-k", "4", "--cell-size", "0.1", "--gamma", "0.1",
                "--backend", "compiled", "--output", out, "--show", "0",
            ])
            groups = json.load(open(out))["groups"]
        print(json.dumps({
            "code": code,
            "groups": groups,
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        }))
        """
    )
    assert result["code"] == 0
    assert result["groups"]  # the mine grouped its patterns
    assert result["scipy"] == []


def test_served_predict_loads_no_scipy():
    """A compiled server confirms ``predict`` on the C box-Prob kernel."""
    reason = kernels.compiled_unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")
    result = _run(
        """
        import json, os, sys, tempfile
        import numpy as np
        from repro.core.pattern import TrajectoryPattern
        from repro.core.results_io import save_mining_result
        from repro.core.trajpattern import MinerStats, MiningResult
        from repro.geometry.bbox import BoundingBox
        from repro.geometry.grid import Grid
        from repro.serve.server import _PredictWork, _evaluate_predict_batch
        from repro.serve.snapshot import ServingSnapshot
        from repro.testkit.datasets import seeded_dataset
        # One velocity pattern; each history's velocities are its prefix.
        vgrid = Grid(BoundingBox(-0.5, -0.5, 0.5, 0.5), nx=10, ny=10)
        velocities = [(0.05, 0.05), (0.15, 0.05), (0.05, 0.15)]
        cells = tuple(vgrid.locate(*v) for v in velocities)
        result = MiningResult(patterns=[TrajectoryPattern(cells)],
                              nm_values=[1.0], omega=0.0, stats=MinerStats())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "patterns.json")
            save_mining_result(result, vgrid, path)
            snapshot = ServingSnapshot.from_dataset(
                seeded_dataset(101), patterns_path=path, cell_size=0.05,
                delta=0.05, backend="compiled", confirm_threshold=0.5)
        prefix = np.cumsum([(0.0, 0.0)] + velocities[:2], axis=0)
        works = [_PredictWork(snapshot, prefix + offset, 0.001)
                 for offset in np.linspace(-1.0, 1.0, 8)]
        answers = _evaluate_predict_batch(works, "lm")
        print(json.dumps({
            "backend": snapshot.engine.backend_name,
            "sources": [source for _, source in answers],
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        }))
        """
    )
    assert result["backend"] != "numpy"
    assert result["sources"] == ["pattern"] * 8
    assert result["scipy"] == []


def test_numpy_backend_loads_scipy_special_at_first_build():
    result = _run(
        """
        import json, sys
        from repro.core.engine import EngineConfig, NMEngine
        from repro.testkit.datasets import seeded_dataset
        dataset = seeded_dataset(101)
        grid = dataset.make_grid(0.05)
        config = EngineConfig(delta=0.05, backend="numpy")
        before = "scipy.special" in sys.modules
        NMEngine(dataset, grid, config)
        print(json.dumps({"before": before, "after": "scipy.special" in sys.modules}))
        """
    )
    assert result == {"before": False, "after": True}


def test_every_exported_name_resolves():
    missing = _run(
        """
        import json
        import repro, repro.core
        missing = [f"{pkg.__name__}.{name}"
                   for pkg in (repro, repro.core)
                   for name in pkg.__all__ if not hasattr(pkg, name)]
        print(json.dumps({"missing": missing}))
        """
    )["missing"]
    assert missing == []
