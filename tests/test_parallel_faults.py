"""Fault-injected worker crashes: the engine must fail loudly and leak nothing.

Every scenario kills (or errors) a fork span worker at a specific point --
startup, mid-batch, between ops -- and asserts the invariants the
coordinator guarantees:

* the failure surfaces as :class:`WorkerCrashError` (pipe death with no
  surviving pool) or a ``RuntimeError`` carrying the worker traceback
  (reported error), never a bare ``EOFError``/``BrokenPipeError``;
* no worker process outlives the engine, and nothing is ever placed in
  ``/dev/shm`` (the autouse fixture enforces both for every test).

Faults armed in the parent are inherited by forked workers, which is how a
test reaches code running inside a worker process.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine, WorkerCrashError
from repro.core.pattern import TrajectoryPattern
from repro.testkit import faults
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory


@pytest.fixture(autouse=True)
def clean_state():
    faults.disarm()
    yield
    faults.disarm()
    _assert_nothing_leaked()


def _assert_nothing_leaked():
    assert glob.glob("/dev/shm/repro-shm-*") == []
    assert mp.active_children() == []


def _dataset(n=8, length=10, seed=42) -> TrajectoryDataset:
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(n):
        start = rng.uniform(0.1, 0.4, 2)
        means = start + np.cumsum(rng.normal(0.02, 0.004, (length, 2)), axis=0)
        trajectories.append(UncertainTrajectory(means, 0.015, object_id=f"o{i}"))
    return TrajectoryDataset(trajectories)


@pytest.fixture(scope="module")
def scenario():
    dataset = _dataset()
    grid = dataset.make_grid(0.05)
    config = EngineConfig(delta=0.05, min_prob=1e-6)
    return dataset, grid, config


def _patterns(dataset, grid, config, n=6):
    cells = NMEngine(dataset, grid, config).active_cells
    return [TrajectoryPattern((c,)) for c in cells[:n]]


class TestCrashMidBatch:
    def test_worker_death_raises_worker_crash_and_closes(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op",
            "exit",
            match={"shard": 0, "op": "nm_batch"},
        )
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        try:
            with pytest.raises(WorkerCrashError, match="span worker 0 died"):
                engine.nm_batch(patterns)
            # The crash closed the engine: no half-dead evaluations later.
            with pytest.raises(RuntimeError, match="closed"):
                engine.nm_batch(patterns)
            _assert_nothing_leaked()
        finally:
            engine.close()  # idempotent no-op after the auto-close

    def test_worker_op_error_keeps_engine_usable(self, scenario):
        # A *reported* error (worker alive, op failed) must not tear the
        # engine down -- only pipe death is fatal.
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op",
            "raise",
            match={"shard": 0, "op": "nm_batch"},
        )
        with ParallelNMEngine(dataset, grid, config, jobs=2) as engine:
            with pytest.raises(RuntimeError, match="FaultInjected"):
                engine.nm_batch(patterns)
            # Fault was count=1: the next call goes through and agrees
            # with the serial engine -- no stale reply of the failed op
            # is left in any pipe.
            serial = NMEngine(dataset, grid, config)
            other = patterns[:2]
            np.testing.assert_allclose(
                engine.nm_batch(other), serial.nm_batch(other), rtol=1e-12
            )

    def test_unmatched_fault_does_not_fire(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm("parallel.worker.op", "exit", match={"shard": 99})
        with ParallelNMEngine(dataset, grid, config, jobs=2) as engine:
            serial = NMEngine(dataset, grid, config)
            np.testing.assert_allclose(
                engine.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
            )


class TestCrashDuringStartup:
    def test_hard_crash_during_startup_cleans_shm(self, scenario):
        dataset, grid, config = scenario
        faults.arm("parallel.worker.start", "exit", match={"shard": 1})
        with pytest.raises(WorkerCrashError):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        _assert_nothing_leaked()

    def test_reported_startup_failure_carries_traceback(self, scenario):
        dataset, grid, config = scenario
        faults.arm("parallel.worker.start", "raise", match={"shard": 0})
        with pytest.raises(RuntimeError, match="FaultInjected"):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        _assert_nothing_leaked()

    def test_sigkill_during_startup_cleans_shm(self, scenario):
        dataset, grid, config = scenario
        faults.arm("parallel.worker.start", "sigkill", match={"shard": 0})
        with pytest.raises(WorkerCrashError):
            ParallelNMEngine(dataset, grid, config, jobs=2)
        _assert_nothing_leaked()


class TestSingularTableDispatch:
    """``singular_nm_table`` goes through the same guarded dispatch as batches."""

    def test_singular_table_after_close_raises_closed(self, scenario):
        dataset, grid, config = scenario
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        engine.close()
        with pytest.raises(RuntimeError, match="ParallelNMEngine is closed"):
            engine.singular_nm_table()

    def test_singular_table_to_dead_worker_raises_worker_crash(self, scenario):
        dataset, grid, config = scenario
        before = set(mp.active_children())
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        try:
            for proc in set(mp.active_children()) - before:
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)
            with pytest.raises(WorkerCrashError):
                engine.singular_nm_table()
        finally:
            engine.close()


class TestCloseSemantics:
    def test_close_is_idempotent_after_crash(self, scenario):
        dataset, grid, config = scenario
        patterns = _patterns(dataset, grid, config)
        faults.arm(
            "parallel.worker.op", "exit", match={"shard": 0, "op": "nm_batch"}
        )
        engine = ParallelNMEngine(dataset, grid, config, jobs=2)
        with pytest.raises(WorkerCrashError):
            engine.nm_batch(patterns)
        engine.close()
        engine.close()
        _assert_nothing_leaked()
