"""Failover: a dying pool must not change a single bit of the answer.

The coordinator's merge is a flat left-fold over per-span results in
global span order; failover only changes *which pool* computes a span,
never the merge order.  So every scenario below demands
``np.array_equal`` / ``==`` against the healthy-run results -- if
failover introduced even a reordering, these tests would see it.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.parallel import ParallelNMEngine, WorkerCrashError
from repro.core.pattern import TrajectoryPattern
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer
from repro.storage import open_store, write_store
from repro.testkit import faults
from repro.testkit.datasets import oracle_setup


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    s = oracle_setup(202, quick=True)
    store_path = str(tmp_path_factory.mktemp("dist-faults") / "data.tjc")
    write_store(s.dataset, store_path)
    return s, store_path, open_store(store_path).dataset()


@pytest.fixture(scope="module")
def expected(setup):
    s, _, store_dataset = setup
    with ParallelNMEngine(store_dataset, s.grid, s.config, jobs=4) as par:
        pats = [TrajectoryPattern((c,)) for c in par.active_cells[:5]]
        return pats, par.nm_batch(pats), par.singular_nm_table()


def test_remote_pool_death_redispatches_bit_identically(setup, expected):
    s, store_path, store_dataset = setup
    pats, expected_nm, expected_sing = expected
    s0 = WorkerPoolServer(WorkerPoolConfig(store_path=store_path, name="w0"))
    s1 = WorkerPoolServer(WorkerPoolConfig(store_path=store_path, name="w1"))
    h0, p0 = s0.start()
    h1, p1 = s1.start()
    try:
        with ParallelNMEngine(
            store_dataset,
            s.grid,
            s.config,
            jobs=4,
            pools=[f"{h0}:{p0}", f"{h1}:{p1}"],
        ) as dist:
            assert np.array_equal(dist.nm_batch(pats), expected_nm)
            s1.stop()  # kill one pool between ops
            assert np.array_equal(dist.nm_batch(pats), expected_nm)
            assert dist.singular_nm_table() == expected_sing
            assert dist.pool_names == ["remote-0"]
    finally:
        s0.stop()
        s1.stop()


def test_local_worker_sigkill_redispatches_bit_identically(setup, expected):
    s, _, store_dataset = setup
    pats, expected_nm, _ = expected
    # The fault registry is fork-inherited: arm before the engine forks its
    # workers, match one shard so exactly one worker dies, then disarm in
    # the parent so replacement workers fork with a clean registry.
    faults.arm(
        "parallel.worker.op",
        action="sigkill",
        match={"op": "nm_batch", "shard": 1},
        count=1,
    )
    try:
        with ParallelNMEngine(
            store_dataset, s.grid, s.config, jobs=4, pools=["local", "local"]
        ) as dist:
            faults.disarm()
            assert np.array_equal(dist.nm_batch(pats), expected_nm)
            assert len(dist.pool_names) == 1  # the killed pool is retired
    finally:
        faults.disarm()


def test_all_pools_dead_raises_worker_crash(setup, expected):
    s, store_path, store_dataset = setup
    pats, _, _ = expected
    server = WorkerPoolServer(WorkerPoolConfig(store_path=store_path, name="w2"))
    host, port = server.start()
    dist = ParallelNMEngine(
        store_dataset, s.grid, s.config, jobs=2, pools=[f"{host}:{port}"]
    )
    try:
        server.stop()
        with pytest.raises(WorkerCrashError, match="no pool survives"):
            dist.nm_batch(pats)
        with pytest.raises(RuntimeError, match="closed"):
            dist.nm_batch(pats)
    finally:
        dist.close()


def test_no_orphan_processes_after_failovers():
    assert not mp.active_children()
