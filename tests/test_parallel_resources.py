"""Resource flatness: opening and closing engines must not leak.

Twenty open/close cycles of each pool kind (inline, fork, loopback
remote) must leave the process's open fds, live child processes and
threads where they were after warm-up, and nothing may ever appear in
``/dev/shm`` -- the coordinator hands spans over as datasets, never as
shared-memory segments.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import threading
import time

import pytest

from repro.core.parallel import ParallelNMEngine
from repro.core.pattern import TrajectoryPattern
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer
from repro.storage import open_store, write_store
from repro.testkit.datasets import oracle_setup

CYCLES = 20
WARMUP = 2


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    s = oracle_setup(404, quick=True)
    path = write_store(s.dataset, tmp_path_factory.mktemp("res") / "data.tjc")
    with open_store(path) as store, WorkerPoolServer(
        WorkerPoolConfig(store_path=str(path), name="res")
    ) as server:
        yield s, store.dataset(), f"{server.config.host}:{server.port}"


def _resources() -> tuple[int, int, int]:
    return (
        len(os.listdir("/proc/self/fd")),
        len(mp.active_children()),
        threading.active_count(),
    )


def _settled(baseline: tuple[int, int, int], timeout_s: float = 5.0):
    """Current resources once none exceeds ``baseline`` (or at the timeout).

    Polled briefly: a worker's session thread and socket close
    asynchronously after the coordinator hangs up.  A leak never settles.
    """
    deadline = time.monotonic() + timeout_s
    current = _resources()
    while any(c > b for c, b in zip(current, baseline)) and time.monotonic() < deadline:
        time.sleep(0.02)
        current = _resources()
    return current


@pytest.mark.parametrize("kind", ["inline", "local", "remote"])
def test_open_close_cycles_hold_resources_flat(setup, kind):
    s, dataset, remote = setup
    pools = (remote,) if kind == "remote" else (kind,)
    baseline = None
    for cycle in range(CYCLES):
        with ParallelNMEngine(dataset, s.grid, s.config, jobs=2, pools=pools) as engine:
            engine.nm_batch([TrajectoryPattern((engine.active_cells[0],))])
            assert glob.glob("/dev/shm/repro-shm-*") == []
        if cycle + 1 == WARMUP:
            time.sleep(0.2)
            baseline = _resources()
        elif baseline is not None:
            current = _settled(baseline)
            assert all(c <= b for c, b in zip(current, baseline)), (cycle, current)
    assert mp.active_children() == []
    assert glob.glob("/dev/shm/repro-shm-*") == []
