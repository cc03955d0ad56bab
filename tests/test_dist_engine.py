"""Remote pools vs fork pools: bit-identical across a real socket.

One worker pool runs in-process (threads + loopback TCP), one pool is
the local fork kind, so every test exercises the mixed-pool dispatch
path of :class:`~repro.core.parallel.ParallelNMEngine`.  All comparisons
are exact (``==`` / ``array_equal``): every pool kind feeds the same merge
functions over the same span partition, so there is no tolerance to hide
behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import NMEngine
from repro.core.parallel import ParallelNMEngine, parse_pool_spec
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.core.wildcards import Gap, GapPattern
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer
from repro.storage import open_store, write_store
from repro.testkit.datasets import oracle_setup


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    s = oracle_setup(101, quick=True)
    store_path = str(tmp_path_factory.mktemp("dist") / "data.tjc")
    write_store(s.dataset, store_path)
    return s, store_path, open_store(store_path).dataset()


@pytest.fixture(scope="module")
def pool_server(setup):
    _, store_path, _ = setup
    server = WorkerPoolServer(WorkerPoolConfig(store_path=store_path, name="w0"))
    host, port = server.start()
    yield f"{host}:{port}"
    server.stop()


@pytest.fixture(scope="module")
def engines(setup, pool_server):
    s, _, store_dataset = setup
    par = ParallelNMEngine(store_dataset, s.grid, s.config, jobs=4)
    dist = ParallelNMEngine(
        store_dataset, s.grid, s.config, jobs=4, pools=["local", pool_server]
    )
    yield par, dist
    dist.close()
    par.close()


def _patterns(engine):
    cells = engine.active_cells[:6]
    return [TrajectoryPattern((c,)) for c in cells] + [
        TrajectoryPattern((cells[0], cells[1]))
    ]


def test_parse_pool_spec():
    assert parse_pool_spec("inline") == ("inline", None)
    assert parse_pool_spec("local") == ("local", None)
    assert parse_pool_spec("10.0.0.7:9000") == ("remote", ("10.0.0.7", 9000))
    for bad in ("", ":9000", "host:", "host:x"):
        with pytest.raises(ValueError):
            parse_pool_spec(bad)


def test_active_cells_and_metadata_match(engines):
    par, dist = engines
    assert dist.active_cells == par.active_cells
    assert dist.n_index_entries == par.n_index_entries
    assert dist.pool_names == ["local-0", "remote-1"]


def test_nm_and_match_batches_bitwise_equal(engines):
    par, dist = engines
    pats = _patterns(par)
    assert np.array_equal(par.nm_batch(pats), dist.nm_batch(pats))
    assert np.array_equal(par.match_batch(pats), dist.match_batch(pats))


def test_singular_tables_equal(engines):
    par, dist = engines
    assert par.singular_nm_table() == dist.singular_nm_table()
    assert par.singular_match_table() == dist.singular_match_table()


def test_extension_tables_equal(engines):
    par, dist = engines
    pats = _patterns(par)[:2] + _patterns(par)[-1:]
    got = dist.extension_tables_many(pats)
    assert len(got) == len(pats)
    # Whole tables, base totals included; float fields compared with ==.
    assert got == par.extension_tables_many(pats)


def test_gap_pattern_total_equal(engines):
    par, dist = engines
    cells = par.active_cells
    gp = GapPattern(
        (TrajectoryPattern((cells[0],)), TrajectoryPattern((cells[1],))),
        (Gap(0, 2),),
    )
    assert par.nm_gap_pattern_total(gp) == dist.nm_gap_pattern_total(gp)


def test_miner_top_k_identical_to_parallel(setup, pool_server):
    """Full mining runs on the dist engine reproduce the parallel engine
    bit-for-bit (same span partition, same flat merge), and agree with a
    serial mine on which patterns win."""
    s, _, store_dataset = setup
    serial = TrajPatternMiner(NMEngine(s.dataset, s.grid, s.config), k=5).mine()
    with ParallelNMEngine(store_dataset, s.grid, s.config, jobs=3) as par:
        parallel = TrajPatternMiner(par, k=5).mine()
    with ParallelNMEngine(
        store_dataset, s.grid, s.config, jobs=3, pools=["local", pool_server]
    ) as dist:
        mined = TrajPatternMiner(dist, k=5).mine()
    assert [p.cells for p, _ in mined.as_pairs()] == [
        p.cells for p, _ in serial.as_pairs()
    ]
    assert [p.cells for p, _ in mined.as_pairs()] == [
        p.cells for p, _ in parallel.as_pairs()
    ]
    for (_, nm_d), (_, nm_p) in zip(mined.as_pairs(), parallel.as_pairs()):
        assert nm_d == nm_p


def test_obs_snapshot_attributes_spans_to_pools(engines):
    _, dist = engines
    snap = dist.obs_snapshot()
    assert snap["n_spans"] == 4
    assert [entry["pool"] for entry in snap["spans"]] == [
        "local-0",
        "remote-1",
        "local-0",
        "remote-1",
    ]
    assert [entry["span"] for entry in snap["spans"]] == [0, 1, 2, 3]


def test_requires_store_backed_dataset(setup):
    s, _, _ = setup
    with pytest.raises(ValueError, match="store"):
        ParallelNMEngine(s.dataset, s.grid, s.config, jobs=2, pools=["localhost:1"])


def test_remote_pool_rejects_mismatched_store(setup, tmp_path):
    """A worker serving different data must refuse the handshake loudly."""
    s, _, store_dataset = setup
    other = oracle_setup(777, quick=True)
    other_path = str(tmp_path / "other.tjc")
    write_store(other.dataset, other_path)
    server = WorkerPoolServer(WorkerPoolConfig(store_path=other_path, name="wx"))
    host, port = server.start()
    try:
        with pytest.raises(RuntimeError, match="store"):
            ParallelNMEngine(
                store_dataset, s.grid, s.config, jobs=2, pools=[f"{host}:{port}"]
            )
    finally:
        server.stop()


def test_no_processes_leak(setup, pool_server):
    import multiprocessing as mp

    s, _, store_dataset = setup
    before = set(mp.active_children())
    dist = ParallelNMEngine(
        store_dataset, s.grid, s.config, jobs=4, pools=["local", pool_server]
    )
    dist.nm_batch([TrajectoryPattern((dist.active_cells[0],))])
    assert set(mp.active_children()) > before  # local pool forked workers
    dist.close()
    assert set(mp.active_children()) == before
