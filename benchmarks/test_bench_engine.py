"""Micro-benchmarks of the NM engine primitives.

Not a paper figure -- these quantify the building blocks that every
experiment stands on: index construction, single-pattern evaluation, the
bulk singular tables and the bulk extension tables.
"""

import pytest

from repro.core.engine import EngineConfig, NMEngine, build_csr
from repro.core.pattern import TrajectoryPattern
from repro.experiments.datasets import zebranet_dataset


@pytest.fixture(scope="module")
def dataset():
    return zebranet_dataset(n_trajectories=50, n_ticks=60, sigma=0.01, seed=7)


@pytest.fixture(scope="module")
def engine(dataset):
    grid = dataset.make_grid(0.02)
    return NMEngine(dataset, grid, EngineConfig(delta=0.02, min_prob=1e-4))


def test_bench_engine_index_build(benchmark, dataset):
    benchmark.group = "engine"
    grid = dataset.make_grid(0.02)

    def build():
        return NMEngine(dataset, grid, EngineConfig(delta=0.02, min_prob=1e-4))

    built = benchmark.pedantic(build, rounds=3, iterations=1)
    assert built.n_index_entries > 0


def test_bench_engine_index_entries_scalar(benchmark, engine):
    """Reference per-snapshot collection loop, kept for perf comparison."""
    benchmark.group = "engine"
    _, _, rows, _ = benchmark.pedantic(
        engine._collect_index_entries_scalar, rounds=3, iterations=1
    )
    assert len(rows) == engine.n_index_entries


def test_bench_engine_index_entries_vectorised(benchmark, engine):
    """Capacity pass, fill and compaction straight into the CSR index."""
    benchmark.group = "engine"
    (_, _, rows, _), _ = benchmark.pedantic(
        build_csr,
        args=(engine.dataset, engine.grid, engine.config, engine.kernel_backend),
        rounds=3,
        iterations=1,
    )
    assert len(rows) == engine.n_index_entries


def test_bench_engine_nm_evaluation(benchmark, engine):
    benchmark.group = "engine"
    cells = engine.active_cells
    pattern = TrajectoryPattern(tuple(cells[i] for i in (0, 5, 9, 13)))
    value = benchmark(lambda: engine.nm(pattern))
    assert value < 0


def _frontier(engine, n=256, seed=11):
    import numpy as np

    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    return [
        TrajectoryPattern(
            tuple(int(c) for c in rng.choice(cells, size=rng.integers(2, 6)))
        )
        for _ in range(n)
    ]


def test_bench_engine_nm_batch_frontier(benchmark, engine):
    benchmark.group = "engine"
    patterns = _frontier(engine)
    values = benchmark(lambda: engine.nm_batch(patterns))
    assert values.shape == (len(patterns),)


def test_bench_engine_singular_table(benchmark, engine):
    benchmark.group = "engine"
    table = benchmark(engine.singular_nm_table)
    assert len(table) == len(engine.active_cells)


def test_bench_engine_extension_tables(benchmark, engine):
    benchmark.group = "engine"
    base = TrajectoryPattern(tuple(engine.active_cells[:2]))
    (tables,) = benchmark(lambda: engine.extension_tables_many([base]))
    assert len(tables.nm_by_cell) == len(engine.active_cells)
