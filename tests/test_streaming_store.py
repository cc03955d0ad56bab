"""The inline pool over .tjc stores: parity with JSONL, span-cache reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.storage import write_store
from repro.testkit.datasets import seeded_dataset
from repro.trajectory.io import save_dataset_jsonl
from tests.conftest import streamed


@pytest.fixture(scope="module")
def eager():
    return seeded_dataset(4, n_trajectories=11, n_ticks=24)


@pytest.fixture(scope="module")
def paths(eager, tmp_path_factory):
    root = tmp_path_factory.mktemp("streams")
    jsonl = root / "d.jsonl"
    save_dataset_jsonl(eager, jsonl)
    store = write_store(eager, root / "d.tjc", compression="zlib")
    return jsonl, store


@pytest.fixture(scope="module")
def geometry(eager):
    grid = eager.make_grid(0.1)
    config = EngineConfig(delta=0.08, min_prob=1e-6)
    serial = NMEngine(eager, grid, config)
    cells = serial.active_cells
    patterns = [TrajectoryPattern((c,)) for c in cells[:4]] + [
        TrajectoryPattern((cells[0], cells[1])),
    ]
    return grid, config, patterns


@pytest.mark.parametrize("chunk_size", [1, 3, 5, 100])
def test_store_matches_jsonl_streaming(paths, geometry, chunk_size):
    jsonl, store = paths
    grid, config, patterns = geometry
    with streamed(jsonl, grid, config, chunk_size) as a, streamed(
        store, grid, config, chunk_size
    ) as b:
        assert a.spans == b.spans
        assert np.array_equal(a.nm_batch(patterns), b.nm_batch(patterns))
        assert np.array_equal(a.match_batch(patterns), b.match_batch(patterns))


def test_span_cache_cold_then_warm(paths, geometry, tmp_path):
    _, store = paths
    grid, config, patterns = geometry
    cached = EngineConfig(
        delta=config.delta, min_prob=config.min_prob, cache_dir=tmp_path
    )
    with streamed(store, grid, cached, chunk_size=4) as cold:
        assert cold.n_spans == 3  # ceil(11 / 4)
        nm_cold = cold.nm_batch(patterns)  # one scan per span, built and saved
        assert not cold.index_cache_hit
        snapshot = cold.obs_snapshot()
    assert snapshot["span_opens"] == 3
    assert snapshot["span_cache_hits"] == 0
    assert len(list(tmp_path.glob("index-*.npz"))) == 3

    with streamed(store, grid, cached, chunk_size=4) as warm:
        nm_warm = warm.nm_batch(patterns)
        assert warm.index_cache_hit
        snapshot = warm.obs_snapshot()
    assert snapshot["span_cache_hits"] == snapshot["span_opens"] == 3
    assert np.array_equal(nm_cold, nm_warm)

    # a different chunking misses the span cache (different span bounds)
    with streamed(store, grid, cached, chunk_size=6) as other:
        assert not other.index_cache_hit


def test_span_cache_is_bit_exact(paths, geometry, tmp_path):
    _, store = paths
    grid, config, patterns = geometry
    cached = EngineConfig(
        delta=config.delta, min_prob=config.min_prob, cache_dir=tmp_path
    )
    with streamed(store, grid, config, chunk_size=4) as plain:
        expected = plain.nm_batch(patterns)
    for _ in range(2):
        with streamed(store, grid, cached, chunk_size=4) as engine:
            assert np.array_equal(engine.nm_batch(patterns), expected)


def test_empty_store_raises(tmp_path, geometry):
    from repro.storage import StoreWriter

    grid, config, patterns = geometry
    with StoreWriter(tmp_path / "e.tjc"):
        pass
    with pytest.raises(ValueError, match="empty"):
        with streamed(tmp_path / "e.tjc", grid, config):
            pass


def test_rejects_non_dataset_file(tmp_path, geometry):
    grid, config, _ = geometry
    bad = tmp_path / "x.jsonl"
    bad.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError, match="not a repro trajectory"):
        with streamed(bad, grid, config):
            pass
