"""Span-boundary edge cases for out-of-core evaluation on the inline pool.

The span cut has three easy-to-regress edges: a dataset whose size is an
exact multiple of ``chunk_size`` (no phantom empty span), a chunk size
equal to or larger than the dataset (one span), and ``chunk_size=1``
(maximum fragmentation).  In every geometry the result must equal the
monolithic in-memory engine, and with a cache directory configured each
span's index entry must round-trip (second scan warm) without perturbing
the values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import save_dataset_jsonl
from repro.trajectory.trajectory import UncertainTrajectory
from tests.conftest import streamed

N_TRAJECTORIES = 8


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    rng = np.random.default_rng(31)
    trajectories = []
    for i in range(N_TRAJECTORIES):
        start = rng.uniform(0.1, 0.5, 2)
        means = start + np.cumsum(rng.normal(0.015, 0.005, (12, 2)), axis=0)
        trajectories.append(UncertainTrajectory(means, 0.02, object_id=f"o{i}"))
    dataset = TrajectoryDataset(trajectories)
    grid = dataset.make_grid(0.05)
    config = EngineConfig(delta=0.05, min_prob=1e-6)
    path = tmp_path_factory.mktemp("stream") / "data.jsonl"
    save_dataset_jsonl(dataset, path)
    engine = NMEngine(dataset, grid, config)
    return path, grid, config, engine


def _patterns(engine, n=5):
    cells = engine.active_cells
    out = [TrajectoryPattern((int(c),)) for c in cells[:2]]
    out.append(TrajectoryPattern((int(cells[0]), int(cells[1]))))
    out.append(TrajectoryPattern((int(cells[1]), int(cells[2]), int(cells[0]))))
    return out[:n]


def _span_count(scenario, chunk_size) -> int:
    path, grid, config, engine = scenario
    with streamed(path, grid, config, chunk_size) as streaming:
        streaming.nm_batch(_patterns(engine))
        assert all(hi > lo for lo, hi in streaming.spans)
        return streaming.n_spans


class TestChunkCount:
    def test_exact_multiple_has_no_phantom_final_chunk(self, scenario):
        # 8 trajectories at chunk_size=4: exactly 2 spans, no empty third.
        assert _span_count(scenario, 4) == 2

    def test_chunk_size_equal_to_dataset(self, scenario):
        assert _span_count(scenario, N_TRAJECTORIES) == 1

    def test_chunk_size_larger_than_dataset(self, scenario):
        assert _span_count(scenario, 10_000) == 1

    def test_chunk_size_one(self, scenario):
        assert _span_count(scenario, 1) == N_TRAJECTORIES

    def test_ragged_final_chunk(self, scenario):
        # 8 trajectories at chunk_size=3: three spans, the tail a real one.
        assert _span_count(scenario, 3) == 3


class TestBoundaryEquivalence:
    """Every span geometry sums to the monolithic engine's answer."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 4, N_TRAJECTORIES, 10_000])
    def test_nm_equals_monolithic(self, scenario, chunk_size):
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        with streamed(path, grid, config, chunk_size) as streaming:
            np.testing.assert_allclose(
                streaming.nm_batch(patterns), engine.nm_batch(patterns), rtol=1e-12
            )

    @pytest.mark.parametrize("chunk_size", [1, 4, N_TRAJECTORIES])
    def test_match_equals_monolithic(self, scenario, chunk_size):
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        with streamed(path, grid, config, chunk_size) as streaming:
            np.testing.assert_allclose(
                streaming.match_batch(patterns),
                engine.match_batch(patterns),
                rtol=1e-12,
            )

    def test_singular_table_at_exact_multiple(self, scenario):
        path, grid, config, engine = scenario
        with streamed(path, grid, config, chunk_size=4) as streaming:
            got = streaming.singular_nm_table()
        expected = engine.singular_nm_table()
        assert set(got) == set(expected)
        for cell, value in expected.items():
            assert got[cell] == pytest.approx(value, rel=1e-12, abs=1e-12)


class TestPerChunkCaching:
    def test_chunk_caches_round_trip(self, scenario, tmp_path):
        # With cache_dir set, each span persists its own entry; a second
        # scan must hit every one of them and the values must stay
        # identical to both the cold scan and the monolithic engine.
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        cached = EngineConfig(
            delta=config.delta, min_prob=config.min_prob, cache_dir=str(tmp_path)
        )
        with streamed(path, grid, cached, chunk_size=3) as cold:
            cold_values = cold.nm_batch(patterns)
        files = sorted(tmp_path.glob("index-*.npz"))
        assert len(files) == 3  # one per span
        assert list(tmp_path.glob("*.tmp")) == []
        mtimes = [f.stat().st_mtime_ns for f in files]

        with streamed(path, grid, cached, chunk_size=3) as warm:
            assert warm.index_cache_hit
            warm_values = warm.nm_batch(patterns)
        assert sorted(tmp_path.glob("index-*.npz")) == files
        # A rebuild would overwrite in place: unchanged mtimes prove every
        # span loaded from disk instead.
        assert [f.stat().st_mtime_ns for f in files] == mtimes
        np.testing.assert_array_equal(warm_values, cold_values)
        np.testing.assert_allclose(
            warm_values, engine.nm_batch(patterns), rtol=1e-12
        )

    def test_monolithic_and_streaming_caches_coexist(self, scenario, tmp_path):
        # Span entries and the whole-dataset entry have different bounds:
        # they share a directory without colliding -- and a one-span scan
        # is the whole-dataset entry a serial engine then hits.
        path, grid, config, engine = scenario
        patterns = _patterns(engine)
        cached = EngineConfig(
            delta=config.delta, min_prob=config.min_prob, cache_dir=str(tmp_path)
        )
        with streamed(path, grid, cached, chunk_size=4) as streaming:
            streaming_values = streaming.nm_batch(patterns)
        full = NMEngine(engine.dataset, grid, cached)
        assert not full.index_cache_hit  # distinct key from the spans
        assert len(list(tmp_path.glob("index-*.npz"))) == 3  # 2 spans + full
        np.testing.assert_allclose(
            streaming_values, full.nm_batch(patterns), rtol=1e-12
        )
        with streamed(path, grid, cached, chunk_size=N_TRAJECTORIES) as whole:
            assert whole.index_cache_hit
