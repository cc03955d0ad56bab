"""The persistent index cache: hits, invalidation, corruption fallback.

Covers the satellite requirements: a cache hit reproduces the index
bit-for-bit; any change to the dataset or to an index-affecting config
knob invalidates the key; unreadable files of every stripe fall back to a
fresh build instead of crashing; and serial and parallel engines share
one whole-dataset cache entry in both directions, while a multi-span
engine keeps one entry per span.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import index_cache
from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from tests.conftest import dataset_cache_key


@pytest.fixture
def dataset(rng):
    trajectories = []
    for i in range(6):
        means = rng.uniform(0.2, 0.4, 2) + np.cumsum(
            rng.normal(0.02, 0.005, (15, 2)), axis=0
        )
        trajectories.append(UncertainTrajectory(means, 0.02, object_id=f"t{i}"))
    return TrajectoryDataset(trajectories)


@pytest.fixture
def grid(dataset):
    return dataset.make_grid(0.04)


@pytest.fixture
def config(tmp_path):
    return EngineConfig(delta=0.04, min_prob=1e-5, cache_dir=tmp_path / "cache")


class TestCacheHit:
    def test_cold_build_writes_then_warm_hit_is_identical(
        self, dataset, grid, config
    ):
        cold = NMEngine(dataset, grid, config)
        assert not cold.index_cache_hit
        key = dataset_cache_key(dataset, grid, config)
        assert index_cache.cache_path(config.cache_dir, key).exists()

        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit
        for a, b in zip(warm.index_arrays(), cold.index_arrays()):
            np.testing.assert_array_equal(a, b)
        assert warm.active_cells == cold.active_cells

        patterns_cells = cold.active_cells[:3]
        from repro.core.pattern import TrajectoryPattern

        patterns = [TrajectoryPattern((c,)) for c in patterns_cells]
        np.testing.assert_array_equal(
            warm.nm_batch(patterns), cold.nm_batch(patterns)
        )

    def test_no_cache_dir_means_no_files(self, dataset, grid, tmp_path):
        config = EngineConfig(delta=0.04, min_prob=1e-5)
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert list(tmp_path.iterdir()) == []

    def test_no_stray_temp_files_after_save(self, dataset, grid, config):
        NMEngine(dataset, grid, config)
        leftovers = [
            p for p in config.cache_dir.iterdir() if not p.name.endswith(".npz")
        ]
        assert leftovers == []


class TestInvalidation:
    def test_grid_resolution_changes_key(self, dataset, grid, config):
        other_grid = dataset.make_grid(0.08)
        assert dataset_cache_key(dataset, grid, config) != dataset_cache_key(
            dataset, other_grid, config
        )

    @pytest.mark.parametrize(
        "change",
        [
            dict(min_prob=1e-4),
            dict(delta=0.05),
            dict(radius_sigmas=2.5),
            dict(max_cells_per_snapshot=7),
        ],
    )
    def test_index_affecting_config_changes_key(self, dataset, grid, config, change):
        changed = replace(config, **change)
        assert dataset_cache_key(dataset, grid, config) != dataset_cache_key(
            dataset, grid, changed
        )

    @pytest.mark.parametrize(
        "change",
        [dict(jobs=4), dict(cache_dir=None), dict(column_cache_size=3)],
    )
    def test_non_index_knobs_do_not_change_key(self, dataset, grid, config, change):
        changed = replace(config, **change)
        assert dataset_cache_key(dataset, grid, config) == dataset_cache_key(
            dataset, grid, changed
        )

    def test_sigma_change_invalidates(self, dataset, grid, config):
        key = dataset_cache_key(dataset, grid, config)
        bumped = [
            UncertainTrajectory(t.means, t.sigmas * (1.001 if i == 3 else 1.0))
            for i, t in enumerate(dataset)
        ]
        assert key != dataset_cache_key(TrajectoryDataset(bumped), grid, config)

    def test_mean_change_invalidates(self, dataset, grid, config):
        key = dataset_cache_key(dataset, grid, config)
        moved = [
            UncertainTrajectory(
                t.means + (1e-9 if i == 0 else 0.0), t.sigmas
            )
            for i, t in enumerate(dataset)
        ]
        assert key != dataset_cache_key(TrajectoryDataset(moved), grid, config)

    def test_trajectory_reordering_invalidates(self, dataset, grid, config):
        key = dataset_cache_key(dataset, grid, config)
        reordered = dataset.subset(list(reversed(range(len(dataset)))))
        assert key != dataset_cache_key(reordered, grid, config)

    def test_engine_rebuilds_on_changed_config(self, dataset, grid, config):
        NMEngine(dataset, grid, config)
        changed = replace(config, min_prob=1e-4)
        engine = NMEngine(dataset, grid, changed)
        assert not engine.index_cache_hit  # different key => cold build


class TestCorruptionFallback:
    def _populate(self, dataset, grid, config):
        NMEngine(dataset, grid, config)
        key = dataset_cache_key(dataset, grid, config)
        return index_cache.cache_path(config.cache_dir, key)

    def test_truncated_file_falls_back(self, dataset, grid, config):
        path = self._populate(dataset, grid, config)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        # ... and the fresh build healed the file for the next run.
        assert NMEngine(dataset, grid, config).index_cache_hit

    def test_garbage_file_falls_back(self, dataset, grid, config):
        path = self._populate(dataset, grid, config)
        path.write_text("this is not a zip archive")
        assert not NMEngine(dataset, grid, config).index_cache_hit

    def test_missing_payload_key_falls_back(self, dataset, grid, config):
        path = self._populate(dataset, grid, config)
        np.savez(path, cells=np.zeros(1, dtype=np.int64))  # rows/vals missing
        assert index_cache.load_index(config.cache_dir, path.stem[6:]) is None
        assert not NMEngine(dataset, grid, config).index_cache_hit

    def test_wrong_shape_or_dtype_falls_back(self, dataset, grid, config):
        path = self._populate(dataset, grid, config)
        key = path.stem[len("index-") :]
        np.savez(
            path,
            cells=np.zeros((2, 2), dtype=np.int64),
            rows=np.zeros(4, dtype=np.int64),
            vals=np.zeros(4),
        )
        assert index_cache.load_index(config.cache_dir, key) is None
        np.savez(
            path,
            cells=np.zeros(4, dtype=np.float64),  # float cells
            rows=np.zeros(4, dtype=np.int64),
            vals=np.zeros(4),
        )
        assert index_cache.load_index(config.cache_dir, key) is None
        np.savez(
            path,
            cells=np.zeros(4, dtype=np.int64),
            rows=np.zeros(3, dtype=np.int64),  # length mismatch
            vals=np.zeros(4),
        )
        assert index_cache.load_index(config.cache_dir, key) is None

    def test_missing_file_is_a_miss(self, config):
        assert index_cache.load_index(config.cache_dir, "0" * 64) is None


class TestSerialParallelSharing:
    def test_parallel_cold_write_serial_warm_read(self, dataset, grid, config):
        # A one-span engine writes the whole-dataset entry.
        with ParallelNMEngine(dataset, grid, config, jobs=1) as par:
            assert not par.index_cache_hit
        reference = NMEngine(dataset, grid, replace(config, cache_dir=None))
        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit
        for a, b in zip(warm.index_arrays(), reference.index_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_serial_cold_write_parallel_warm_read(self, dataset, grid, config):
        reference = NMEngine(dataset, grid, config)
        assert not reference.index_cache_hit
        for pools in (("local",), ("inline",)):
            with ParallelNMEngine(dataset, grid, config, jobs=1, pools=pools) as par:
                assert par.index_cache_hit
                assert par.n_index_entries == reference.n_index_entries
                from repro.core.pattern import TrajectoryPattern

                patterns = [
                    TrajectoryPattern((c,)) for c in reference.active_cells[:4]
                ]
                np.testing.assert_array_equal(
                    par.nm_batch(patterns), reference.nm_batch(patterns)
                )

    def test_span_entries_warm_the_same_partition(self, dataset, grid, config):
        # Each span worker saves its own entry; the parent never merges.
        with ParallelNMEngine(dataset, grid, config, jobs=3) as cold:
            assert not cold.index_cache_hit
            spans = cold.spans
        assert len(list(config.cache_dir.glob("index-*.npz"))) == 3
        with ParallelNMEngine(dataset, grid, config, jobs=3) as warm:
            assert warm.spans == spans
            assert warm.index_cache_hit
            assert warm.obs_snapshot()["span_cache_hits"] == 3
