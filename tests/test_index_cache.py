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
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from repro.uncertainty.gaussian import ProbModel
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


class TestStreamedWrite:
    """The payload is written from the CSR index a block at a time."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_streamed_csr_file_is_the_triple_payload(
        self, dataset, grid, config, monkeypatch, block
    ):
        """Blocks that split cells anywhere, or hold the whole index, give
        a file ``np.load`` reads as ``index_arrays()`` -- int64 / int64 /
        float64 -- and that installs bit-identical through ``load_index``."""
        monkeypatch.setattr(index_cache, "_WRITE_BLOCK", block)
        engine = NMEngine(dataset, grid, replace(config, cache_dir=None))
        path = index_cache.save_index_csr(config.cache_dir, "k", *engine.index_csr())
        with np.load(path) as payload:
            saved = [payload[k] for k in ("cells", "rows", "vals")]
        for got, want in zip(saved, engine.index_arrays()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert [a.dtype for a in saved] == [np.int64, np.int64, np.float64]
        loaded = index_cache.load_index(config.cache_dir, "k")
        warm = NMEngine(dataset, grid, config, prebuilt=loaded)
        for name in ("_cell_ids", "_cell_bounds", "_flat_rows", "_flat_vals",
                     "_seg_starts", "_seg_traj", "_cell_seg_starts"):  # fmt: skip
            a, b = getattr(warm, name), getattr(engine, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_triples_and_csr_write_equal_arrays(self, dataset, grid, config):
        engine = NMEngine(dataset, grid, replace(config, cache_dir=None))
        via_csr = index_cache.save_index_csr(config.cache_dir, "a", *engine.index_csr())
        via_triples = index_cache.save_index(config.cache_dir, "b", *engine.index_arrays())
        with np.load(via_csr) as a, np.load(via_triples) as b:
            assert sorted(a.files) == sorted(b.files) == ["cells", "rows", "vals"]
            for k in a.files:
                np.testing.assert_array_equal(a[k], b[k])
                assert a[k].dtype == b[k].dtype

    def test_empty_index_round_trips(self, config):
        empty = np.empty(0, dtype=np.int64)
        path = index_cache.save_index_csr(
            config.cache_dir, "e",
            np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int32), np.empty(0),
        )  # fmt: skip
        with np.load(path) as payload:
            assert [payload[k].shape for k in ("cells", "rows", "vals")] == [(0,)] * 3
        cells, rows, vals = index_cache.load_index(config.cache_dir, "e")
        assert len(cells) == len(rows) == len(vals) == 0
        assert cells.dtype == empty.dtype


class TestPinnedKeys:
    """Cache keys are stable across releases: a cache directory written by
    an earlier version keeps hitting.  The digests below were computed
    while ``EngineConfig`` still had fifteen fields; it now has the eight
    that engines read, and the key never read the other seven."""

    DATASET = TrajectoryDataset(
        [
            UncertainTrajectory(
                np.array([[0.1, 0.2], [0.15, 0.25], [0.2, 0.3]]),
                np.array([0.01, 0.02, 0.015]),
            ),
            UncertainTrajectory(np.array([[0.7, 0.6], [0.65, 0.55]]), 0.02),
        ]
    )
    GRID = Grid(BoundingBox(0.0, 0.0, 1.0, 1.0), nx=20, ny=20)
    CONFIGS = {
        "box": EngineConfig(delta=0.05, min_prob=1e-6),
        "disk": EngineConfig(
            delta=0.05,
            prob_model=ProbModel.DISK,
            min_prob=1e-5,
            radius_sigmas=3.0,
            max_cells_per_snapshot=16,
        ),
    }
    DIGESTS = {
        ("box", "ref"): "e4efe54ffdeb13ff28aace7e41b7e9fbf30899164bcc28e7230d0af9b6f5a78f",
        ("box", "cnative"): "5caa27c5de75e80901f41585f3555e4738d5f5f5f5c2750fafff98a89612f639",
        ("disk", "ref"): "8a4b44e66eddd7978a6597558df88dae44de4ad20985e067f8271884b79199d2",
        ("disk", "cnative"): "135559b14d649fde0ecf532b70d6c06f7cfb54947d15bcf5a10d4e4c8f35baef",
    }

    @pytest.mark.parametrize("config, tag", list(DIGESTS))
    def test_key_matches_pinned_digest(self, config, tag):
        key = index_cache.span_cache_key(
            index_cache.dataset_fingerprint(self.DATASET),
            0,
            len(self.DATASET),
            self.GRID,
            self.CONFIGS[config],
            kernel_tag=tag,
        )
        assert key == self.DIGESTS[config, tag]


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
        [dict(jobs=4), dict(cache_dir=None), dict(backend="compiled")],
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
