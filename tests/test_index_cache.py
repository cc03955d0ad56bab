"""The persistent index cache: hits, invalidation, corruption fallback.

A cache file holds the engine's CSR index as it is, and a hit installs
the cold build's arrays bit-for-bit; any change to the dataset or to an
index-affecting config knob invalidates the key; unreadable files of
every stripe fall back to a fresh build instead of crashing; and serial
and parallel engines share one whole-dataset cache entry in both
directions, while a multi-span engine keeps one entry per span.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core import index_cache, kernels
from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine, span_dataset
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from repro.uncertainty.gaussian import ProbModel
from tests.conftest import INDEX_ARRAYS, dataset_cache_key


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


def _assert_same_install(got: NMEngine, want: NMEngine) -> None:
    for name in INDEX_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _load(dataset, grid, config, key):
    """``load_index`` bounded by ``dataset``, ``grid`` and ``config``."""
    return index_cache.load_index(
        config.cache_dir, key, n_rows=dataset.total_snapshots(),
        n_cells=grid.n_cells, floor=config.min_log_prob,
    )  # fmt: skip


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
        _assert_same_install(warm, cold)
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
    """A cache file holds exactly the engine's CSR arrays, each ``.npy``
    member written straight from its array, and loads back to them."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_streamed_csr_file_is_the_triple_payload(
        self, dataset, grid, config, monkeypatch, block
    ):
        """A build that streams the rows in blocks splitting cells anywhere,
        or holding the whole dataset, writes a file ``np.load`` reads as
        exactly its ``index_csr()`` -- int32 / int64 / int32 / float64 --
        equal to an unblocked build's, and a warm engine installs it
        bit-identical.  (The name is format 1's, whose payload held
        ``(cell, row, value)`` triples.)"""
        want = NMEngine(dataset, grid, replace(config, cache_dir=None)).index_csr()
        monkeypatch.setattr(engine_module, "_INDEX_ROW_CHUNK", block)
        engine = NMEngine(dataset, grid, config)
        key = dataset_cache_key(dataset, grid, config)
        with np.load(index_cache.cache_path(config.cache_dir, key)) as payload:
            assert payload.files == ["cell_ids", "cell_bounds", "rows", "vals"]
            saved = [payload[k] for k in payload.files]
        assert [a.dtype for a in saved] == [np.int32, np.int64, np.int32, np.float64]
        for got, built, cold in zip(saved, engine.index_csr(), want):
            assert got.dtype == built.dtype and got.tobytes() == built.tobytes()
            assert got.tobytes() == cold.tobytes()
        assert index_cache.CACHE_FORMAT_VERSION == 2
        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit
        _assert_same_install(warm, engine)

    @pytest.mark.parametrize("model", [ProbModel.BOX, ProbModel.DISK], ids=["box", "disk"])
    @pytest.mark.parametrize("backend", ["numpy", "compiled"])
    def test_warm_load_installs_the_cold_arrays(
        self, dataset, grid, config, backend, model
    ):
        if backend == "compiled" and kernels.compiled_unavailable_reason():
            pytest.skip(kernels.compiled_unavailable_reason())
        config = replace(config, backend=backend, prob_model=model)
        cold = NMEngine(dataset, grid, config)
        warm = NMEngine(dataset, grid, config)
        assert not cold.index_cache_hit and warm.index_cache_hit
        assert warm.n_index_entries > 0
        _assert_same_install(warm, cold)
        _assert_same_install(warm, NMEngine(dataset, grid, replace(config, cache_dir=None)))

    def test_empty_index_round_trips(self, dataset, grid, config):
        """No cell reaches a 0.999 floor: the empty index is written and
        loads back as itself."""
        config = replace(config, min_prob=0.999)
        cold = NMEngine(dataset, grid, config)
        assert cold.n_index_entries == 0
        key = dataset_cache_key(dataset, grid, config)
        cell_ids, cell_bounds, rows, vals = _load(dataset, grid, config, key)
        assert len(cell_ids) == len(rows) == len(vals) == 0
        assert cell_bounds.tolist() == [0]
        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit
        _assert_same_install(warm, cold)

    def test_span_entries_round_trip_with_span_local_rows(
        self, dataset, grid, config
    ):
        """Each span worker of a 2-span engine writes its own entry, with
        rows local to its span, and an engine over that span loads it."""
        with ParallelNMEngine(dataset, grid, config, jobs=2) as par:
            spans = par.spans
        assert len(spans) == 2
        fingerprint = index_cache.dataset_fingerprint(dataset)
        for lo, hi in spans:
            key = index_cache.span_cache_key(
                fingerprint, lo, hi, grid, config,
                kernel_tag=kernels.prob_kernel_tag(config),
            )  # fmt: skip
            span = span_dataset(dataset, lo, hi)
            cold = NMEngine(span, grid, replace(config, cache_dir=None))
            warm = NMEngine(span, grid, config, cache_key=key)
            assert warm.index_cache_hit
            assert warm.index_csr()[2].max() < span.total_snapshots()
            _assert_same_install(warm, cold)

    @pytest.mark.parametrize(
        "name, dtype",
        [
            ("rows", np.int64),
            ("vals", np.float32),
            ("cell_ids", np.int64),
            ("cell_bounds", np.int32),
        ],
        ids=["int64-rows", "float32-vals", "int64-cell-ids", "int32-bounds"],
    )
    def test_save_refuses_other_dtypes(self, dataset, grid, config, name, dtype):
        engine = NMEngine(dataset, grid, replace(config, cache_dir=None))
        csr = dict(zip(("cell_ids", "cell_bounds", "rows", "vals"), engine.index_csr()))
        csr[name] = csr[name].astype(dtype)
        with pytest.raises(ValueError, match=name):
            index_cache.save_index(config.cache_dir, "k", **csr)
        assert not config.cache_dir.exists()

    def test_save_refuses_inconsistent_lengths(self, dataset, grid, config):
        cell_ids, cell_bounds, rows, vals = NMEngine(
            dataset, grid, replace(config, cache_dir=None)
        ).index_csr()
        for bad in (
            (cell_ids[:-1], cell_bounds, rows, vals),
            (cell_ids, cell_bounds, rows[:-1], vals),
            (cell_ids, cell_bounds, rows[:-1], vals[:-1]),
        ):
            with pytest.raises(ValueError, match="not a CSR index"):
                index_cache.save_index(config.cache_dir, "k", *bad)
        assert not config.cache_dir.exists()


class TestPinnedKeys:
    """Cache keys change only with ``CACHE_FORMAT_VERSION``: within one
    format, a cache directory written by an earlier version keeps hitting.
    The digests below are format 2's (the CSR payload); format 1's, which
    stored ``(cell, row, value)`` triples, were computed while
    ``EngineConfig`` still had fifteen fields, and the key never read the
    seven it lost."""

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
        ("box", "ref"): "98ace36cb4cacc125ae85317b5730d2e9b98f4f1091568743d8aecdf3933b525",
        ("box", "cnative"): "a211dfb142c3f35c020b6746092ee3534509fcea3676dcde32c431991927013c",
        ("disk", "ref"): "9d8203ec98f8e17e1342f4204166882734084dc6d7e6b8ffec0ea44f2badb944",
        ("disk", "cnative"): "4ed35c59e8c791160a7fea8f86d13d444d16e08bdca11b5507c7e87f4d6bb810",
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
        [dict(cache_dir="elsewhere"), dict(cache_dir=None), dict(backend="compiled")],
    )
    def test_non_index_knobs_do_not_change_key(self, dataset, grid, config, change):
        # The backend reaches the key only through its Prob kernel tag
        # (tests/test_kernels.py::test_cache_key_kernel_tag), held fixed here.
        changed = replace(config, **change)
        assert dataset_cache_key(
            dataset, grid, config, kernel_tag="ref"
        ) == dataset_cache_key(dataset, grid, changed, kernel_tag="ref")

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
        # rows and vals missing
        np.savez(path, cell_ids=np.zeros(1, dtype=np.int32),
                 cell_bounds=np.array([0, 1]))  # fmt: skip
        assert _load(dataset, grid, config, path.stem[6:]) is None
        assert not NMEngine(dataset, grid, config).index_cache_hit

    def test_wrong_shape_or_dtype_falls_back(self, dataset, grid, config):
        path = self._populate(dataset, grid, config)
        key = path.stem[len("index-") :]
        good = dict(
            cell_ids=np.array([0, 1], dtype=np.int32),
            cell_bounds=np.array([0, 2, 4]),
            rows=np.array([0, 1, 0, 1], dtype=np.int32),
            vals=np.full(4, -1.0),
        )
        np.savez(path, **good)
        assert _load(dataset, grid, config, key) is not None
        for name, bad in (
            ("cell_ids", np.array([[0, 1]], dtype=np.int32)),  # not 1-D
            ("cell_ids", np.array([0.0, 1.0])),  # float cells
            ("rows", np.array([0, 1, 0], dtype=np.int32)),  # length mismatch
        ):
            np.savez(path, **{**good, name: bad})
            assert _load(dataset, grid, config, key) is None, (name, bad)

    def test_missing_file_is_a_miss(self, dataset, grid, config):
        assert _load(dataset, grid, config, "0" * 64) is None


class TestSerialParallelSharing:
    def test_parallel_cold_write_serial_warm_read(self, dataset, grid, config):
        # A one-span engine writes the whole-dataset entry.
        with ParallelNMEngine(dataset, grid, config, jobs=1) as par:
            assert not par.index_cache_hit
        reference = NMEngine(dataset, grid, replace(config, cache_dir=None))
        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit
        _assert_same_install(warm, reference)

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
