"""Tests for engine internals: index caps, column cache, interpolation view."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core.engine import EngineConfig, NMEngine
from repro.core.kernels import numpy_ref
from repro.core.pattern import TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.mobility.models import LinearModel
from repro.mobility.reporting import ReportingConfig, dead_reckon
from repro.mobility.objects import GroundTruthPath
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory


@pytest.fixture
def wide_dataset(rng):
    trajs = [
        UncertainTrajectory(
            rng.uniform(0.2, 0.8, (10, 2)), 0.05, object_id=f"w{i}"
        )
        for i in range(5)
    ]
    return TrajectoryDataset(trajs)


GRID = Grid(BoundingBox.unit(), nx=20, ny=20)


class TestBuildMemory:
    """The index costs a bounded number of bytes per entry, built and resident.

    Bounds are per entry: the engine keeps 12 bytes per entry (an
    ``int32`` row and a ``float64`` value) plus its per-cell and
    per-segment arrays.  The build fills an index allocated at its (snapshot, cell) pair count,
    so its peak is 12 bytes per pair plus one row chunk's listed pairs
    (8 bytes each on the compiled backend, whose ``place_pairs`` allocates
    nothing per pair).
    """

    #: The CSR index and its segments: int32 rows, float64 values, and
    #: per-cell ids and bounds and per-segment arrays (0.6 B/entry here).
    RESIDENT = (
        "_flat_rows", "_flat_vals", "_cell_ids", "_cell_bounds",
        "_seg_starts", "_seg_traj", "_cell_seg_starts",
    )  # fmt: skip

    @staticmethod
    def _traced_build(dataset, grid, config):
        """``(engine, traced peak bytes)`` of one warm construction."""
        import tracemalloc

        from repro.core import kernels

        if config.backend == "compiled" and kernels.compiled_unavailable_reason():
            pytest.skip(kernels.compiled_unavailable_reason())
        NMEngine(dataset, grid, replace(config, cache_dir=None))  # warm-up
        tracemalloc.start()
        try:
            engine = NMEngine(dataset, grid, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return engine, peak

    @staticmethod
    def _seeded():
        from repro.testkit.datasets import seeded_dataset

        dataset = seeded_dataset(7, n_trajectories=200, n_ticks=100)
        return dataset, dataset.make_grid(0.05)

    @pytest.mark.parametrize(
        "backend, pair_chunk, peak_bound",
        [
            # numpy's Prob evaluation holds several float64 temporaries per
            # (snapshot, cell) pair; sweeps of at most 2^18 pairs keep them
            # below the fill-and-install peak this test is about.  A row
            # chunk here lists at most 225,724 pairs, so none splits yet.
            ("numpy", 1 << 18, 36),
            ("compiled", None, 19),
        ],
        ids=["numpy", "compiled"],
    )
    def test_peak_and_resident_bytes_per_entry(
        self, backend, pair_chunk, peak_bound, monkeypatch
    ):
        dataset, grid = self._seeded()
        if pair_chunk is not None:
            monkeypatch.setattr(numpy_ref, "_PROB_SWEEP", pair_chunk)
        config = EngineConfig(delta=0.05, backend=backend)
        engine, peak = self._traced_build(dataset, grid, config)
        n = engine.n_index_entries
        assert n > 1_000_000
        # 1.21 pairs per entry here: 14.6 B/entry of capacity plus a row
        # chunk's listed pairs (compiled measured 17.0 B/entry; 23.1 while
        # each chunk gathered, evaluated, masked and cast per-pair arrays).
        # The numpy install's segmentation temporaries set its peak (30.1).
        # Entry chunks sorted into the CSR measured 28.1 and 30.1.
        assert peak / n <= peak_bound, peak / n
        resident = sum(getattr(engine, name).nbytes for name in self.RESIDENT)
        assert resident / n <= 13, resident / n  # measured 12.6
        assert engine.index_nbytes == resident

    def test_serve_score_herd_build_peak(self):
        """The serve-score benchmark's herd (1.19 pairs per entry) builds
        within 17.5 B/entry on the compiled backend (measured 16.4).  With
        per-pair gather, mask, log and cast arrays in each row chunk it
        peaked at 18.9, and sorting collected entry chunks into the CSR at
        28.3."""
        from repro.experiments.datasets import zebranet_dataset

        dataset = zebranet_dataset(n_trajectories=300, n_ticks=150, sigma=0.01, seed=2)
        config = EngineConfig(delta=0.02, min_prob=1e-6, backend="compiled")
        engine, peak = self._traced_build(dataset, dataset.make_grid(0.02), config)
        n = engine.n_index_entries
        assert n > 1_500_000
        assert peak / n <= 17.5, peak / n
        assert engine.n_index_pairs > n

    def test_serve_score_herd_warm_load_peak(self, tmp_path):
        """A warm index-cache load of the serve-score herd (compiled
        backend) peaks within 15 B/entry (measured 13.3): the payload is
        the engine's CSR, read and installed as it is.  Loading ``int64``
        (cell, row, value) triples and converting them back peaked at
        29.3."""
        from repro.experiments.datasets import zebranet_dataset

        dataset = zebranet_dataset(n_trajectories=300, n_ticks=150, sigma=0.01, seed=2)
        grid = dataset.make_grid(0.02)
        config = EngineConfig(
            delta=0.02, min_prob=1e-6, backend="compiled", cache_dir=str(tmp_path)
        )
        engine, peak = self._traced_build(dataset, grid, config)  # cold: writes
        assert not engine.index_cache_hit
        del engine
        engine, peak = self._traced_build(dataset, grid, config)
        assert engine.index_cache_hit
        n = engine.n_index_entries
        assert n > 1_500_000
        assert peak / n <= 15, peak / n

    def test_cache_miss_build_adds_under_a_byte_per_entry(self, tmp_path):
        """A build that misses the index cache and saves its result peaks
        within 1 B/entry of the same build without a cache: the payload is
        the CSR, written straight from the engine's arrays.  Building whole
        int64 triples for the write measured 37.3 B/entry against 28.1."""
        dataset, grid = self._seeded()
        config = EngineConfig(delta=0.05, backend="auto")
        plain, plain_peak = self._traced_build(dataset, grid, config)
        cached = replace(config, cache_dir=str(tmp_path))
        engine, peak = self._traced_build(dataset, grid, cached)
        assert not engine.index_cache_hit and list(tmp_path.glob("index-*.npz"))
        n = engine.n_index_entries
        assert n == plain.n_index_entries
        assert (peak - plain_peak) / n <= 1.0, (peak - plain_peak) / n


class TestIndexCaps:
    def test_max_cells_per_snapshot_caps_entries(self, wide_dataset):
        full = NMEngine(
            wide_dataset, GRID, EngineConfig(delta=0.05, min_prob=1e-6)
        )
        capped = NMEngine(
            wide_dataset,
            GRID,
            EngineConfig(delta=0.05, min_prob=1e-6, max_cells_per_snapshot=8),
        )
        assert capped.n_index_entries <= 8 * wide_dataset.total_snapshots()
        assert capped.n_index_entries < full.n_index_entries

    def test_cap_keeps_highest_probability_cells(self, wide_dataset):
        """The capped index keeps the best cells: the top pattern of the
        capped engine is the same as the full engine's."""
        full = NMEngine(
            wide_dataset, GRID, EngineConfig(delta=0.05, min_prob=1e-6)
        )
        capped = NMEngine(
            wide_dataset,
            GRID,
            EngineConfig(delta=0.05, min_prob=1e-6, max_cells_per_snapshot=16),
        )
        best_full = max(full.singular_nm_table().items(), key=lambda kv: kv[1])
        best_capped = max(capped.singular_nm_table().items(), key=lambda kv: kv[1])
        assert best_full[0] == best_capped[0]

    def test_larger_min_prob_shrinks_index(self, wide_dataset):
        loose = NMEngine(
            wide_dataset, GRID, EngineConfig(delta=0.05, min_prob=1e-3)
        )
        tight = NMEngine(
            wide_dataset, GRID, EngineConfig(delta=0.05, min_prob=1e-8)
        )
        assert loose.n_index_entries < tight.n_index_entries


class TestInterpolatedTrajectory:
    def _tracked(self):
        t = np.arange(30, dtype=float)
        xs = np.where(t < 15, 0.02 * t, 0.3)  # cruise then hard stop
        path = GroundTruthPath(np.column_stack([xs, np.zeros(30)]))
        return path, dead_reckon(
            path, LinearModel(), ReportingConfig(uncertainty=0.03)
        )

    def test_interpolation_pins_deliveries(self):
        _, log = self._tracked()
        interp = log.to_interpolated_trajectory()
        delivered = np.nonzero(log.delivered)[0]
        assert np.allclose(interp.means[delivered], log.estimates[delivered])

    def test_interpolation_is_linear_between_deliveries(self):
        _, log = self._tracked()
        interp = log.to_interpolated_trajectory()
        delivered = np.nonzero(log.delivered)[0]
        for left, right in zip(delivered[:-1], delivered[1:]):
            if right - left > 1:
                segment = interp.means[left : right + 1]
                diffs = np.diff(segment, axis=0)
                assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_interpolated_velocities_closer_to_truth(self):
        """The motivation for interpolating the mining input: its velocity
        sequence tracks the true motion better than the live estimates'
        (live dead reckoning coasts through manoeuvres until corrected)."""
        path, log = self._tracked()
        true_v = np.diff(path.positions, axis=0)
        live_v = np.diff(log.estimates, axis=0)
        interp_v = np.diff(log.to_interpolated_trajectory().means, axis=0)
        live_err = np.hypot(*(live_v - true_v).T).sum()
        interp_err = np.hypot(*(interp_v - true_v).T).sum()
        assert interp_err < live_err

    def test_few_deliveries_falls_back_to_live(self):
        path = GroundTruthPath(np.zeros((5, 2)))
        log = dead_reckon(path, LinearModel(), ReportingConfig(uncertainty=1.0))
        interp = log.to_interpolated_trajectory()
        assert np.allclose(interp.means, log.estimates)

    def test_server_dataset_flag(self):
        from repro.mobility.server import track_fleet

        path, _ = self._tracked()
        result = track_fleet([path], LinearModel, ReportingConfig(uncertainty=0.03))
        live = result.to_dataset()
        interp = result.to_dataset(interpolated=True)
        assert live.metadata["interpolated"] is False
        assert interp.metadata["interpolated"] is True
