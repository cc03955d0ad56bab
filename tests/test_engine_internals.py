"""Tests for engine internals: index caps, column cache, interpolation view."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
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
    """The index build must not hold several copies of the entry arrays."""

    @pytest.mark.parametrize(
        "backend, prob_chunk_size",
        [
            # numpy's Prob evaluation holds several float64 temporaries per
            # (snapshot, cell) pair, which at the default 2^20-pair sweep
            # alone exceed the bound; 2^18 keeps them below the
            # sort-and-install peak this test is about.
            ("numpy", 1 << 18),
            ("compiled", None),
        ],
    )
    def test_peak_is_bounded_by_installed_bytes(self, backend, prob_chunk_size):
        import tracemalloc

        from repro.core import kernels
        from repro.testkit.datasets import seeded_dataset

        if backend == "compiled" and kernels.compiled_unavailable_reason():
            pytest.skip(kernels.compiled_unavailable_reason())
        dataset = seeded_dataset(7, n_trajectories=200, n_ticks=100)
        grid = dataset.make_grid(0.05)
        extra = {} if prob_chunk_size is None else {"prob_chunk_size": prob_chunk_size}
        config = EngineConfig(delta=0.05, backend=backend, **extra)
        NMEngine(dataset, grid, config)  # warm-up: imports, compiled library
        tracemalloc.start()
        try:
            engine = NMEngine(dataset, grid, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        installed = sum(a.nbytes for a in engine.index_arrays())
        assert engine.n_index_entries > 1_000_000
        # The compiled build counting-sorts the entry chunks into two
        # fresh arrays (measured 1.80x); a stable argsort of the joined
        # chunks plus permuted copies measured 2.09x.
        bound = 1.9 if backend == "compiled" else 2.5
        assert peak <= bound * installed, peak / installed


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


class TestColumnCache:
    def test_cache_eviction_preserves_values(self, wide_dataset):
        engine = NMEngine(
            wide_dataset,
            GRID,
            EngineConfig(delta=0.05, min_prob=1e-5, column_cache_size=2),
        )
        cells = engine.active_cells[:6]
        first_pass = [engine.nm(TrajectoryPattern((c,))) for c in cells]
        # Re-query in reverse: every column is a cache miss now.
        second_pass = [engine.nm(TrajectoryPattern((c,))) for c in reversed(cells)]
        assert first_pass == pytest.approx(list(reversed(second_pass)))
        assert len(engine._column_cache) <= 2

    def test_columns_are_immutable(self, wide_dataset):
        engine = NMEngine(wide_dataset, GRID, EngineConfig(delta=0.05, min_prob=1e-5))
        col = engine._column(engine.active_cells[0])
        with pytest.raises(ValueError):
            col[0] = 0.0


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
