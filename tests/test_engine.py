"""Unit and equivalence tests for the vectorised NM engine.

The central claim: :class:`NMEngine` computes exactly the same NM / match
values as the scalar reference implementation in
:mod:`repro.core.measures`, for every pattern, at floating-point accuracy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.engine import EngineConfig, NMEngine, build_engine
from repro.core.measures import (
    match_pattern_dataset,
    nm_pattern_dataset,
    nm_pattern_trajectory,
)
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from repro.uncertainty.gaussian import ProbModel
from tests.conftest import scalar_measures


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(delta=0.0)
        with pytest.raises(ValueError):
            EngineConfig(delta=0.1, min_prob=0.0)
        with pytest.raises(ValueError):
            EngineConfig(delta=0.1, min_prob=2.0)
        with pytest.raises(ValueError):
            EngineConfig(delta=0.1, radius_sigmas=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta", np.inf),
            ("delta", np.nan),
            ("radius_sigmas", np.inf),
            ("radius_sigmas", np.nan),
            ("max_cells_per_snapshot", 1.5),
            ("prob_model", "box"),
            ("prob_model", 3),
        ],
    )
    def test_rejects_values_that_build_nothing(self, field, value):
        """A non-finite distance builds an index with no entries; a
        fractional cap, or a probability model that is not a ``ProbModel``,
        fails deep inside the build: all are refused when the config is
        made."""
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{"delta": 0.1, field: value})

    def test_accepts_numpy_integers(self):
        config = EngineConfig(delta=np.float64(0.1), max_cells_per_snapshot=np.int64(8))
        assert config.max_cells_per_snapshot == 8

    def test_auto_radius_covers_min_prob(self):
        config = EngineConfig(delta=0.1, min_prob=1e-6)
        from scipy.stats import norm

        assert norm.cdf(-config.effective_radius_sigmas()) == pytest.approx(
            1e-6, rel=1e-6
        )

    def test_explicit_radius_respected(self):
        config = EngineConfig(delta=0.1, radius_sigmas=3.0)
        assert config.effective_radius_sigmas() == 3.0

    def test_min_log_prob(self):
        config = EngineConfig(delta=0.1, min_prob=1e-4)
        assert config.min_log_prob == pytest.approx(np.log(1e-4))


#: Floors from the mining default (1e-5) and the engine default (1e-9) out
#: to both extremes a caller plausibly sets.
_RADIUS_MIN_PROBS = (1e-12, 1e-9, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


class TestAutoRadius:
    """The stdlib quantile behind the auto radius stands in for scipy's ndtri."""

    @pytest.mark.parametrize("min_prob", _RADIUS_MIN_PROBS)
    def test_within_one_ulp_of_ndtri(self, min_prob):
        from scipy import special

        reference = float(-special.ndtri(min_prob))
        radius = EngineConfig(delta=0.1, min_prob=min_prob).effective_radius_sigmas()
        assert abs(radius - reference) <= np.spacing(reference)

    @pytest.mark.parametrize("backend", ["numpy", "compiled"])
    def test_index_triples_identical_under_either_radius(self, backend):
        from scipy import special

        from repro.core import kernels
        from repro.testkit.datasets import seeded_dataset

        if backend == "compiled" and kernels.compiled_unavailable_reason():
            pytest.skip(kernels.compiled_unavailable_reason())
        for seed in range(1, 7):
            dataset = seeded_dataset(seed)
            grid = dataset.make_grid(0.05)
            for min_prob in _RADIUS_MIN_PROBS:
                config = EngineConfig(delta=0.05, min_prob=min_prob, backend=backend)
                pinned = EngineConfig(
                    delta=0.05,
                    min_prob=min_prob,
                    backend=backend,
                    radius_sigmas=float(-special.ndtri(min_prob)),
                )
                auto = NMEngine(dataset, grid, config).index_csr()
                ref = NMEngine(dataset, grid, pinned).index_csr()
                for got, want in zip(auto, ref):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)


class TestEngineBasics:
    def test_empty_dataset_rejected(self, unit_grid):
        with pytest.raises(ValueError):
            NMEngine(TrajectoryDataset([]), unit_grid, EngineConfig(delta=0.1))

    def test_active_cells_sorted_and_touched(self, small_engine, small_dataset):
        cells = small_engine.active_cells
        assert cells == sorted(cells)
        # Every cell that contains a snapshot mean must be active.
        for traj in small_dataset:
            for located in small_engine.grid.locate_many(traj.means):
                assert int(located) in set(cells)

    def test_build_engine_defaults(self, small_dataset):
        engine = build_engine(small_dataset, cell_size=0.05)
        assert engine.config.delta == 0.05

    @staticmethod
    def _point_engine(engine, traj, snapshot):
        """An engine over one snapshot of ``traj``, on ``engine``'s grid.

        A length-1 pattern scores exactly the index's ``log Prob`` at that
        (snapshot, cell) point.
        """
        dataset = TrajectoryDataset([traj.window(snapshot, 1)])
        return NMEngine(dataset, engine.grid, engine.config)

    def test_log_prob_at_point_query(self, small_engine, small_dataset):
        from repro.core.measures import position_log_probs

        traj = small_dataset[0]
        cell = int(small_engine.grid.locate(*traj.means[3]))
        got = self._point_engine(small_engine, traj, 3).nm(TrajectoryPattern((cell,)))
        expected = position_log_probs(
            TrajectoryPattern((cell,)),
            traj.window(3, 1),
            small_engine.grid,
            small_engine.config.delta,
            min_log_prob=small_engine.floor_log_prob,
        )[0]
        assert got > small_engine.floor_log_prob
        assert got == pytest.approx(float(expected))

    def test_log_prob_at_bounds(self, small_engine, small_dataset):
        """A cell id outside the grid is refused, not read past the index."""
        point = self._point_engine(small_engine, small_dataset[0], 0)
        outside = small_engine.grid.n_cells
        for engine in (small_engine, point):
            with pytest.raises(ValueError, match="outside the grid"):
                engine.nm(TrajectoryPattern((outside,)))
            with pytest.raises(ValueError, match="outside the grid"):
                engine.match_batch([(0, outside)])
        with pytest.raises(ValueError, match="outside the grid"):
            small_engine.window_scores_batch([TrajectoryPattern((outside, 0))])
        with pytest.raises(ValueError, match="outside the grid"):
            small_engine.extension_tables_many([TrajectoryPattern((outside,))])

    def test_log_prob_at_inactive_cell_is_floor(self, small_engine, small_dataset):
        inactive = set(range(small_engine.grid.n_cells)) - set(
            small_engine.active_cells
        )
        cell = next(iter(inactive))
        point = self._point_engine(small_engine, small_dataset[0], 0)
        assert point.nm(TrajectoryPattern((cell,))) == small_engine.floor_log_prob


class TestScalarEquivalence:
    """Engine == scalar oracle, exactly."""

    def _check(self, engine, dataset, pattern):
        floor = engine.floor_log_prob
        nm_engine = engine.nm(pattern)
        nm_scalar = nm_pattern_dataset(
            pattern,
            dataset,
            engine.grid,
            engine.config.delta,
            model=engine.config.prob_model,
            min_log_prob=floor,
        )
        assert nm_engine == pytest.approx(nm_scalar, abs=1e-9)
        m_engine = engine.match(pattern)
        m_scalar = match_pattern_dataset(
            pattern,
            dataset,
            engine.grid,
            engine.config.delta,
            model=engine.config.prob_model,
            min_log_prob=floor,
        )
        assert m_engine == pytest.approx(m_scalar, rel=1e-9, abs=1e-300)

    def test_singular_patterns(self, small_engine, small_dataset):
        for cell in small_engine.active_cells[::37]:
            self._check(small_engine, small_dataset, TrajectoryPattern((cell,)))

    def test_random_patterns(self, small_engine, small_dataset, rng):
        cells = small_engine.active_cells
        for length in (2, 3, 5):
            for _ in range(5):
                pattern = TrajectoryPattern(
                    tuple(int(c) for c in rng.choice(cells, size=length))
                )
                self._check(small_engine, small_dataset, pattern)

    def test_pattern_with_inactive_cells(self, small_engine, small_dataset):
        inactive = sorted(
            set(range(small_engine.grid.n_cells)) - set(small_engine.active_cells)
        )
        pattern = TrajectoryPattern((small_engine.active_cells[0], inactive[0]))
        self._check(small_engine, small_dataset, pattern)

    def test_pattern_longer_than_some_trajectories(self, rng):
        trajs = [
            UncertainTrajectory(rng.normal(0.5, 0.05, (n, 2)), 0.05)
            for n in (2, 3, 8)
        ]
        dataset = TrajectoryDataset(trajs)
        engine = build_engine(dataset, cell_size=0.05, min_prob=1e-5)
        cells = engine.active_cells
        pattern = TrajectoryPattern(tuple(cells[:4]))
        self._check(engine, dataset, pattern)

    def test_wildcard_patterns(self, small_engine, small_dataset):
        cells = small_engine.active_cells
        pattern = TrajectoryPattern((cells[0], WILDCARD, cells[1]))
        floor = small_engine.floor_log_prob
        nm_engine = small_engine.nm(pattern)
        nm_scalar = nm_pattern_dataset(
            pattern, small_dataset, small_engine.grid,
            small_engine.config.delta, min_log_prob=floor,
        )
        assert nm_engine == pytest.approx(nm_scalar, abs=1e-9)

    def test_disk_model_equivalence(self, small_dataset):
        grid = small_dataset.make_grid(0.04)
        engine = NMEngine(
            small_dataset,
            grid,
            EngineConfig(delta=0.04, min_prob=1e-5, prob_model=ProbModel.DISK),
        )
        cells = engine.active_cells
        self._check(engine, small_dataset, TrajectoryPattern((cells[3], cells[5])))

    def test_per_trajectory_values(self, small_engine, small_dataset):
        """Each trajectory's term of the sum is Eq. 4 on that trajectory: an
        engine over one trajectory scores exactly that term."""
        cells = small_engine.active_cells
        pattern = TrajectoryPattern((cells[2], cells[3]))
        for i, traj in enumerate(small_dataset):
            one = NMEngine(
                small_dataset.subset([i]), small_engine.grid, small_engine.config
            )
            expected = nm_pattern_trajectory(
                pattern,
                traj,
                small_engine.grid,
                small_engine.config.delta,
                min_log_prob=small_engine.floor_log_prob,
            )
            assert one.nm(pattern) == pytest.approx(expected, abs=1e-9)


class TestSingularTables:
    def test_nm_table_matches_direct(self, small_engine):
        table = small_engine.singular_nm_table()
        for cell in list(table)[::53]:
            assert table[cell] == pytest.approx(
                scalar_measures(small_engine, TrajectoryPattern((cell,)))[0], abs=1e-9
            )

    def test_match_table_matches_direct(self, small_engine):
        table = small_engine.singular_match_table()
        for cell in list(table)[::53]:
            assert table[cell] == pytest.approx(
                scalar_measures(small_engine, TrajectoryPattern((cell,)))[1], rel=1e-9
            )

    def test_tables_cover_active_cells(self, small_engine):
        assert set(small_engine.singular_nm_table()) == set(small_engine.active_cells)


class TestExtensionTables:
    def test_right_extensions_match_direct(self, small_engine, rng):
        cells = small_engine.active_cells
        for length in (1, 2, 3):
            base = TrajectoryPattern(
                tuple(int(c) for c in rng.choice(cells, size=length))
            )
            (tables,) = small_engine.extension_tables_many([base])
            nm_table, match_table = tables.nm_by_cell, tables.match_by_cell
            assert set(nm_table) == set(cells)
            for cell in rng.choice(cells, size=8):
                ext = TrajectoryPattern(base.cells + (int(cell),))
                assert nm_table[int(cell)] == pytest.approx(
                    scalar_measures(small_engine, ext)[0], abs=1e-9
                )
                assert match_table[int(cell)] == pytest.approx(
                    scalar_measures(small_engine, ext)[1], rel=1e-9, abs=1e-300
                )

    def test_extension_with_short_trajectories(self, rng):
        trajs = [
            UncertainTrajectory(rng.normal(0.5, 0.03, (n, 2)), 0.05) for n in (2, 6)
        ]
        dataset = TrajectoryDataset(trajs)
        engine = build_engine(dataset, cell_size=0.05, min_prob=1e-4)
        base = TrajectoryPattern(tuple(engine.active_cells[:2]))
        (tables,) = engine.extension_tables_many([base])
        for cell in list(tables.nm_by_cell)[:5]:
            ext = TrajectoryPattern(base.cells + (cell,))
            assert tables.nm_by_cell[cell] == pytest.approx(
                scalar_measures(engine, ext)[0], abs=1e-9
            )


class TestBestWindow:
    """Eq. 4's per-trajectory term: the best window's NM, or the floor
    when the trajectory is shorter than the pattern."""

    def test_best_window_position(self, small_engine, small_dataset):
        traj = small_dataset[0]
        grid = small_engine.grid
        # Pattern traced from snapshots 4..6 of trajectory 0.
        pattern = TrajectoryPattern.from_points(traj.means[4:7], grid)
        one = NMEngine(small_dataset.subset([0]), grid, small_engine.config)
        direct = [
            nm_pattern_trajectory(
                pattern,
                traj.window(s, 3),
                grid,
                small_engine.config.delta,
                min_log_prob=small_engine.floor_log_prob,
            )
            for s in range(len(traj) - 2)
        ]
        assert int(np.argmax(direct)) == 4
        assert one.nm(pattern) == pytest.approx(max(direct), abs=1e-9)

    def test_best_window_too_short(self, small_engine, small_dataset):
        pattern = TrajectoryPattern(tuple(small_engine.active_cells[:25]))
        assert len(pattern) > len(small_dataset[0])
        one = NMEngine(
            small_dataset.subset([0]), small_engine.grid, small_engine.config
        )
        floor = small_engine.floor_log_prob
        assert one.nm(pattern) == floor
        assert one.match(pattern) == pytest.approx(np.exp(floor * len(pattern)))


class TestPropertyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 24), min_size=1, max_size=4), st.integers(0, 10_000))
    def test_engine_equals_scalar_on_random_instances(self, cell_idx, seed):
        rng = np.random.default_rng(seed)
        trajs = [
            UncertainTrajectory(
                np.cumsum(rng.normal(0.02, 0.01, (rng.integers(2, 9), 2)), axis=0)
                + rng.uniform(0, 0.3, 2),
                rng.uniform(0.02, 0.08),
            )
            for _ in range(3)
        ]
        dataset = TrajectoryDataset(trajs)
        grid = Grid(BoundingBox(-0.5, -0.5, 1.0, 1.0), nx=5, ny=5)
        engine = NMEngine(dataset, grid, EngineConfig(delta=0.1, min_prob=1e-5))
        pattern = TrajectoryPattern(tuple(c % grid.n_cells for c in cell_idx))
        expected = nm_pattern_dataset(
            pattern, dataset, grid, 0.1, min_log_prob=engine.floor_log_prob
        )
        assert engine.nm(pattern) == pytest.approx(expected, abs=1e-9)


class TestOneScorer:
    """``nm`` / ``match`` of one pattern are one-pattern batches."""

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_single_pattern_measures_are_batch_bits(self, small_dataset, backend, rng):
        """Bit for bit, also against the same pattern inside a wider batch."""
        engine = NMEngine(
            small_dataset,
            small_dataset.make_grid(0.03),
            EngineConfig(delta=0.03, min_prob=1e-6, backend=backend),
        )
        cells = engine.active_cells
        patterns = [TrajectoryPattern((cells[0],)), TrajectoryPattern((WILDCARD,) * 2)]
        for length in (2, 3, 4, 6):
            for _ in range(8):
                chosen = [int(c) for c in rng.choice(cells, size=length)]
                patterns.append(TrajectoryPattern(tuple(chosen)))
                chosen[int(rng.integers(0, length))] = WILDCARD
                patterns.append(TrajectoryPattern(tuple(chosen)))
        nm_all, match_all = engine.nm_batch(patterns), engine.match_batch(patterns)
        for i, pattern in enumerate(patterns):
            nm, match = engine.nm(pattern), engine.match(pattern)
            assert type(nm) is float and type(match) is float
            assert nm == engine.nm_batch([pattern])[0] == nm_all[i]
            assert match == engine.match_batch([pattern])[0] == match_all[i]

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_single_pattern_calls_retain_no_memory(self, backend):
        """300 distinct ``nm`` calls keep nothing per pattern: no per-cell
        column of every row is built or cached along the way."""
        import tracemalloc

        from repro.testkit.datasets import seeded_dataset

        dataset = seeded_dataset(7, n_trajectories=200, n_ticks=100)
        engine = NMEngine(
            dataset,
            dataset.make_grid(0.05),
            EngineConfig(delta=0.05, min_prob=1e-5, backend=backend),
        )
        rng = np.random.default_rng(7)
        cells = engine.active_cells
        patterns = {
            tuple(int(c) for c in rng.choice(cells, size=3)) for _ in range(400)
        }
        patterns = [TrajectoryPattern(p) for p in sorted(patterns)[:300]]
        assert len(patterns) == 300
        engine.nm(patterns[0])  # lazily built per-engine lookups
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for pattern in patterns:
                engine.nm(pattern)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before <= 1 << 20, after - before
