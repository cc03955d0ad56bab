"""Tests for gap patterns (section 5's variable wild-card runs)."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.measures import nm_pattern_trajectory
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.core.wildcards import (
    Gap,
    GapPattern,
    nm_gap_pattern,
    nm_gap_pattern_trajectory,
)
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory


@pytest.fixture
def corridor_engine():
    """Objects crossing a 5x1 corridor with a variable-length middle."""
    rng = np.random.default_rng(5)
    grid = Grid(BoundingBox(0.0, 0.0, 1.0, 0.2), nx=5, ny=1)
    trajectories = []
    for i in range(6):
        # Enter at cell 0/1, loiter in the middle 1-2 snapshots, exit 3/4.
        n_loiter = 1 + (i % 2)
        xs = [0.1, 0.3] + [0.5] * n_loiter + [0.7, 0.9]
        means = np.column_stack([xs, np.full(len(xs), 0.1)])
        means = means + rng.normal(0, 0.01, means.shape)
        trajectories.append(UncertainTrajectory(means, 0.06))
    dataset = TrajectoryDataset(trajectories)
    return NMEngine(dataset, grid, EngineConfig(delta=0.2, min_prob=1e-5))


class TestGapValidation:
    def test_gap_bounds(self):
        with pytest.raises(ValueError):
            Gap(-1, 2)
        with pytest.raises(ValueError):
            Gap(3, 2)

    def test_pattern_structure(self):
        seg = TrajectoryPattern((1,))
        with pytest.raises(ValueError):
            GapPattern((), ())
        with pytest.raises(ValueError):
            GapPattern((seg, seg), ())  # missing gap
        with pytest.raises(ValueError):
            GapPattern((TrajectoryPattern((1, WILDCARD)),), ())

    def test_spans(self):
        pattern = GapPattern(
            (TrajectoryPattern((1, 2)), TrajectoryPattern((3,))),
            (Gap(1, 3),),
        )
        assert pattern.n_specified == 3
        assert pattern.min_span() == 4
        assert pattern.max_span() == 6


class TestParse:
    def test_round_trip(self):
        pattern = GapPattern.parse("3 5 [0-2] 9 9")
        assert [s.cells for s in pattern.segments] == [(3, 5), (9, 9)]
        assert pattern.gaps == (Gap(0, 2),)

    def test_no_leading_gap(self):
        with pytest.raises(ValueError):
            GapPattern.parse("[0-1] 3")

    def test_no_trailing_gap(self):
        with pytest.raises(ValueError):
            GapPattern.parse("3 [0-1]")

    def test_solid_only(self):
        pattern = GapPattern.parse("1 2 3")
        assert pattern.gaps == ()
        assert pattern.min_span() == 3


class TestEvaluation:
    def test_zero_gap_equals_solid_pattern(self, corridor_engine):
        solid = TrajectoryPattern((0, 1, 2))
        gap = GapPattern(
            (TrajectoryPattern((0, 1)), TrajectoryPattern((2,))), (Gap(0, 0),)
        )
        assert nm_gap_pattern(corridor_engine, gap) == pytest.approx(
            corridor_engine.nm(solid), abs=1e-9
        )

    def test_gap_brackets_fixed_wildcards(self, corridor_engine):
        """A [1-1] gap scores exactly like one fixed WILDCARD position."""
        fixed = TrajectoryPattern((1, WILDCARD, 3))
        gap = GapPattern(
            (TrajectoryPattern((1,)), TrajectoryPattern((3,))), (Gap(1, 1),)
        )
        assert nm_gap_pattern(corridor_engine, gap) == pytest.approx(
            corridor_engine.nm(fixed), abs=1e-9
        )

    def test_variable_gap_absorbs_loiter(self, corridor_engine):
        """Half the corridor objects loiter 1 snapshot, half 2; a [1-2] gap
        covers both, beating either fixed-wildcard variant."""
        flexible = GapPattern(
            (TrajectoryPattern((0, 1)), TrajectoryPattern((3, 4))), (Gap(1, 2),)
        )
        fixed_one = corridor_engine.nm(TrajectoryPattern((0, 1, WILDCARD, 3, 4)))
        fixed_two = corridor_engine.nm(
            TrajectoryPattern((0, 1, WILDCARD, WILDCARD, 3, 4))
        )
        flexible_nm = nm_gap_pattern(corridor_engine, flexible)
        assert flexible_nm >= fixed_one - 1e-9
        assert flexible_nm >= fixed_two - 1e-9
        assert flexible_nm > max(fixed_one, fixed_two)

    def test_gap_is_max_over_alignments(self, corridor_engine):
        """[a-b] gap NM equals the max over the fixed-length alternatives."""
        flexible = GapPattern(
            (TrajectoryPattern((1,)), TrajectoryPattern((3,))), (Gap(0, 2),)
        )
        engine = corridor_engine
        for traj_index, traj in enumerate(engine.dataset):
            best_fixed = max(
                nm_pattern_trajectory(
                    TrajectoryPattern(cells),
                    traj,
                    engine.grid,
                    engine.config.delta,
                    min_log_prob=engine.floor_log_prob,
                )
                for cells in ((1, 3), (1, WILDCARD, 3), (1, WILDCARD, WILDCARD, 3))
            )
            got = nm_gap_pattern_trajectory(engine, flexible, traj_index)
            assert got == pytest.approx(best_fixed, abs=1e-9)

    def test_too_short_trajectory_scores_floor(self, corridor_engine):
        long_pattern = GapPattern(
            (TrajectoryPattern((0, 1, 2)), TrajectoryPattern((3, 4))),
            (Gap(3, 5),),
        )
        # min span = 8 > trajectory length (5 or 6) for some objects.
        short_index = 0
        assert len(corridor_engine.dataset[short_index]) < long_pattern.min_span()
        assert nm_gap_pattern_trajectory(
            corridor_engine, long_pattern, short_index
        ) == corridor_engine.floor_log_prob

    def test_segment_longer_than_trajectory_scores_floor(self, corridor_engine):
        """A solid segment two or more snapshots longer than the trajectory
        has a negative number of windows in it, and scores the floor."""
        pattern = GapPattern.parse("0 1 2 2 2 3 4 [0-1] 4")
        short_index = 0
        assert len(pattern.segments[0]) - len(corridor_engine.dataset[short_index]) >= 2
        assert nm_gap_pattern_trajectory(
            corridor_engine, pattern, short_index
        ) == corridor_engine.floor_log_prob

    def test_trajectory_values_sum_to_dataset_total(self, corridor_engine):
        """The per-trajectory DP and the dataset total slice the same
        batched segment scores, so the terms add up to the total bit for bit."""
        pattern = GapPattern.parse("0 1 [1-2] 3 4")
        total = 0.0
        for traj_index in range(len(corridor_engine.dataset)):
            total += nm_gap_pattern_trajectory(corridor_engine, pattern, traj_index)
        assert total == nm_gap_pattern(corridor_engine, pattern)
