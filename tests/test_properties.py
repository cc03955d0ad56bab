"""Cross-cutting property-based tests (hypothesis) on core invariants.

These complement the per-module tests with randomised checks of the
properties the algorithms *rely* on, generated over small random datasets:

* engine == scalar reference (already covered per-module; here the
  singular and extension fast paths are cross-checked on random instances
  against the scalar measures);
* min-max property at the dataset level through the engine;
* miner invariance under trajectory permutation;
* gap-pattern evaluation equals explicit enumeration over alignments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, NMEngine
from repro.core.measures import nm_pattern_trajectory
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.core.wildcards import Gap, GapPattern, nm_gap_pattern_trajectory
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from tests.conftest import scalar_measures

GRID = Grid(BoundingBox(-0.2, -0.2, 1.2, 1.2), nx=7, ny=7)


def random_engine(seed, n_traj=4, min_len=5, max_len=12):
    rng = np.random.default_rng(seed)
    trajectories = []
    for _ in range(n_traj):
        n = int(rng.integers(min_len, max_len + 1))
        start = rng.uniform(0.1, 0.9, 2)
        steps = rng.normal(0.0, 0.08, (n, 2))
        trajectories.append(
            UncertainTrajectory(start + np.cumsum(steps, axis=0), rng.uniform(0.05, 0.15))
        )
    dataset = TrajectoryDataset(trajectories)
    return NMEngine(dataset, GRID, EngineConfig(delta=0.15, min_prob=1e-5))


cells = st.integers(min_value=0, max_value=GRID.n_cells - 1)
seeds = st.integers(min_value=0, max_value=10_000)


class TestEngineFastPaths:
    @settings(max_examples=25, deadline=None)
    @given(seeds, cells)
    def test_singular_table_agrees_with_nm(self, seed, cell):
        engine = random_engine(seed)
        table = engine.singular_nm_table()
        if cell in table:
            nm, _ = scalar_measures(engine, TrajectoryPattern((cell,)))
            assert table[cell] == pytest.approx(nm, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.lists(cells, min_size=1, max_size=3), cells)
    def test_extension_table_agrees_with_nm(self, seed, base_cells, ext):
        engine = random_engine(seed)
        base = TrajectoryPattern(tuple(base_cells))
        (tables,) = engine.extension_tables_many([base])
        nm, match = scalar_measures(engine, TrajectoryPattern(base.cells + (ext,)))
        # An inactive extension cell scores the base totals.
        got_nm = tables.nm_by_cell.get(ext, tables.nm_base_total)
        got_match = tables.match_by_cell.get(ext, tables.match_base_total)
        assert got_nm == pytest.approx(nm, abs=1e-9)
        assert got_match == pytest.approx(match, rel=1e-9, abs=1e-300)


class TestMinMaxThroughEngine:
    @settings(max_examples=25, deadline=None)
    @given(
        seeds,
        st.lists(cells, min_size=1, max_size=3),
        st.lists(cells, min_size=1, max_size=3),
    )
    def test_minmax_property(self, seed, left_cells, right_cells):
        engine = random_engine(seed)
        left = TrajectoryPattern(tuple(left_cells))
        right = TrajectoryPattern(tuple(right_cells))
        combined = left.concat(right)
        nm_l, nm_r, nm_c = engine.nm(left), engine.nm(right), engine.nm(combined)
        weighted = (len(left) * nm_l + len(right) * nm_r) / len(combined)
        assert nm_c <= weighted + 1e-9
        assert weighted <= max(nm_l, nm_r) + 1e-9


class TestMinerInvariances:
    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_permutation_invariance(self, seed):
        """NM sums over trajectories, so trajectory order cannot matter."""
        engine = random_engine(seed)
        shuffled = engine.dataset.shuffled(np.random.default_rng(seed + 1))
        engine2 = NMEngine(shuffled, GRID, engine.config)
        a = TrajPatternMiner(engine, k=4, max_length=3).mine()
        b = TrajPatternMiner(engine2, k=4, max_length=3).mine()
        assert [p.cells for p in a.patterns] == [p.cells for p in b.patterns]
        assert a.nm_values == pytest.approx(b.nm_values, abs=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(seeds, st.integers(min_value=1, max_value=6))
    def test_topk_prefix_consistency(self, seed, k):
        """The top-k list is a prefix of the top-(k+2) list's candidates?
        Not in general (omega differs), but the top-1 pattern must agree."""
        engine = random_engine(seed)
        small = TrajPatternMiner(engine, k=k, max_length=3).mine()
        large = TrajPatternMiner(engine, k=k + 2, max_length=3).mine()
        assert small.patterns[0].cells == large.patterns[0].cells

    @settings(max_examples=6, deadline=None)
    @given(seeds)
    def test_duplicated_dataset_preserves_ranking(self, seed):
        """Duplicating every trajectory doubles every NM, preserving the
        mined ranking."""
        engine = random_engine(seed)
        doubled = TrajectoryDataset(
            list(engine.dataset.trajectories) * 2
        )
        engine2 = NMEngine(doubled, GRID, engine.config)
        a = TrajPatternMiner(engine, k=4, max_length=2).mine()
        b = TrajPatternMiner(engine2, k=4, max_length=2).mine()
        assert [p.cells for p in a.patterns] == [p.cells for p in b.patterns]
        assert b.nm_values == pytest.approx(
            [2 * v for v in a.nm_values], abs=1e-9
        )


class TestGapPatternEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seeds,
        st.lists(cells, min_size=1, max_size=2),
        st.lists(cells, min_size=1, max_size=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
    )
    def test_gap_equals_best_fixed_alignment(
        self, seed, left_cells, right_cells, gap_min, gap_extra
    ):
        engine = random_engine(seed)
        gap_max = gap_min + gap_extra
        pattern = GapPattern(
            (TrajectoryPattern(tuple(left_cells)), TrajectoryPattern(tuple(right_cells))),
            (Gap(gap_min, gap_max),),
        )
        for traj_index, traj in enumerate(engine.dataset):
            # A fixed alternative longer than the trajectory scores the
            # floor, as does the gap pattern when no alternative fits.
            expected = max(
                nm_pattern_trajectory(
                    TrajectoryPattern(
                        tuple(left_cells) + (WILDCARD,) * g + tuple(right_cells)
                    ),
                    traj,
                    engine.grid,
                    engine.config.delta,
                    model=engine.config.prob_model,
                    min_log_prob=engine.floor_log_prob,
                )
                for g in range(gap_min, gap_max + 1)
            )
            got = nm_gap_pattern_trajectory(engine, pattern, traj_index)
            assert got == pytest.approx(expected, abs=1e-9)
