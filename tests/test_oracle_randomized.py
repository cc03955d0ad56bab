"""Randomised exactness checks: miners vs brute-force oracles.

Theorem 1 claims TrajPattern returns exactly the k patterns with the
highest NM.  The fixture-based oracle tests pin one instance; these
hypothesis tests draw many tiny instances (small alphabets, short
trajectories) and compare the miner -- under every pruning configuration
-- and the PB baseline against exhaustive enumeration.  Each drawn seed
is mined on a 2x2 grid up to length 4 and on a 3x3 grid up to length 3;
the larger alphabet is where singular-extension families keep members
implicit (:mod:`repro.core.topk`).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.match_miner import MatchMiner
from repro.baselines.pb import PBMiner
from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid

from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

# A 2x2 grid keeps exhaustive enumeration over length <= 4 at 340 patterns,
# a 3x3 grid over length <= 3 at 819.
GRID = Grid(BoundingBox.unit(), nx=2, ny=2)
MAX_LENGTH = 4
GRID_3X3 = Grid(BoundingBox.unit(), nx=3, ny=3)
INSTANCES = [(GRID, MAX_LENGTH), (GRID_3X3, 3)]

seeds = st.integers(min_value=0, max_value=100_000)
ks = st.integers(min_value=1, max_value=6)


def tiny_engine(seed: int, grid: Grid = GRID) -> NMEngine:
    rng = np.random.default_rng(seed)
    trajectories = []
    for _ in range(int(rng.integers(2, 5))):
        n = int(rng.integers(3, 8))
        means = rng.uniform(0.0, 1.0, (n, 2))
        trajectories.append(
            UncertainTrajectory(means, float(rng.uniform(0.1, 0.4)))
        )
    return NMEngine(
        TrajectoryDataset(trajectories),
        grid,
        EngineConfig(delta=0.25, min_prob=1e-4),
    )


def brute_force(engine, k, key, max_length=MAX_LENGTH, min_length=1):
    scored = []
    for length in range(min_length, max_length + 1):
        for combo in itertools.product(range(engine.grid.n_cells), repeat=length):
            scored.append((combo, key(TrajectoryPattern(combo))))
    scored.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return [c for c, _ in scored[:k]]


def assert_exact(seed, k, min_length=1, **options):
    """The miner's top-k equals brute force on both instances of ``seed``."""
    for grid, max_length in INSTANCES:
        engine = tiny_engine(seed, grid)
        mined = TrajPatternMiner(
            engine, k=k, min_length=min_length, max_length=max_length, **options
        ).mine()
        expected = brute_force(engine, k, engine.nm, max_length, min_length)
        assert [p.cells for p in mined.patterns] == expected, (grid.nx, options)


class TestTrajPatternExactness:
    @settings(max_examples=25, deadline=None)
    @given(seeds, ks)
    def test_default_configuration(self, seed, k):
        assert_exact(seed, k)

    @settings(max_examples=12, deadline=None)
    @given(seeds, ks)
    def test_exhaustive_configuration(self, seed, k):
        """The literal paper loop (no lazy bounds) agrees too."""
        assert_exact(seed, k, use_bound_pruning=False, use_extension_pruning=False)

    @pytest.mark.parametrize(
        "extension, bound", [(True, False), (False, True)], ids=["no-bound", "no-extension"]
    )
    @settings(max_examples=12, deadline=None)
    @given(seeds, ks)
    def test_single_pruning_configurations(self, extension, bound, seed, k):
        assert_exact(
            seed, k, use_extension_pruning=extension, use_bound_pruning=bound
        )

    @settings(max_examples=12, deadline=None)
    @given(seeds)
    def test_min_length_variant(self, seed):
        assert_exact(seed, 4, min_length=2)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_families_keep_members_implicit(self, k):
        """On the 3x3 grid every instance leaves family members implicit."""
        for seed in range(20):
            engine = tiny_engine(seed, GRID_3X3)
            mined = TrajPatternMiner(engine, k=k, max_length=3).mine()
            assert max(t.n_bounded for t in mined.stats.trace) > 0, seed
            assert mined.stats.candidates_bounded > 0, seed
            expected = brute_force(engine, k, engine.nm, max_length=3)
            assert [p.cells for p in mined.patterns] == expected, seed


class TestConvergenceRegression:
    """Pinned hypothesis counterexample (seed 4735, k=3).

    On this instance the true third-best pattern is ``(1, 1, 3)`` =
    high ``(1,)`` + low ``(1, 3)``, where ``(1, 3)`` only enters ``Q`` in
    the first extension round.  A miner that stops as soon as the high set
    stabilises never tries that concatenation and reports ``(2,)`` instead;
    convergence must also require the relevant extension-partner set (high
    patterns + 1-extension lows) to be stable.
    """

    @pytest.mark.parametrize("extension", [True, False])
    @pytest.mark.parametrize("bound", [True, False])
    def test_high_plus_fresh_low_pattern_found(self, extension, bound):
        engine = tiny_engine(4735)
        mined = TrajPatternMiner(
            engine,
            k=3,
            max_length=MAX_LENGTH,
            use_extension_pruning=extension,
            use_bound_pruning=bound,
        ).mine()
        assert [p.cells for p in mined.patterns] == [(1,), (3,), (1, 1, 3)]
        assert [p.cells for p in mined.patterns] == brute_force(engine, 3, engine.nm)


class TestBaselineExactness:
    @settings(max_examples=15, deadline=None)
    @given(seeds, ks)
    def test_pb_matches_oracle(self, seed, k):
        engine = tiny_engine(seed)
        result, _ = PBMiner(engine, k=k, max_length=MAX_LENGTH).mine()
        expected = brute_force(engine, k, engine.nm)
        assert [p.cells for p in result.patterns] == expected

    @settings(max_examples=15, deadline=None)
    @given(seeds, ks)
    def test_match_miner_matches_oracle(self, seed, k):
        engine = tiny_engine(seed)
        result = MatchMiner(engine, k=k, max_length=MAX_LENGTH).mine()
        expected = brute_force(engine, k, engine.match)
        assert [p.cells for p in result.patterns] == expected
