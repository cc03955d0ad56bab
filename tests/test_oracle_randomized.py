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
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.match_miner import MatchMiner
from repro.baselines.pb import PBMiner
from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.pruning import satisfies_one_extension
from repro.core.topk import PatternBook
from repro.core.trajpattern import TrajPatternMiner, WarmStartState
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


def implicit_members(book: PatternBook) -> int:
    """Live roots' distinct singular-extension members that are not explicit."""
    members = {
        cells
        for root in book._roots
        if book.max_length is None or len(root) < book.max_length
        for s in book._alphabet
        for cells in (root + (s,), (s,) + root)
    }
    return len(members - set(book._exact))


class CheckedBook(PatternBook):
    """A book that replays every settle from scratch and compares.

    The reference is the whole-book computation the miner ran before its
    bookkeeping became incremental: ``omega`` from every qualifying
    explicit value, the high set by a scan, Definition 5 over every
    explicit low, the roots filtered by the new high set, the relevant
    partners as a set, and partner lists regrouped and sorted.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.previous = None  # (relevant, roots, high) at the last settle
        self.settles = 0

    def settle(self, prune):
        exact = dict(self._exact)
        qualifying = sorted(
            (v for c, v in exact.items() if len(c) >= self.min_length), reverse=True
        )
        omega = self.omega
        if len(qualifying) >= self.k:
            omega = max(omega, qualifying[self.k - 1])
        high = {c: v for c, v in exact.items() if math.isinf(omega) or v >= omega}
        roots = set(self._roots)
        pruned = []
        if prune:
            lows = [c for c in exact if c not in high]
            pruned = [c for c in lows if not satisfies_one_extension(c, high)]
            roots &= set(high)
            implicit_before = implicit_members(self)
        kept = set(exact) - set(pruned)
        relevant = frozenset(
            c for c in kept if c in high or satisfies_one_extension(c, high)
        )

        result = super().settle(prune)
        self.settles += 1

        assert self.omega == omega
        assert self.high == high
        assert set(self._exact) == kept
        assert set(self._roots) == roots
        groups = {}
        for cells in self._exact:
            groups.setdefault(len(cells), []).append(cells)
        assert self._listed == {
            length: sorted(cells, key=lambda c: (-self._exact[c], c))
            for length, cells in groups.items()
        }
        assert self.n_implicit == implicit_members(self)
        if prune:
            assert result.pruned == (
                len(pruned) + implicit_before - implicit_members(self)
            )
        if self.previous is not None:
            assert result.converged == (self.previous == (relevant, roots, set(high)))
        self.previous = (relevant, roots, set(high))
        return result


PRUNING = [(True, True), (True, False), (False, True), (False, False)]


class TestIncrementalBookkeeping:
    """Every settle of a mine agrees with a from-scratch recomputation."""

    @staticmethod
    def mine(engine, **options):
        books = []

        def checked(*args, **kwargs):
            books.append(CheckedBook(*args, **kwargs))
            return books[-1]

        with mock.patch("repro.core.trajpattern.PatternBook", checked):
            result = TrajPatternMiner(engine, **options).mine()
        assert books and books[0].settles == result.stats.iterations + 1
        return result

    @pytest.mark.parametrize(
        "extension, bound", PRUNING, ids=["both", "no-bound", "no-extension", "none"]
    )
    @settings(max_examples=12, deadline=None)
    @given(seeds, ks, st.sampled_from([1, 2, 3]))
    def test_every_settle_matches_a_full_recount(
        self, extension, bound, seed, k, min_length
    ):
        for grid, max_length in INSTANCES:
            engine = tiny_engine(seed, grid)
            options = dict(
                k=k,
                min_length=min_length,
                max_length=max_length,
                use_extension_pruning=extension,
                use_bound_pruning=bound,
            )
            cold = self.mine(engine, **options)
            expected = brute_force(engine, k, engine.nm, max_length, min_length)
            assert [p.cells for p in cold.patterns] == expected
            # Warm seeds from a neighbouring dataset, plus patterns over
            # every grid cell: some end in a cell outside the alphabet.
            neighbour = TrajPatternMiner(tiny_engine(seed + 1, grid), **options).mine()
            rng = np.random.default_rng(seed)
            extra = tuple(
                tuple(int(c) for c in rng.integers(0, grid.n_cells, n))
                for n in rng.integers(2, max_length + 1, 6)
            )
            warm_state = WarmStartState(neighbour.warm_state.seeds + extra)
            warm = self.mine(engine, warm_state=warm_state, **options)
            assert [p.cells for p in warm.patterns] == expected

