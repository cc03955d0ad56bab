"""Tests for the TrajPattern miner, including brute-force oracle checks.

The tiny-corridor fixture keeps the active alphabet small enough to
enumerate *every* pattern up to a length cap, so the miner's top-k can be
compared against ground truth exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import trajpattern
from repro.core.engine import EngineConfig, NMEngine
from repro.core.trajpattern import TrajPatternMiner, frequent_grams
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

from tests.conftest import brute_force_top_k


class TestValidation:
    def test_bad_parameters(self, tiny_engine):
        with pytest.raises(ValueError):
            TrajPatternMiner(tiny_engine, k=0)
        with pytest.raises(ValueError):
            TrajPatternMiner(tiny_engine, k=1, min_length=0)
        with pytest.raises(ValueError):
            TrajPatternMiner(tiny_engine, k=1, min_length=3, max_length=2)
        with pytest.raises(ValueError):
            TrajPatternMiner(tiny_engine, k=1, max_iterations=0)

    def test_no_active_cells_rejected(self, rng):
        # Grid entirely away from the data.
        traj = UncertainTrajectory(np.full((5, 2), 100.0), 0.01)
        dataset = TrajectoryDataset([traj])
        grid = Grid(BoundingBox.unit(), nx=3, ny=3)
        engine = NMEngine(dataset, grid, EngineConfig(delta=0.1, min_prob=1e-4))
        with pytest.raises(ValueError, match="no active grid cells"):
            TrajPatternMiner(engine, k=1).mine()


class TestOracle:
    """Exactness against exhaustive enumeration."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_top_k_matches_brute_force(self, tiny_engine, k):
        result = TrajPatternMiner(tiny_engine, k=k, max_length=4).mine()
        expected = brute_force_top_k(tiny_engine, k, max_length=4)
        got = [(p.cells, nm) for p, nm in result.as_pairs()]
        assert [c for c, _ in got] == [c for c, _ in expected]
        for (_, nm_got), (_, nm_exp) in zip(got, expected):
            assert nm_got == pytest.approx(nm_exp, abs=1e-9)

    def test_min_length_variant_matches_brute_force(self, tiny_engine):
        k = 5
        result = TrajPatternMiner(
            tiny_engine, k=k, min_length=2, max_length=4
        ).mine()
        expected = brute_force_top_k(tiny_engine, k, max_length=4, min_length=2)
        assert [p.cells for p in result.patterns] == [c for c, _ in expected]

    def test_unbounded_length_converges_to_same_top(self, tiny_engine):
        """Without a length cap the miner still terminates and the top-k is
        at least as good as the capped brute force."""
        result = TrajPatternMiner(tiny_engine, k=3).mine()
        expected = brute_force_top_k(tiny_engine, 3, max_length=4)
        assert result.nm_values[0] == pytest.approx(expected[0][1], abs=1e-9)
        assert len(result.patterns) == 3


class TestAblations:
    """Both pruning mechanisms are result-preserving."""

    @pytest.mark.parametrize(
        "extension,bound",
        [(True, True), (False, True), (True, False), (False, False)],
    )
    def test_pruning_preserves_results(self, tiny_engine, extension, bound):
        reference = TrajPatternMiner(tiny_engine, k=5, max_length=3).mine()
        variant = TrajPatternMiner(
            tiny_engine,
            k=5,
            max_length=3,
            use_extension_pruning=extension,
            use_bound_pruning=bound,
        ).mine()
        assert [p.cells for p in variant.patterns] == [
            p.cells for p in reference.patterns
        ]

    def test_bound_pruning_reduces_evaluations(self, small_engine):
        pruned = TrajPatternMiner(small_engine, k=5, max_length=3).mine()
        exhaustive = TrajPatternMiner(
            small_engine, k=5, max_length=3, use_bound_pruning=False
        ).mine()
        assert (
            pruned.stats.candidates_evaluated
            < exhaustive.stats.candidates_evaluated
        )
        assert [p.cells for p in pruned.patterns] == [
            p.cells for p in exhaustive.patterns
        ]

    def test_extension_pruning_shrinks_q(self, small_engine):
        with_pruning = TrajPatternMiner(small_engine, k=5, max_length=3).mine()
        without = TrajPatternMiner(
            small_engine, k=5, max_length=3, use_extension_pruning=False
        ).mine()
        assert with_pruning.stats.final_q_size <= without.stats.final_q_size


class TestBehaviour:
    def test_deterministic_across_runs(self, small_engine):
        a = TrajPatternMiner(small_engine, k=10, max_length=3).mine()
        b = TrajPatternMiner(small_engine, k=10, max_length=3).mine()
        assert [p.cells for p in a.patterns] == [p.cells for p in b.patterns]

    def test_result_sorted_and_sized(self, small_engine):
        result = TrajPatternMiner(small_engine, k=10, max_length=3).mine()
        assert len(result) == 10
        assert result.nm_values == sorted(result.nm_values, reverse=True)

    def test_omega_equals_kth_value(self, small_engine):
        result = TrajPatternMiner(small_engine, k=10, max_length=3).mine()
        assert result.omega <= result.nm_values[-1] + 1e-12

    def test_min_length_filters_output(self, small_engine):
        result = TrajPatternMiner(
            small_engine, k=5, min_length=2, max_length=4
        ).mine()
        assert all(len(p) >= 2 for p in result.patterns)

    def test_max_length_respected(self, small_engine):
        result = TrajPatternMiner(small_engine, k=10, max_length=2).mine()
        assert all(len(p) <= 2 for p in result.patterns)

    def test_groups_partition_topk(self, small_engine):
        result = TrajPatternMiner(small_engine, k=10, max_length=3).mine(
            discover_groups=True
        )
        assert result.groups is not None
        grouped = [p for g in result.groups for p in g.patterns]
        assert sorted(p.cells for p in grouped) == sorted(
            p.cells for p in result.patterns
        )

    def test_stats_populated(self, small_engine):
        result = TrajPatternMiner(small_engine, k=5, max_length=3).mine()
        stats = result.stats
        assert stats.iterations >= 1
        assert stats.candidates_evaluated > 0
        assert stats.final_q_size > 0
        assert stats.wall_time_s > 0

    def test_mean_length(self, small_engine):
        result = TrajPatternMiner(small_engine, k=5, max_length=3).mine()
        assert result.mean_length() == pytest.approx(
            sum(len(p) for p in result.patterns) / 5
        )

    def test_k_larger_than_alphabet(self, tiny_engine):
        n_active = len(tiny_engine.active_cells)
        result = TrajPatternMiner(tiny_engine, k=n_active * 3, max_length=2).mine()
        assert len(result) > 0  # returns what exists without crashing

    def test_single_trajectory_dataset(self, rng):
        traj = UncertainTrajectory(
            np.cumsum(rng.normal(0.05, 0.01, (10, 2)), axis=0), 0.05
        )
        dataset = TrajectoryDataset([traj])
        grid = dataset.make_grid(0.05)
        engine = NMEngine(dataset, grid, EngineConfig(delta=0.05, min_prob=1e-4))
        result = TrajPatternMiner(engine, k=3, max_length=3).mine()
        assert len(result) == 3


class TestMemory:
    def test_wide_alphabet_keeps_families_implicit(self):
        """Q's singular extensions cost no stored entries on a wide alphabet.

        3,847 active cells and k = 5: ``Q`` ends at ~42k patterns, all but
        ~4k of them implicit family members.  Evaluation runs in batches of
        32, so the traced peak is the miner's own bookkeeping, as in a mine
        whose evaluation runs in worker processes.  Measured 2.1 MiB; with
        every member stored as an entry it was 13.6 MiB.
        """
        import tracemalloc

        from repro.experiments.datasets import zebranet_dataset

        class SmallBatches(NMEngine):
            def nm_batch(self, patterns):
                return np.concatenate(
                    [NMEngine.nm_batch(self, patterns[i : i + 32])
                     for i in range(0, len(patterns), 32)]
                )  # fmt: skip

        dataset = zebranet_dataset(n_trajectories=80, n_ticks=40, sigma=0.01, seed=0)
        engine = SmallBatches(
            dataset, dataset.make_grid(0.015), EngineConfig(delta=0.015, min_prob=1e-5)
        )
        assert len(engine.active_cells) >= 1000
        TrajPatternMiner(engine, k=5, max_length=8).mine()  # warm-up
        tracemalloc.start()
        try:
            result = TrajPatternMiner(engine, k=5, max_length=8).mine()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.stats.final_q_size > 10 * result.stats.trace[-1].n_exact
        assert peak <= 4 * 2**20, peak


class ReplayEngine:
    """An engine front that scores each pattern once and then replays it.

    A mine traced against a warmed-up replay measures the miner's own
    bookkeeping: evaluation costs one lookup per candidate, as in a mine
    whose kernels run in worker processes.
    """

    def __init__(self, engine):
        self.engine, self.dataset, self.grid = engine, engine.dataset, engine.grid
        self.table = engine.singular_nm_table()
        self.scores = {}

    def singular_nm_table(self):
        return self.table

    def nm_batch(self, patterns):
        missing = [cells for cells in patterns if cells not in self.scores]
        self.scores.update(zip(missing, self.engine.nm_batch(missing)))
        return np.array([self.scores[cells] for cells in patterns])


class TestWideHerdMemory:
    def test_miner_peak_after_the_engine_build(self):
        """The mine-wide herd's miner, evaluation replayed, peaks under 4.5 MiB.

        250 trajectories x 100 ticks on a 0.02 grid (6,137 active cells),
        ``k=5``, lengths 2..8 as ``repro mine`` runs it.  Measured 3.8
        MiB; with per-iteration whole-book containers and a dict n-gram
        count it was 5.4.
        """
        import tracemalloc

        from repro.experiments.datasets import zebranet_dataset

        dataset = zebranet_dataset(n_trajectories=250, n_ticks=100, sigma=0.01, seed=0)
        config = EngineConfig(delta=0.02, min_prob=1e-5)
        engine = ReplayEngine(NMEngine(dataset, dataset.make_grid(0.02), config))
        options = dict(k=5, min_length=2, max_length=8)
        expected = TrajPatternMiner(engine, **options).mine()  # scores every candidate
        tracemalloc.start()
        try:
            result = TrajPatternMiner(engine, **options).mine()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.nm_values == expected.nm_values
        assert peak <= 4.5 * 2**20, peak


def dict_grams(dataset, grid, length, limit):
    """The per-gram dict the miners counted warm-start seeds with before."""
    counts = {}
    for traj in dataset:
        cells = tuple(int(c) for c in grid.locate_many(traj.means))
        for i in range(len(cells) - length + 1):
            gram = cells[i : i + length]
            counts[gram] = counts.get(gram, 0) + 1
    frequent = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [gram for gram, _ in frequent[:limit]]


class TestFrequentGrams:
    """The array n-gram count behind both miners' warm starts."""

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        length=st.integers(1, 4),
        limit=st.integers(1, 40),
        chunk_rows=st.sampled_from([1, 5, 2048]),
        seed=st.integers(0, 2**16),
    )
    def test_same_seeds_in_the_same_order_as_the_dict(
        self, lengths, length, limit, chunk_rows, seed
    ):
        from repro.storage import open_store, write_store

        # Walks on a 3x3 grid: few distinct grams, so counts tie often.
        rng = np.random.default_rng(seed)
        dataset = TrajectoryDataset(
            UncertainTrajectory(rng.integers(0, 3, (n, 2)) / 3 + 1 / 6, 0.05)
            for n in lengths
        )
        grid = Grid(BoundingBox.unit(), nx=3, ny=3)
        expected = dict_grams(dataset, grid, length, limit)
        original = trajpattern._GRAM_CHUNK_ROWS
        trajpattern._GRAM_CHUNK_ROWS = chunk_rows
        try:
            assert frequent_grams(dataset, grid, length, limit) == expected
            with tempfile.TemporaryDirectory() as tmp:
                path = write_store(dataset, Path(tmp) / "walks.tjc")
                with open_store(path) as store:
                    stored = store.dataset()
                    assert frequent_grams(stored, grid, length, limit) == expected
        finally:
            trajpattern._GRAM_CHUNK_ROWS = original

    def test_no_trajectory_long_enough(self):
        dataset = TrajectoryDataset(
            [UncertainTrajectory(np.full((2, 2), 0.5), 0.05)] * 3
        )
        grid = Grid(BoundingBox.unit(), nx=2, ny=2)
        assert frequent_grams(dataset, grid, 3, 10) == []
        assert frequent_grams(dataset, grid, 2, 10) == [(3, 3)]

    def test_counting_peak_on_the_wide_herd(self):
        """The mine-wide herd's count peaks under 1 MiB (the dict: 4.2)."""
        import tracemalloc

        from repro.experiments.datasets import zebranet_dataset

        dataset = zebranet_dataset(n_trajectories=250, n_ticks=100, sigma=0.01, seed=0)
        grid = dataset.make_grid(0.02)
        frequent_grams(dataset, grid, 2, 2000)  # warm-up
        tracemalloc.start()
        try:
            grams = frequent_grams(dataset, grid, 2, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grams) == 2000
        assert peak <= 2**20, peak

