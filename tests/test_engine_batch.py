"""Tests of the engine's batched evaluation and vectorised index build.

The batched paths (``nm_batch`` / ``match_batch`` / ``window_scores_batch``
/ ``extension_tables_many``) are pure rearrangements of the scalar
arithmetic, so they must agree with the scalar reference
(:mod:`repro.core.measures`) to floating-point accuracy -- including
wildcards, length-1 patterns and mixed-length batches.  Likewise the
vectorised index construction must produce exactly the same CSR index as
the reference per-snapshot loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import engine as engine_module
from repro.core import kernels
from repro.core.engine import EngineConfig, NMEngine, build_csr, build_engine
from repro.core.measures import position_log_probs
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from tests.conftest import scalar_measures


def _random_patterns(rng, cells, n=24, max_length=5, wildcard_rate=0.3):
    """Random mixed-length patterns, some with wildcard positions."""
    patterns = []
    for _ in range(n):
        length = int(rng.integers(1, max_length + 1))
        chosen = [int(c) for c in rng.choice(cells, size=length)]
        if length > 1 and rng.random() < wildcard_rate:
            chosen[int(rng.integers(0, length))] = WILDCARD
        patterns.append(TrajectoryPattern(tuple(chosen)))
    return patterns


def _assert_batch_equals_scalar(engine, patterns):
    nm_batch = engine.nm_batch(patterns)
    match_batch = engine.match_batch(patterns)
    for i, pattern in enumerate(patterns):
        nm, match = scalar_measures(engine, pattern)
        assert nm_batch[i] == pytest.approx(nm, abs=1e-9)
        assert match_batch[i] == pytest.approx(match, rel=1e-9, abs=1e-300)


class TestBatchEqualsScalar:
    def test_random_mixed_batch(self, small_engine, rng):
        patterns = _random_patterns(rng, small_engine.active_cells)
        _assert_batch_equals_scalar(small_engine, patterns)

    def test_singular_and_wildcard_only(self, small_engine):
        cells = small_engine.active_cells
        patterns = [
            TrajectoryPattern((cells[0],)),
            TrajectoryPattern((WILDCARD, WILDCARD)),
            TrajectoryPattern((cells[1], WILDCARD, cells[2])),
        ]
        _assert_batch_equals_scalar(small_engine, patterns)

    def test_empty_batch(self, small_engine):
        assert small_engine.nm_batch([]).shape == (0,)
        assert small_engine.match_batch([]).shape == (0,)

    def test_patterns_longer_than_all_trajectories(self, rng):
        trajs = [
            UncertainTrajectory(rng.normal(0.5, 0.05, (n, 2)), 0.05)
            for n in (2, 3, 4)
        ]
        engine = build_engine(
            TrajectoryDataset(trajs), cell_size=0.05, min_prob=1e-5
        )
        cells = engine.active_cells
        long = TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=9)))
        wild_long = TrajectoryPattern((WILDCARD,) * 8 + (int(cells[0]),))
        batch = [long, wild_long, TrajectoryPattern((int(cells[0]),))]
        _assert_batch_equals_scalar(engine, batch)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-1, 24), min_size=1, max_size=4), min_size=1, max_size=8
        ),
        st.integers(0, 10_000),
    )
    def test_property_batch_equals_scalar(self, raw_patterns, seed):
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
        patterns = [
            TrajectoryPattern(
                tuple(c if c == WILDCARD else c % grid.n_cells for c in cells)
            )
            for cells in raw_patterns
        ]
        _assert_batch_equals_scalar(engine, patterns)


class TestWindowScoresBatch:
    def test_matches_single_pattern_scores(self, small_engine, rng):
        """Every in-trajectory window sum equals the scalar per-position
        log-probabilities summed; windows that cross a trajectory boundary
        are left unmasked."""
        patterns = _random_patterns(
            rng, small_engine.active_cells, n=8, wildcard_rate=0.3
        )
        batched = small_engine.window_scores_batch(patterns)
        engine = small_engine
        for pattern, scores in zip(patterns, batched):
            m = len(pattern)
            assert scores.shape == (engine._total_rows - m + 1,)
            assert scores.tobytes() == engine.window_scores_batch([pattern])[0].tobytes()
            for i, traj in enumerate(engine.dataset):
                start_row = int(engine._starts[i])
                for s in range(len(traj) - m + 1):
                    expected = position_log_probs(
                        pattern,
                        traj.window(s, m),
                        engine.grid,
                        engine.config.delta,
                        min_log_prob=engine.floor_log_prob,
                    ).sum()
                    assert scores[start_row + s] == pytest.approx(expected, abs=1e-9)


class TestExtensionTablesMany:
    def test_matches_single_prefix_tables(self, small_engine, rng):
        """A prefix's tables do not depend on the frontier it is batched
        with, and every extension matches the scalar reference."""
        cells = small_engine.active_cells
        prefixes = [
            TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=length)))
            for length in (1, 1, 2, 2, 3)
        ]
        inactive = min(set(range(small_engine.grid.n_cells)) - set(cells))
        many = small_engine.extension_tables_many(prefixes)
        for prefix, tables in zip(prefixes, many):
            (single,) = small_engine.extension_tables_many([prefix])
            assert tables == single  # float fields compared with ==, 0 ULP
            assert set(tables.nm_by_cell) == set(cells)
            for cell in rng.choice(cells, size=3):
                nm, match = scalar_measures(
                    small_engine, TrajectoryPattern(prefix.cells + (int(cell),))
                )
                assert tables.nm_by_cell[int(cell)] == pytest.approx(nm, abs=1e-9)
                assert tables.match_by_cell[int(cell)] == pytest.approx(
                    match, rel=1e-9, abs=1e-300
                )
            # An inactive extension cell scores the base totals.
            nm, match = scalar_measures(
                small_engine, TrajectoryPattern(prefix.cells + (inactive,))
            )
            assert tables.nm_base_total == pytest.approx(nm, abs=1e-9)
            assert tables.match_base_total == pytest.approx(match, rel=1e-9, abs=1e-300)


def _walks(rng, n, lengths, step=0.02):
    """``n`` random walks in the unit square, lengths drawn from ``lengths``."""
    return TrajectoryDataset(
        [
            UncertainTrajectory(
                np.clip(
                    rng.uniform(0.2, 0.8, 2)
                    + np.cumsum(rng.normal(0, step, (int(rng.choice(lengths)), 2)), axis=0),
                    0.0,
                    1.0,
                ),
                0.02,
            )
            for _ in range(n)
        ]
    )


class TestBoundedBatches:
    """Batches are evaluated in chunks whose scratch matrix fits a budget."""

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_one_pattern_chunks_move_no_bit(self, backend, rng, monkeypatch):
        # Trajectories of 2-12 snapshots: the longer patterns do not fit in
        # some of them, so the eligible-column gather runs.
        dataset = _walks(rng, 14, lengths=range(2, 13))
        engine = NMEngine(
            dataset,
            Grid(BoundingBox.unit(), nx=12, ny=12),
            EngineConfig(delta=0.05, min_prob=1e-5, backend=backend),
        )
        patterns = _random_patterns(rng, engine.active_cells, n=60, max_length=7)
        assert {len(p) for p in patterns} >= {1, 4, 7}
        assert min(len(t) for t in dataset) < 7 <= max(len(t) for t in dataset)
        prefixes = [p for p in patterns if WILDCARD not in p.cells][:12]

        def evaluate():
            return (
                engine.nm_batch(patterns),
                engine.match_batch(patterns),
                engine.window_scores_batch(patterns),
                engine.extension_tables_many(prefixes),
            )

        whole = evaluate()
        batches = engine.n_batches
        monkeypatch.setattr(engine_module, "_BATCH_SCORE_BUDGET", 1)
        split = evaluate()
        # One nm and one match chunk per pattern.
        assert engine.n_batches - batches == 2 * len(patterns)
        for got, want in zip(split[:2], whole[:2]):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(split[2], whole[2]):
            assert got.tobytes() == want.tobytes()
        assert split[3] == whole[3]  # float fields compared with ==, 0 ULP

    def test_nm_batch_peak_follows_the_budget(self, rng):
        """One 12k-pattern ``nm_batch`` over 120 trajectories stays near the budget.

        Unchunked, the call held its ``(patterns, trajectories)`` maxima
        matrix three times, 3 * 12k * 120 * 8 bytes = 33 MiB.  Chunked and
        reduced in place, it holds about one budget-sized matrix, and the
        engine's arena keeps no more than that plus the kernel's
        per-window scratch.
        """
        import tracemalloc

        if kernels.compiled_unavailable_reason() is not None:
            pytest.skip("the numpy gather's scratch follows its own budget")
        dataset = _walks(rng, 120, lengths=[40])
        engine = NMEngine(
            dataset,
            Grid(BoundingBox.unit(), nx=20, ny=20),
            EngineConfig(delta=0.05, min_prob=1e-5, backend="compiled"),
        )
        cells = engine.active_cells
        patterns = [
            TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=3)))
            for _ in range(12_000)
        ]
        engine.nm_batch(patterns[:10])  # lazy lookups and per-length plumbing
        budget_bytes = 8 * engine_module._BATCH_SCORE_BUDGET
        tracemalloc.start()
        try:
            engine.nm_batch(patterns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The budget-sized matrix, plus ~100 bytes per pattern for its cells
        # and result (measured 2.1 MiB).
        limit = 2 * budget_bytes + 100 * len(patterns)
        assert peak <= limit, (peak, limit)
        unchunked = 3 * 8 * len(patterns) * len(dataset)
        assert unchunked >= 3 * limit
        n_windows = engine._total_rows - 3 + 1
        assert engine._arena.nbytes() <= budget_bytes + 16 * n_windows


class TestVectorisedIndexBuild:
    def test_identical_to_scalar_collection(self, small_engine):
        """The vectorised capacity fill and the per-snapshot loop give the
        same CSR index: cell ids, bounds, rows and values, dtypes included."""
        vec, _ = build_csr(
            small_engine.dataset,
            small_engine.grid,
            small_engine.config,
            small_engine.kernel_backend,
        )
        ref = small_engine._collect_index_entries_scalar()
        assert [a.dtype for a in vec] == [np.int32, np.int64, np.int32, np.float64]
        for got, want in zip(vec, ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert len(vec[2]) == small_engine.n_index_entries

    def test_snapshot_cap_respected(self, rng):
        trajs = [
            UncertainTrajectory(rng.uniform(0.2, 0.8, (10, 2)), 0.05)
            for _ in range(4)
        ]
        dataset = TrajectoryDataset(trajs)
        grid = Grid(BoundingBox.unit(), nx=20, ny=20)
        engine = NMEngine(
            dataset,
            grid,
            EngineConfig(delta=0.05, min_prob=1e-6, max_cells_per_snapshot=8),
        )
        assert engine.n_index_entries <= 8 * dataset.total_snapshots()
        # Each capped snapshot keeps its highest-probability cells, so the
        # best singular pattern survives the cap.
        full = NMEngine(dataset, grid, EngineConfig(delta=0.05, min_prob=1e-6))
        best_full = max(full.singular_nm_table().items(), key=lambda kv: kv[1])
        best_capped = max(engine.singular_nm_table().items(), key=lambda kv: kv[1])
        assert best_full[0] == best_capped[0]
