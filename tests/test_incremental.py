"""Incremental index maintenance: append/evict folds vs from-scratch builds.

The contract under test is *bit identity*: after any interleaving of
appends and sliding-window evictions, the live engine's flat index arrays
-- and therefore every NM/match it will ever compute -- must equal a
from-scratch :class:`NMEngine` build over the surviving trajectories
exactly, not approximately.  Hypothesis drives the interleavings; the
fixed tests pin the merge/evict primitives, the epoch-staleness guard and
the warm-started miner's exactness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import index_cache
from repro.core.engine import EngineConfig, NMEngine, StaleIndexError
from repro.core.incremental import (
    IncrementalIndexer,
    collect_delta_entries,
    drop_leading_rows,
    merge_sorted_entries,
)
from repro.core.trajpattern import TrajPatternMiner
from repro.experiments.datasets import zebranet_dataset
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import dataset_cache_key

CONFIG = EngineConfig(delta=0.05, min_prob=1e-6)


@pytest.fixture(scope="module")
def pool():
    """A trajectory pool plus a grid wide enough for every member."""
    dataset = zebranet_dataset(n_trajectories=14, n_ticks=20, seed=23)
    return list(dataset), dataset.make_grid(0.05)


def _fresh_arrays(trajectories, grid):
    return NMEngine(
        TrajectoryDataset(list(trajectories)), grid, CONFIG
    ).index_arrays()


def _assert_same_index(engine, trajectories, grid):
    expected = _fresh_arrays(trajectories, grid)
    got = engine.index_arrays()
    for name, a, b in zip(("cells", "rows", "vals"), got, expected):
        np.testing.assert_array_equal(a, b, err_msg=f"{name} diverged")


class TestMergePrimitives:
    def test_merge_equals_lexsort_of_concatenation(self):
        rng = np.random.default_rng(5)
        n_rows = 40

        def sorted_entries(n, rows_lo, rows_hi):
            cells = rng.integers(0, 25, n)
            rows = rng.integers(rows_lo, rows_hi, n)
            # make (cell, row) unique per side
            seen, keep = set(), []
            for i, (c, r) in enumerate(zip(cells, rows)):
                if (c, r) not in seen:
                    seen.add((c, r))
                    keep.append(i)
            cells, rows = cells[keep], rows[keep]
            order = np.lexsort((rows, cells))
            vals = -rng.uniform(0.1, 5.0, len(keep))
            return (
                cells[order].astype(np.int64),
                rows[order].astype(np.int64),
                vals,
            )

        base = sorted_entries(60, 0, 30)
        delta = sorted_entries(25, 30, n_rows)  # disjoint row range
        merged = merge_sorted_entries(base, delta, n_rows)
        cells = np.concatenate([base[0], delta[0]])
        rows = np.concatenate([base[1], delta[1]])
        vals = np.concatenate([base[2], delta[2]])
        order = np.lexsort((rows, cells))
        np.testing.assert_array_equal(merged[0], cells[order])
        np.testing.assert_array_equal(merged[1], rows[order])
        np.testing.assert_array_equal(merged[2], vals[order])

    def test_merge_empty_sides_are_identity(self):
        empty = (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
        )
        side = (
            np.array([1, 2], np.int64),
            np.array([0, 1], np.int64),
            np.array([-1.0, -2.0]),
        )
        assert merge_sorted_entries(side, empty, 2) == side
        assert merge_sorted_entries(empty, side, 2) == side

    def test_overflow_guard_falls_back_to_lexsort(self):
        # cell ids large enough that cell * n_rows overflows int64
        huge = np.int64(2**40)
        base = (np.array([huge], np.int64), np.array([0], np.int64), np.array([-1.0]))
        delta = (
            np.array([huge - 1], np.int64),
            np.array([1], np.int64),
            np.array([-2.0]),
        )
        merged = merge_sorted_entries(base, delta, 2**25)
        np.testing.assert_array_equal(merged[0], [huge - 1, huge])
        np.testing.assert_array_equal(merged[1], [1, 0])

    def test_drop_leading_rows_filters_and_renumbers(self):
        entries = (
            np.array([0, 0, 3, 7], np.int64),
            np.array([1, 4, 2, 3], np.int64),
            np.array([-1.0, -2.0, -3.0, -4.0]),
        )
        cells, rows, vals = drop_leading_rows(entries, 2)
        np.testing.assert_array_equal(cells, [0, 3, 7])
        np.testing.assert_array_equal(rows, [2, 0, 1])
        np.testing.assert_array_equal(vals, [-2.0, -3.0, -4.0])
        assert drop_leading_rows(entries, 0) == entries

    def test_collect_delta_entries_matches_fresh_rows(self, pool):
        trajectories, grid = pool
        base, extra = trajectories[:4], trajectories[4:6]
        offset = TrajectoryDataset(base).total_snapshots()
        cells, rows, vals = collect_delta_entries(extra, grid, CONFIG, offset)
        assert rows.min() >= offset
        # The same rows appear (row-shifted) in the combined fresh build.
        full = _fresh_arrays(base + extra, grid)
        mask = full[1] >= offset
        order = np.lexsort((rows, cells))
        np.testing.assert_array_equal(cells[order], full[0][mask])
        np.testing.assert_array_equal(rows[order], full[1][mask])
        np.testing.assert_array_equal(vals[order], full[2][mask])


class TestIncrementalIndexer:
    def test_append_then_evict_is_bit_identical(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG)
        indexer = IncrementalIndexer(engine)
        indexer.append(trajectories[5:9])
        _assert_same_index(engine, trajectories[:9], grid)
        indexer.evict(3)
        _assert_same_index(engine, trajectories[3:9], grid)
        assert engine.index_epoch == 3  # build + append + evict

    def test_window_auto_evicts_oldest(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG)
        indexer = IncrementalIndexer(engine, window=6)
        stats = indexer.append(trajectories[5:9])
        assert stats["appended"] == 4 and stats["evicted"] == 3
        assert len(engine.dataset) == 6
        _assert_same_index(engine, trajectories[3:9], grid)

    def test_evict_everything_is_refused(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:3]), grid, CONFIG)
        indexer = IncrementalIndexer(engine)
        with pytest.raises(ValueError, match="non-empty"):
            indexer.evict(3)

    def test_scoring_after_folds_matches_fresh_engine(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:6]), grid, CONFIG)
        IncrementalIndexer(engine, window=7).append(trajectories[6:10])
        fresh = NMEngine(TrajectoryDataset(trajectories[3:10]), grid, CONFIG)
        from repro.core.pattern import TrajectoryPattern

        cells = fresh.active_cells
        patterns = [
            TrajectoryPattern((int(cells[0]), int(cells[1]))),
            TrajectoryPattern((int(cells[2]),)),
        ]
        np.testing.assert_array_equal(
            engine.nm_batch(patterns), fresh.nm_batch(patterns)
        )
        np.testing.assert_array_equal(
            engine.match_batch(patterns), fresh.match_batch(patterns)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(1, 3)),
                st.tuples(st.just("evict"), st.integers(1, 2)),
            ),
            min_size=1,
            max_size=6,
        ),
        n_base=st.integers(2, 4),
    )
    def test_any_interleaving_is_bit_identical(self, pool, ops, n_base):
        """Property: every append/evict interleaving == fresh build, 0 ULP."""
        trajectories, grid = pool
        surviving = list(trajectories[:n_base])
        cursor = n_base
        engine = NMEngine(TrajectoryDataset(surviving), grid, CONFIG)
        indexer = IncrementalIndexer(engine)
        for kind, count in ops:
            if kind == "append":
                batch = trajectories[cursor : cursor + count]
                if not batch:
                    continue  # pool exhausted
                cursor += len(batch)
                indexer.append(batch)
                surviving.extend(batch)
            else:
                count = min(count, len(surviving) - 1)
                if count <= 0:
                    continue  # never empty the engine
                indexer.evict(count)
                del surviving[:count]
        _assert_same_index(engine, surviving, grid)


class TestEpochStaleness:
    def test_replace_index_bumps_epoch_and_stale_check_raises(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:4]), grid, CONFIG)
        pinned = engine.index_epoch
        engine.require_epoch(pinned)  # current epoch passes
        IncrementalIndexer(engine).append(trajectories[4:5])
        assert engine.index_epoch == pinned + 1
        with pytest.raises(StaleIndexError, match="epoch changed"):
            engine.require_epoch(pinned)

    def test_miner_raises_on_mid_run_mutation(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG)
        miner = TrajPatternMiner(engine, k=3)
        indexer = IncrementalIndexer(engine)

        # Sabotage: the first batch evaluation mutates the index in place,
        # as a buggy concurrent ingest would.
        original = miner._evaluate_batch
        armed = {"done": False}

        def sabotaged(book, batch, stats):
            if not armed["done"]:
                armed["done"] = True
                indexer.append(trajectories[5:6])
            return original(book, batch, stats)

        miner._evaluate_batch = sabotaged
        with pytest.raises(StaleIndexError):
            miner.mine()


class TestWarmStartedMining:
    def test_warm_topk_equals_cold_topk(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:8]), grid, CONFIG)
        previous = TrajPatternMiner(engine, k=4).mine()
        assert previous.warm_state is not None
        assert len(previous.warm_state) > 0

        indexer = IncrementalIndexer(engine)
        indexer.append(trajectories[8:11])
        warm = TrajPatternMiner(
            engine, k=4, warm_state=previous.warm_state
        ).mine()
        cold = TrajPatternMiner(
            NMEngine(TrajectoryDataset(trajectories[:11]), grid, CONFIG), k=4
        ).mine()
        assert [
            (p.cells, nm) for p, nm in warm.as_pairs()
        ] == [(p.cells, nm) for p, nm in cold.as_pairs()]
        assert warm.omega == cold.omega

    def test_warm_state_round_trips_through_result(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:6]), grid, CONFIG)
        result = TrajPatternMiner(engine, k=3).mine()
        again = TrajPatternMiner(
            engine, k=3, warm_state=result.warm_state
        ).mine()
        assert [p.cells for p in again.patterns] == [
            p.cells for p in result.patterns
        ]


class TestPersist:
    def test_persist_uses_fresh_content_key(self, pool, tmp_path):
        trajectories, grid = pool
        config = EngineConfig(delta=0.05, min_prob=1e-6, cache_dir=str(tmp_path))
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, config)
        original_key = dataset_cache_key(engine.dataset, grid, config)
        indexer = IncrementalIndexer(engine)
        indexer.append(trajectories[5:7])
        path = indexer.persist()
        assert path is not None and path.exists()
        new_key = dataset_cache_key(engine.dataset, grid, config)
        assert new_key != original_key
        assert path == index_cache.cache_path(tmp_path, new_key)
