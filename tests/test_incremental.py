"""Incremental index maintenance: append/evict folds vs from-scratch builds.

The contract under test is *bit identity*: after any interleaving of
appends and sliding-window evictions, the live engine's index arrays --
and therefore every NM/match it will ever compute -- must equal a
from-scratch :class:`NMEngine` build over the surviving trajectories
exactly, not approximately.  Hypothesis drives the interleavings; the
fixed tests pin the CSR splice/trim primitives, the sharing of index
arrays between engines, the memory of one fold and the one engine it
builds, that a fold leaves the engine a miner is running on untouched,
and the warm-started miner's exactness.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.engine import EngineConfig, NMEngine
from repro.core.incremental import (
    IncrementalIndexer,
    _delta_csr,
    append_csr,
    evict_csr,
)
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.experiments.datasets import zebranet_dataset
from repro.trajectory.dataset import TrajectoryDataset

CONFIG = EngineConfig(delta=0.05, min_prob=1e-6)


@pytest.fixture(scope="module")
def pool():
    """A trajectory pool plus a grid wide enough for every member."""
    dataset = zebranet_dataset(n_trajectories=14, n_ticks=20, seed=23)
    return list(dataset), dataset.make_grid(0.05)


def _fresh_csr(trajectories, grid):
    return NMEngine(TrajectoryDataset(list(trajectories)), grid, CONFIG).index_csr()


def _assert_same_index(engine, trajectories, grid):
    _assert_same_csr(engine.index_csr(), _fresh_csr(trajectories, grid))


def _csr(cells, rows, vals):
    """CSR form ``(cell_ids, cell_bounds, rows, vals)`` of entry triples."""
    order = np.lexsort((rows, cells))
    cells, rows, vals = cells[order], rows[order], vals[order]
    cell_ids, counts = np.unique(cells, return_counts=True)
    bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return cell_ids.astype(np.int32), bounds, rows.astype(np.int32), vals


def _assert_same_csr(got, want):
    for name, a, b in zip(("cell_ids", "cell_bounds", "rows", "vals"), got, want):
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=f"{name} diverged")


class TestMergePrimitives:
    @staticmethod
    def _entries(rng, n, rows_lo, rows_hi):
        """Random entry triples, unique per (cell, row)."""
        keys = rng.choice(25 * (rows_hi - rows_lo), size=n, replace=False)
        cells = keys // (rows_hi - rows_lo)
        rows = rows_lo + keys % (rows_hi - rows_lo)
        return cells, rows, -rng.uniform(0.1, 5.0, n)

    def test_merge_equals_lexsort_of_concatenation(self):
        rng = np.random.default_rng(5)
        base = self._entries(rng, 60, 0, 30)
        delta = self._entries(rng, 25, 30, 40)  # rows follow the base's
        merged = append_csr(_csr(*base), _csr(*delta), 30)
        both = [np.concatenate([b, d]) for b, d in zip(base, delta)]
        _assert_same_csr(merged, _csr(*both))

    def test_merge_empty_sides_are_identity(self):
        empty = _csr(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        side = _csr(np.array([1, 2]), np.array([0, 1]), np.array([-1.0, -2.0]))
        assert append_csr(side, empty, 2) is side
        assert append_csr(empty, side, 0) is side

    def test_merge_rejects_delta_rows_inside_the_base(self):
        base = _csr(np.array([1, 2]), np.array([0, 3]), np.array([-1.0, -2.0]))
        delta = _csr(np.array([1]), np.array([3]), np.array([-3.0]))
        with pytest.raises(ValueError, match="follow"):
            append_csr(base, delta, 4)

    def test_drop_leading_rows_filters_and_renumbers(self):
        csr = _csr(
            np.array([0, 0, 3, 7, 9]),
            np.array([1, 4, 2, 3, 0]),
            np.array([-1.0, -2.0, -3.0, -4.0, -5.0]),
        )
        cell_ids, bounds, rows, vals = evict_csr(csr, 2)
        # Cell 9's only entry expired, so the cell drops out.
        np.testing.assert_array_equal(cell_ids, [0, 3, 7])
        np.testing.assert_array_equal(bounds, [0, 1, 2, 3])
        np.testing.assert_array_equal(rows, [2, 0, 1])
        np.testing.assert_array_equal(vals, [-2.0, -3.0, -4.0])
        assert rows.dtype == np.int32
        assert evict_csr(csr, 0) is csr

    def test_delta_entries_match_fresh_rows(self, pool):
        trajectories, grid = pool
        base, extra = trajectories[:4], trajectories[4:6]
        engine = NMEngine(TrajectoryDataset(base), grid, CONFIG)
        offset = engine.dataset.total_snapshots()
        delta = _delta_csr(extra, engine, offset)
        assert delta[2].min() >= offset
        # The same rows appear (row-shifted) in the combined fresh build.
        cell_ids, cell_bounds, rows, vals = _fresh_csr(base + extra, grid)
        cells = np.repeat(cell_ids, np.diff(cell_bounds))
        mask = rows >= offset
        _assert_same_csr(delta, _csr(cells[mask], rows[mask], vals[mask]))


class TestIncrementalIndexer:
    def test_append_then_evict_is_bit_identical(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG)
        indexer = IncrementalIndexer(engine)
        indexer.append(trajectories[5:9])
        appended = indexer.engine
        _assert_same_index(appended, trajectories[:9], grid)
        indexer.evict(3)
        _assert_same_index(indexer.engine, trajectories[3:9], grid)
        # Each fold built a new engine and left the one it folded intact.
        assert len({id(engine), id(appended), id(indexer.engine)}) == 3
        _assert_same_index(engine, trajectories[:5], grid)
        _assert_same_index(appended, trajectories[:9], grid)

    def test_window_auto_evicts_oldest(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG)
        indexer = IncrementalIndexer(engine, window=6)
        stats = indexer.append(trajectories[5:9])
        assert stats["appended"] == 4 and stats["evicted"] == 3
        assert len(indexer.engine.dataset) == 6
        _assert_same_index(indexer.engine, trajectories[3:9], grid)

    def test_evict_everything_is_refused(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:3]), grid, CONFIG)
        indexer = IncrementalIndexer(engine)
        with pytest.raises(ValueError, match="non-empty"):
            indexer.evict(3)

    def test_scoring_after_folds_matches_fresh_engine(self, pool):
        trajectories, grid = pool
        indexer = IncrementalIndexer(
            NMEngine(TrajectoryDataset(trajectories[:6]), grid, CONFIG), window=7
        )
        indexer.append(trajectories[6:10])
        engine = indexer.engine
        fresh = NMEngine(TrajectoryDataset(trajectories[3:10]), grid, CONFIG)
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

    def test_append_leaves_published_arrays_unchanged(self, pool):
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:6]), grid, CONFIG)
        published = NMEngine(
            engine.dataset, grid, CONFIG, csr=engine.index_csr()
        )
        before = [a.tobytes() for a in published.index_csr()]
        patterns = [TrajectoryPattern((c,)) for c in published.active_cells[:5]]
        nm_before = published.nm_batch(patterns)
        indexer = IncrementalIndexer(engine, window=7)
        indexer.append(trajectories[6:9])
        indexer.evict(1)
        assert [a.tobytes() for a in published.index_csr()] == before
        np.testing.assert_array_equal(published.nm_batch(patterns), nm_before)
        _assert_same_index(published, trajectories[:6], grid)

    def test_live_and_published_engines_share_their_source_arrays(self, pool):
        from repro.serve import ServingSnapshot
        from repro.serve.server import IngestConfig, _LiveIngest

        trajectories, _ = pool
        boot = ServingSnapshot.from_dataset(
            TrajectoryDataset(trajectories[:8]), version="v-share"
        )
        live = _LiveIngest(boot, IngestConfig(k=3))
        for mine, source in zip(
            live.indexer.engine.index_csr(), boot.engine.index_csr()
        ):
            assert mine is source
        boot_bytes = [a.tobytes() for a in boot.engine.index_csr()]
        published = []
        for wave in (trajectories[8:10], trajectories[10:12]):
            _, snapshot = live.fold(wave)
            # The republished snapshot serves the engine the fold built.
            assert snapshot.engine is live.indexer.engine
            assert snapshot.dataset is snapshot.engine.dataset
            published.append(snapshot.engine)
        assert published[0] is not published[1]
        assert [a.tobytes() for a in boot.engine.index_csr()] == boot_bytes
        for engine, n in zip(published, (10, 12)):
            fresh = NMEngine(
                TrajectoryDataset(trajectories[:n]), boot.grid, boot.engine.config
            )
            _assert_same_csr(engine.index_csr(), fresh.index_csr())

    @staticmethod
    def _traced_append_peak_per_entry(window: int | None) -> float:
        """Traced peak of appending 2 trajectories to 50, per base entry.

        On the compiled backend, whose segmentation is one pass; the numpy
        reference segmentation adds ~17 B per entry of temporaries.
        """
        reason = kernels.compiled_unavailable_reason()
        if reason is not None:
            pytest.skip(f"compiled backend unavailable: {reason}")
        trajectories = list(zebranet_dataset(n_trajectories=52, n_ticks=60, seed=5))
        grid = TrajectoryDataset(trajectories).make_grid(0.01)
        config = EngineConfig(delta=0.01, min_prob=1e-6, backend="compiled")
        engine = NMEngine(TrajectoryDataset(trajectories[:50]), grid, config)
        n_base = engine.n_index_entries
        assert n_base >= 300_000
        indexer = IncrementalIndexer(engine, window=window)
        tracemalloc.start()
        try:
            stats = indexer.append(trajectories[50:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["evicted"] == (0 if window is None else 52 - window)
        return peak / n_base

    def test_append_traced_peak_per_entry(self):
        """One fold allocates ~14 B per base entry: the output CSR and a mask."""
        assert self._traced_append_peak_per_entry(None) <= 20.0

    def test_windowed_append_traced_peak_per_entry(self):
        """An append that evicts past the window allocates ~26 B per base
        entry: the spliced CSR, the trim's keep mask and the trimmed CSR,
        with the spliced arrays freed before the one engine segments."""
        assert self._traced_append_peak_per_entry(50) <= 27.5

    def test_each_fold_builds_one_engine(self, pool, monkeypatch):
        """An append, an append that evicts past the window, and an evict
        each construct exactly one engine: the one the fold leaves live."""
        trajectories, grid = pool
        indexer = IncrementalIndexer(
            NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG), window=8
        )
        built = []
        init = NMEngine.__init__

        def counting_init(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(NMEngine, "__init__", counting_init)
        for fold, evicted in (
            (lambda: indexer.append(trajectories[5:7]), 0),
            (lambda: indexer.append(trajectories[7:10]), 2),
            (lambda: indexer.evict(3), 3),
        ):
            built.clear()
            assert fold()["evicted"] == evicted
            assert built == [indexer.engine]
        _assert_same_index(indexer.engine, trajectories[5:10], grid)

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
        window=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_any_interleaving_is_bit_identical(self, pool, ops, n_base, window):
        """Property: after every fold of any append/evict interleaving, with
        or without a window evicting in the same fold as an append, the
        index == a fresh build over the surviving trajectories, 0 ULP."""
        trajectories, grid = pool
        surviving = list(trajectories[:n_base])
        cursor = n_base
        engine = NMEngine(TrajectoryDataset(surviving), grid, CONFIG)
        indexer = IncrementalIndexer(engine, window=window)
        for kind, count in ops:
            if kind == "append":
                batch = trajectories[cursor : cursor + count]
                if not batch:
                    continue  # pool exhausted
                cursor += len(batch)
                indexer.append(batch)
                surviving.extend(batch)
                if window is not None:
                    del surviving[:-window]
            else:
                count = min(count, len(surviving) - 1)
                if count <= 0:
                    continue  # never empty the engine
                indexer.evict(count)
                del surviving[:count]
            _assert_same_index(indexer.engine, surviving, grid)


class TestFoldDuringMine:
    def test_fold_during_a_mine_leaves_its_engine_untouched(self, pool):
        """A fold landing mid-mine builds a new engine: the running mine
        finishes on the engine it started with and returns exactly the
        cold top-k over the pre-fold dataset."""
        trajectories, grid = pool
        engine = NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG)
        before = [a.tobytes() for a in engine.index_csr()]
        miner = TrajPatternMiner(engine, k=3)
        indexer = IncrementalIndexer(engine)

        # The first batch evaluation folds a wave in, as a concurrent
        # ingest would.
        original = miner._evaluate_batch
        folds = []

        def folding(book, batch, stats):
            if not folds:
                folds.append(indexer.append(trajectories[5:6]))
            return original(book, batch, stats)

        miner._evaluate_batch = folding
        result = miner.mine()
        assert folds and indexer.engine is not engine
        assert miner.engine is engine and len(engine.dataset) == 5
        assert [a.tobytes() for a in engine.index_csr()] == before
        cold = TrajPatternMiner(
            NMEngine(TrajectoryDataset(trajectories[:5]), grid, CONFIG), k=3
        ).mine()
        assert [(p.cells, nm) for p, nm in result.as_pairs()] == [
            (p.cells, nm) for p, nm in cold.as_pairs()
        ]
        assert result.omega == cold.omega


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
            indexer.engine, k=4, warm_state=previous.warm_state
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
