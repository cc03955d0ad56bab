"""Lazy StoreDataset equivalence: same answers as the eager dataset, less RAM."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.index_cache import dataset_fingerprint
from repro.storage import StoreDataset, open_store, write_store
from repro.testkit.datasets import seeded_dataset


@pytest.fixture(scope="module")
def eager():
    return seeded_dataset(5, n_trajectories=14, n_ticks=30)


@pytest.fixture
def store(eager, tmp_path):
    path = write_store(eager, tmp_path / "d.tjc")
    with open_store(path) as opened:
        yield opened


class TestAggregateEquivalence:
    def test_columns_bit_identical(self, eager, store):
        lazy = store.dataset()
        assert np.array_equal(lazy.all_means(), eager.all_means())
        assert np.array_equal(lazy.all_sigmas(), eager.all_sigmas())
        assert np.array_equal(lazy.lengths(), eager.lengths())
        assert lazy.total_snapshots() == eager.total_snapshots()
        assert lazy.mean_length() == eager.mean_length()
        assert lazy.max_sigma() == eager.max_sigma()

    def test_bounding_box_from_footer_is_exact(self, eager, store):
        lazy = store.dataset()
        assert lazy.bounding_box() == eager.bounding_box()
        assert lazy.bounding_box(n_sigmas=3.0) == eager.bounding_box(n_sigmas=3.0)

    def test_trajectory_access(self, eager, store):
        lazy = store.dataset()
        assert len(lazy) == len(eager)
        for i in (0, 7, len(eager) - 1):
            assert lazy.trajectories[i].object_id == eager.trajectories[i].object_id
            assert np.array_equal(
                np.asarray(lazy.trajectories[i].means),
                np.asarray(eager.trajectories[i].means),
            )
        # negative indexing and iteration both work
        assert lazy.trajectories[-1].object_id == eager.trajectories[-1].object_id
        assert [t.object_id for t in lazy] == [t.object_id for t in eager]

    def test_row_columns_matches_all_means_slices(self, eager, store):
        lazy = store.dataset()
        for lo, hi in [(0, 10), (13, 57), (0, eager.total_snapshots())]:
            means, sigmas = lazy.row_columns(lo, hi)
            assert np.array_equal(means, eager.all_means()[lo:hi])
            assert np.array_equal(sigmas, eager.all_sigmas()[lo:hi])
        with pytest.raises(IndexError):
            lazy.row_columns(0, eager.total_snapshots() + 1)

    def test_reads_map_nothing_of_the_file(self, eager, store):
        """Every read of a raw float64 store goes through ``pread``: after
        the aggregate queries, a row chunk and a trajectory, the process
        holds no mapping of the store's file."""
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("no /proc/self/maps on this platform")
        lazy = store.dataset()
        assert store.compression == "none" and store.positions == "f64"
        assert np.array_equal(lazy.lengths(), eager.lengths())
        assert np.array_equal(lazy.all_means(), eager.all_means())
        assert np.array_equal(lazy.all_sigmas(), eager.all_sigmas())
        assert np.array_equal(lazy.row_columns(0, 10)[0], eager.all_means()[:10])
        assert lazy[0].object_id == eager[0].object_id
        path = str(store.path.resolve())
        mapped = [line for line in maps.read_text().splitlines() if path in line]
        assert mapped == []


class TestSpans:
    def test_span_is_the_eager_subrange(self, eager, store):
        span = store.span(4, 9)
        sub = eager.trajectories[4:9]
        assert len(span) == 5
        assert [t.object_id for t in span] == [t.object_id for t in sub]
        lo = int(np.sum(eager.lengths()[:4]))
        hi = lo + int(np.sum(eager.lengths()[4:9]))
        assert np.array_equal(span.all_means(), eager.all_means()[lo:hi])

    def test_content_fingerprint_full_span_only(self, eager, store):
        full = store.dataset()
        assert full.content_fingerprint == store.content_hash
        assert dataset_fingerprint(full) == dataset_fingerprint(eager)
        partial = store.span(0, 3)
        with pytest.raises(AttributeError):
            partial.content_fingerprint
        # a partial span still fingerprints -- by hashing its contents,
        # which must differ from the full store's.
        assert dataset_fingerprint(partial) != dataset_fingerprint(eager)

    def test_store_ref_round_trips(self, store):
        span = store.span(2, 6)
        path, lo, hi = span.store_ref
        assert path == str(store.path)
        assert (lo, hi) == (2, 6)

    def test_out_of_range_span_rejected(self, store):
        with pytest.raises(IndexError):
            StoreDataset(store, 0, store.n_trajectories + 1)


class TestEngineEquivalence:
    def test_engine_bit_identical_to_eager(self, eager, store):
        grid = eager.make_grid(0.1)
        config = EngineConfig(delta=0.08, min_prob=1e-6)
        ram = NMEngine(eager, grid, config)
        lazy = NMEngine(store.dataset(), grid, config)
        for a, b in zip(ram.index_csr(), lazy.index_csr()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        cells = ram.active_cells
        patterns = [TrajectoryPattern((c,)) for c in cells[:6]] + [
            TrajectoryPattern((cells[0], cells[1])),
            TrajectoryPattern((cells[1], cells[0])),
        ]
        assert np.array_equal(ram.nm_batch(patterns), lazy.nm_batch(patterns))
        assert np.array_equal(ram.match_batch(patterns), lazy.match_batch(patterns))

    def test_grid_from_store_matches_grid_from_ram(self, eager, store):
        # suggest-free path: grids derived from footer stats equal grids
        # derived from the dense columns, so cache keys line up too.
        assert store.dataset().make_grid(0.05) == eager.make_grid(0.05)
