"""Store-span parallel mining: same bits as in-RAM fork workers, no copies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine
from repro.core.pattern import TrajectoryPattern
from repro.storage import StoreDataset, open_store, write_store
from repro.testkit.datasets import seeded_dataset


@pytest.fixture(scope="module")
def eager():
    return seeded_dataset(9, n_trajectories=13, n_ticks=26)


@pytest.fixture(scope="module")
def setup(eager, tmp_path_factory):
    path = write_store(eager, tmp_path_factory.mktemp("store") / "d.tjc")
    grid = eager.make_grid(0.1)
    config = EngineConfig(delta=0.08, min_prob=1e-6)
    serial = NMEngine(eager, grid, config)
    cells = serial.active_cells
    patterns = [TrajectoryPattern((c,)) for c in cells[:5]] + [
        TrajectoryPattern((cells[0], cells[1])),
        TrajectoryPattern((cells[2], cells[0], cells[1])),
    ]
    return path, grid, config, serial, patterns


@pytest.mark.parametrize("jobs", [2, 3])
class TestStoreSpanParallel:
    def test_bit_identical_to_shm_parallel(self, eager, setup, jobs):
        path, grid, config, _, patterns = setup
        with open_store(path) as store:
            with ParallelNMEngine(store.dataset(), grid, config, jobs=jobs) as spans, \
                    ParallelNMEngine(eager, grid, config, jobs=jobs) as shm:
                assert spans.spans == shm.spans
                assert np.array_equal(spans.nm_batch(patterns), shm.nm_batch(patterns))
                assert np.array_equal(
                    spans.match_batch(patterns), shm.match_batch(patterns)
                )
                assert spans.active_cells == shm.active_cells

    def test_matches_serial_engine(self, setup, jobs):
        path, grid, config, serial, patterns = setup
        with open_store(path) as store:
            with ParallelNMEngine(store.dataset(), grid, config, jobs=jobs) as spans:
                nm_serial = serial.nm_batch(patterns)
                nm_spans = spans.nm_batch(patterns)
                # shard-summed reductions may reassociate; allow only
                # nextafter-level drift (the oracle holds this at 0 ULP for
                # identical shard layouts, but serial is a single sum).
                np.testing.assert_allclose(nm_spans, nm_serial, rtol=1e-12)


class TestSpanPlumbing:
    def test_workers_receive_spans_not_shm(self, setup):
        path, grid, config, _, _ = setup
        with open_store(path) as store:
            with ParallelNMEngine(store.dataset(), grid, config, jobs=2) as spans:
                # each worker is handed a lazy span of the same store file
                for i, (lo, hi) in enumerate(spans.spans):
                    span = spans._task(i).dataset
                    assert isinstance(span, StoreDataset)
                    assert span.store_ref == (str(store.path), lo, hi)

    def test_partial_span_parallel(self, eager, setup):
        path, grid, config, _, _ = setup
        with open_store(path) as store:
            span = store.span(3, 11)
            sub_cells = NMEngine(span, grid, config).active_cells
            patterns = [TrajectoryPattern((c,)) for c in sub_cells[:4]]
            with ParallelNMEngine(span, grid, config, jobs=2) as par:
                sub = eager.subset(range(3, 11))
                with ParallelNMEngine(sub, grid, config, jobs=2) as shm:
                    assert np.array_equal(
                        par.nm_batch(patterns), shm.nm_batch(patterns)
                    )

    def test_reads_leave_the_shared_file_offset_alone(self, setup):
        """Fork workers share the store's open file, offset included, with
        the parent and each other; every read is positional, so one
        process's seek cannot land under another's read."""
        path, _, _, _, _ = setup
        with open_store(path) as store:
            store._fh.seek(5)
            assert len(store.object_ids) == store.n_trajectories
            store.trajectory(store.n_trajectories - 1)
            assert store._fh.tell() == 5
