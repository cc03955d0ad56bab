"""Index-cache robustness: torn files, bad payloads, crashed and racing writes.

Two invariants under test:

* **no half-written cache**: the write path is temp-file + atomic rename
  inside the cache directory, so a crash at any point leaves either the
  old file, the new file, or a ``*.tmp`` no reader ever opens -- never a
  truncated file under the final name;
* **every bad file is a miss**: zero-byte, truncated, garbage, or
  well-formed-but-out-of-range payloads must all rebuild (and overwrite)
  rather than raise out of engine construction or -- worse -- silently
  score against wrong entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import index_cache
from repro.core.engine import EngineConfig, NMEngine
from repro.obs import metrics
from repro.testkit import faults
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory
from tests.conftest import dataset_cache_key


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture
def live_metrics():
    registry = metrics.get_registry()
    was_enabled = registry.enabled
    registry.enable()
    yield registry
    registry.reset()
    if not was_enabled:
        registry.disable()


@pytest.fixture
def dataset():
    rng = np.random.default_rng(7)
    trajectories = []
    for i in range(6):
        means = rng.uniform(0.2, 0.4, 2) + np.cumsum(
            rng.normal(0.02, 0.005, (10, 2)), axis=0
        )
        trajectories.append(UncertainTrajectory(means, 0.02, object_id=f"o{i}"))
    return TrajectoryDataset(trajectories)


@pytest.fixture
def scenario(dataset, tmp_path):
    grid = dataset.make_grid(0.05)
    config = EngineConfig(delta=0.05, min_prob=1e-6, cache_dir=str(tmp_path))
    key = dataset_cache_key(dataset, grid, config)
    return dataset, grid, config, key, tmp_path


def _corrupt_count() -> int:
    return metrics.counter("index.cache.corrupt").value


class TestBadFilesAreMisses:
    @pytest.mark.parametrize(
        "content",
        [b"", b"PK\x03\x04truncated", b"this is not a zip archive at all"],
        ids=["zero-byte", "truncated", "garbage"],
    )
    def test_unreadable_file_rebuilds_and_overwrites(
        self, scenario, live_metrics, content
    ):
        dataset, grid, config, key, tmp_path = scenario
        path = index_cache.cache_path(tmp_path, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)

        before = _corrupt_count()
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert _corrupt_count() == before + 1
        # The bad file was overwritten by the rebuild: next load is a hit.
        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit
        np.testing.assert_array_equal(
            warm.index_arrays()[0], engine.index_arrays()[0]
        )

    def test_truncated_real_payload_is_a_miss(self, scenario):
        dataset, grid, config, key, tmp_path = scenario
        reference = NMEngine(dataset, grid, config)  # builds + persists
        path = index_cache.cache_path(tmp_path, key)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert index_cache.load_index(tmp_path, key) is None


class TestPayloadValidation:
    def _save_bogus(self, tmp_path, key, cells, rows, vals):
        index_cache.save_index(
            tmp_path,
            key,
            np.asarray(cells, dtype=np.int64),
            np.asarray(rows, dtype=np.int64),
            np.asarray(vals, dtype=np.float64),
        )

    def test_rows_beyond_dataset_rejected(self, scenario):
        dataset, grid, config, key, tmp_path = scenario
        n_rows = dataset.total_snapshots()
        self._save_bogus(tmp_path, key, [0, 1], [0, n_rows + 5], [-1.0, -2.0])
        assert index_cache.load_index(tmp_path, key, n_rows=n_rows) is None
        # Unbounded load still accepts it: the bounds come from the caller.
        assert index_cache.load_index(tmp_path, key) is not None

    def test_negative_rows_rejected_even_unbounded(self, scenario):
        _, _, _, key, tmp_path = scenario
        self._save_bogus(tmp_path, key, [0, 1], [-3, 0], [-1.0, -2.0])
        assert index_cache.load_index(tmp_path, key) is None

    def test_cells_beyond_grid_rejected(self, scenario):
        dataset, grid, config, key, tmp_path = scenario
        self._save_bogus(tmp_path, key, [grid.n_cells + 7], [0], [-1.0])
        assert index_cache.load_index(tmp_path, key, n_cells=grid.n_cells) is None

    def test_non_finite_vals_rejected(self, scenario):
        _, _, _, key, tmp_path = scenario
        self._save_bogus(tmp_path, key, [0, 1], [0, 1], [np.nan, -1.0])
        assert index_cache.load_index(tmp_path, key) is None

    def test_engine_survives_poisoned_cache_file(self, scenario):
        # Regression: pre-validation, a payload with out-of-range rows
        # under the right key crashed NMEngine construction with an
        # IndexError deep inside _install_index.
        dataset, grid, config, key, tmp_path = scenario
        n_rows = dataset.total_snapshots()
        self._save_bogus(
            tmp_path, key, [0, 1], [n_rows + 100, n_rows + 101], [-1.0, -2.0]
        )
        engine = NMEngine(dataset, grid, config)  # must build, not raise
        assert not engine.index_cache_hit
        warm = NMEngine(dataset, grid, config)
        assert warm.index_cache_hit


    def test_duplicated_entry_is_corrupt_and_rebuilt(self, tmp_path, live_metrics):
        # Regression: a payload that repeats one (cell, row) entry is in
        # range, finite and sorted, and used to load as a hit -- counting
        # the entry twice in every NM of its cell.
        from repro.core.pattern import TrajectoryPattern
        from repro.testkit.datasets import seeded_dataset

        dataset = seeded_dataset(3, n_trajectories=20, n_ticks=30)
        grid = dataset.make_grid(0.1)
        config = EngineConfig(delta=0.1, cache_dir=str(tmp_path))
        clean = NMEngine(dataset, grid, config)  # builds + persists
        key = dataset_cache_key(dataset, grid, config)
        cells, rows, vals = clean.index_arrays()
        i = len(cells) // 2
        index_cache.save_index(
            tmp_path, key, *(np.insert(a, i, a[i]) for a in (cells, rows, vals))
        )

        before = _corrupt_count()
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert _corrupt_count() == before + 1
        assert engine.n_index_entries == clean.n_index_entries
        assert engine.singular_nm_table() == clean.singular_nm_table()
        patterns = [TrajectoryPattern((int(c),) * 2) for c in clean.active_cells]
        assert np.array_equal(engine.nm_batch(patterns), clean.nm_batch(patterns))
        # The rebuild overwrote the bad file with the clean payload.
        assert NMEngine(dataset, grid, config).index_cache_hit


class TestInPlaceAppendKeying:
    def test_persist_after_append_never_poisons_the_boot_entry(
        self, dataset, tmp_path
    ):
        # Regression: a live ingest stream that starts from a store-backed
        # snapshot inherits a dataset carrying ``content_fingerprint``.
        # If the indexer persisted under a key derived from that stale
        # fingerprint after appending in place (same identity, new
        # contents), it would overwrite the *original* dataset's cache
        # entry with an index describing more rows -- a poisoned entry
        # every later boot of the original dataset would load.
        from repro.core.incremental import IncrementalIndexer
        from repro.storage import open_store, write_store

        store_path = tmp_path / "boot.tjc"
        write_store(dataset, store_path)
        cache_dir = tmp_path / "cache"
        grid = dataset.make_grid(0.05)
        config = EngineConfig(delta=0.05, min_prob=1e-6, cache_dir=str(cache_dir))
        with open_store(store_path) as store:
            lazy = store.dataset()
            assert lazy.content_fingerprint  # the stale-key ingredient
            engine = NMEngine(lazy, grid, config)
            boot_key = dataset_cache_key(lazy, grid, config)
            boot_payload = index_cache.cache_path(cache_dir, boot_key).read_bytes()

            live = NMEngine(
                TrajectoryDataset(list(lazy)), grid, config, prebuilt=engine.index_arrays()
            )
        indexer = IncrementalIndexer(live)
        rng = np.random.default_rng(11)
        means = rng.uniform(0.3, 0.5, 2) + np.cumsum(
            rng.normal(0.02, 0.005, (10, 2)), axis=0
        )
        indexer.append([UncertainTrajectory(means, 0.02, object_id="new")])
        persisted = indexer.persist()

        fresh_key = dataset_cache_key(live.dataset, grid, config)
        assert fresh_key != boot_key
        assert persisted == index_cache.cache_path(cache_dir, fresh_key)
        # The boot dataset's entry is byte-identical: not poisoned.
        assert (
            index_cache.cache_path(cache_dir, boot_key).read_bytes()
            == boot_payload
        )
        loaded = index_cache.load_index(
            cache_dir, boot_key, n_rows=dataset.total_snapshots()
        )
        assert loaded is not None


class TestCrashAndRaceDuringSave:
    def test_temp_file_lives_inside_cache_dir(self, scenario):
        # Pin the EXDEV fix: the temp file must share the target's
        # directory (hence filesystem), keeping os.replace atomic.
        _, _, _, key, tmp_path = scenario
        seen = {}
        faults.arm(
            "index_cache.save",
            "callback",
            callback=lambda point, ctx: seen.update(ctx),
        )
        index_cache.save_index(
            tmp_path, key, np.array([0]), np.array([0]), np.array([-1.0])
        )
        assert seen["tmp"].startswith(str(tmp_path))

    def test_crash_before_rename_leaves_no_file(self, scenario):
        _, _, _, key, tmp_path = scenario
        faults.arm("index_cache.save")  # raises between write and rename
        with pytest.raises(faults.FaultInjected):
            index_cache.save_index(
                tmp_path, key, np.array([0]), np.array([0]), np.array([-1.0])
            )
        assert not index_cache.cache_path(tmp_path, key).exists()
        assert list(tmp_path.glob("*.tmp")) == []  # temp cleaned up too
        assert index_cache.load_index(tmp_path, key) is None  # plain miss

    def test_torn_write_surviving_rename_is_still_a_miss(self, scenario):
        # Even if a torn payload somehow lands under the final name (the
        # callback truncates the temp file before the rename), readers
        # treat it as a miss and the next build overwrites it.
        dataset, grid, config, key, tmp_path = scenario

        def tear(point, ctx):
            with open(ctx["tmp"], "r+b") as fh:
                fh.truncate(20)

        faults.arm("index_cache.save", "callback", callback=tear)
        index_cache.save_index(
            tmp_path, key, np.array([0]), np.array([0]), np.array([-1.0])
        )
        assert index_cache.cache_path(tmp_path, key).exists()
        assert index_cache.load_index(tmp_path, key) is None
        faults.disarm()
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert NMEngine(dataset, grid, config).index_cache_hit

    def test_reader_racing_a_rewrite_sees_old_or_new_never_torn(self, scenario):
        # A load issued while save_index is mid-write (temp written, not
        # yet renamed) must see the *previous* complete file.
        _, _, _, key, tmp_path = scenario
        index_cache.save_index(
            tmp_path, key, np.array([1]), np.array([0]), np.array([-1.5])
        )
        mid_write: list = []
        faults.arm(
            "index_cache.save",
            "callback",
            callback=lambda point, ctx: mid_write.append(
                index_cache.load_index(tmp_path, key)
            ),
        )
        index_cache.save_index(
            tmp_path, key, np.array([2]), np.array([0]), np.array([-2.5])
        )
        (racing,) = mid_write
        assert racing is not None
        np.testing.assert_array_equal(racing[0], [1])  # the old generation
        after = index_cache.load_index(tmp_path, key)
        np.testing.assert_array_equal(after[0], [2])  # the new one

    def test_reader_before_first_write_is_a_clean_miss(self, scenario):
        _, _, _, key, tmp_path = scenario
        mid_write: list = []
        faults.arm(
            "index_cache.save",
            "callback",
            callback=lambda point, ctx: mid_write.append(
                index_cache.load_index(tmp_path, key)
            ),
        )
        index_cache.save_index(
            tmp_path, key, np.array([0]), np.array([0]), np.array([-1.0])
        )
        assert mid_write == [None]
