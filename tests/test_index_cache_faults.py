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

import gc
import logging
import warnings

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


def _load(scenario):
    """``load_index`` of the scenario's key, bounded by its engine."""
    dataset, grid, config, key, tmp_path = scenario
    return index_cache.load_index(
        tmp_path, key, n_rows=dataset.total_snapshots(), n_cells=grid.n_cells,
        floor=config.min_log_prob,
    )  # fmt: skip


def _one_entry(cell: int, value: float):
    """A one-entry CSR index: ``cell`` holds ``value`` at row 0."""
    return (
        np.array([cell], dtype=np.int32), np.array([0, 1]),
        np.array([0], dtype=np.int32), np.array([value]),
    )  # fmt: skip


def _with_entry(csr, i: int, row: int, value: float):
    """``csr`` with one more entry inserted at position ``i`` of its runs
    (in the run that holds position ``i``): no build writes such a payload
    when ``row`` repeats or precedes its neighbour."""
    cell_ids, cell_bounds, rows, vals = csr
    bounds = cell_bounds + (cell_bounds > i)
    return (
        cell_ids, bounds, np.insert(rows, i, np.int32(row)), np.insert(vals, i, value)
    )


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
        for got, want in zip(warm.index_csr(), engine.index_csr()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rejected_file_leaves_no_open_handle(self, scenario):
        """A payload whose zip directory does not parse is closed as it is
        rejected, not left for the garbage collector."""
        dataset, grid, config, key, tmp_path = scenario
        NMEngine(dataset, grid, config)  # builds + persists
        path = index_cache.cache_path(tmp_path, key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert _load(scenario) is None
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_truncated_real_payload_is_a_miss(self, scenario):
        dataset, grid, config, key, tmp_path = scenario
        reference = NMEngine(dataset, grid, config)  # builds + persists
        path = index_cache.cache_path(tmp_path, key)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert _load(scenario) is None


class TestPayloadValidation:
    def _save_bogus(self, tmp_path, key, cells, rows, vals):
        """Save one entry per ``(cell, row, value)``, each in its own run."""
        n = len(cells)
        index_cache.save_index(
            tmp_path,
            key,
            np.asarray(cells, dtype=np.int32),
            np.arange(n + 1, dtype=np.int64),
            np.asarray(rows, dtype=np.int32),
            np.asarray(vals, dtype=np.float64),
        )

    def test_rows_beyond_dataset_rejected(self, scenario):
        dataset, grid, config, key, tmp_path = scenario
        n_rows = dataset.total_snapshots()
        self._save_bogus(tmp_path, key, [0, 1], [0, n_rows + 5], [-1.0, -2.0])
        assert _load(scenario) is None
        # The bound comes from the caller: a larger dataset accepts it.
        assert (
            index_cache.load_index(
                tmp_path, key, n_rows=n_rows + 6, n_cells=grid.n_cells,
                floor=config.min_log_prob,
            )  # fmt: skip
            is not None
        )

    def test_negative_rows_rejected_even_unbounded(self, scenario):
        _, _, _, key, tmp_path = scenario
        self._save_bogus(tmp_path, key, [0, 1], [-3, 0], [-1.0, -2.0])
        assert (
            index_cache.load_index(
                tmp_path, key, n_rows=1 << 30, n_cells=1 << 30, floor=-np.inf
            )
            is None
        )

    def test_cells_beyond_grid_rejected(self, scenario):
        dataset, grid, config, key, tmp_path = scenario
        self._save_bogus(tmp_path, key, [grid.n_cells + 7], [0], [-1.0])
        assert _load(scenario) is None

    def test_non_finite_vals_rejected(self, scenario):
        _, _, _, key, tmp_path = scenario
        self._save_bogus(tmp_path, key, [0, 1], [0, 1], [np.nan, -1.0])
        assert _load(scenario) is None

    def test_engine_survives_poisoned_cache_file(self, scenario):
        # Regression: pre-validation, a payload with out-of-range rows
        # under the right key crashed NMEngine construction with an
        # IndexError deep inside index installation.
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
        # the entry twice in every NM of its cell.  A repeat need not
        # carry the same value.
        from repro.core.pattern import TrajectoryPattern
        from repro.testkit.datasets import seeded_dataset

        dataset = seeded_dataset(3, n_trajectories=20, n_ticks=30)
        grid = dataset.make_grid(0.1)
        config = EngineConfig(delta=0.1, cache_dir=str(tmp_path))
        clean = NMEngine(dataset, grid, config)  # builds + persists
        key = dataset_cache_key(dataset, grid, config)
        csr = clean.index_csr()
        i = len(csr[2]) // 2
        for value in (csr[3][i], csr[3][i] - 1.0):
            index_cache.save_index(tmp_path, key, *_with_entry(csr, i, csr[2][i], value))

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

    @pytest.mark.parametrize("where", ["above-zero", "below-floor"])
    def test_value_outside_floor_and_zero_is_corrupt_and_rebuilt(
        self, scenario, live_metrics, where
    ):
        # Regression: a payload value above log 1 (0.7, a probability stored
        # raw) or below the floor is in range, finite and sorted, and used
        # to load as a hit -- and the two backends score such a value
        # differently.
        dataset, grid, config, key, tmp_path = scenario
        clean = NMEngine(dataset, grid, config)  # builds + persists
        cell_ids, cell_bounds, rows, vals = clean.index_csr()
        bad = vals.copy()
        floor = config.min_log_prob
        bad[len(bad) // 2] = 0.7 if where == "above-zero" else floor - 5.0
        index_cache.save_index(tmp_path, key, cell_ids, cell_bounds, rows, bad)

        before = _corrupt_count()
        assert _load(scenario) is None
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert _corrupt_count() == before + 2
        for got, want in zip(engine.index_csr(), clean.index_csr()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert NMEngine(dataset, grid, config).index_cache_hit

    @staticmethod
    def _bad_payloads(csr, n_rows, n_cells, floor):
        """One payload per load rule, each written by no build.

        ``csr`` is a clean build's index with at least two cells and two
        entries in its first cell.
        """
        cell_ids, cell_bounds, rows, vals = csr
        good = dict(cell_ids=cell_ids, cell_bounds=cell_bounds, rows=rows, vals=vals)
        assert len(cell_ids) >= 2 and cell_bounds[1] >= 2
        assert cell_ids[-1] + 1 < n_cells

        def changed(name, i, value):
            out = good[name].copy()
            out[i] = value
            return dict(good, **{name: out})

        return {
            "missing-member": {k: v for k, v in good.items() if k != "vals"},
            "rows-not-1d": dict(good, rows=rows.reshape(1, -1)),
            "int64-rows": dict(good, rows=rows.astype(np.int64)),
            "float32-vals": dict(good, vals=vals.astype(np.float32)),
            "int64-cell-ids": dict(good, cell_ids=cell_ids.astype(np.int64)),
            "int32-bounds": dict(good, cell_bounds=cell_bounds.astype(np.int32)),
            "bounds-length": dict(good, cell_bounds=cell_bounds[:-1]),
            "rows-length": dict(good, rows=rows[:-1]),
            "bounds-not-from-zero": changed("cell_bounds", 0, 1),
            "bounds-not-to-end": changed("cell_bounds", -1, len(rows) - 1),
            "empty-run": dict(
                good,
                cell_ids=np.append(cell_ids, cell_ids[-1] + 1),
                cell_bounds=np.append(cell_bounds, cell_bounds[-1]),
            ),
            "cell-ids-not-increasing": dict(good, cell_ids=cell_ids[::-1].copy()),
            "negative-cell": changed("cell_ids", 0, -1),
            "cell-beyond-grid": changed("cell_ids", -1, n_cells),
            "negative-row": changed("rows", 0, -1),
            "row-beyond-dataset": changed("rows", -1, n_rows),
            "repeated-row": dict(zip(good, _with_entry(csr, 1, rows[0], vals[0]))),
            "reordered-rows": changed("rows", [0, 1], rows[[1, 0]]),
            "nan-value": changed("vals", -1, np.nan),
            "infinite-value": changed("vals", -1, -np.inf),
            "value-above-zero": changed("vals", -1, 0.5),
            "value-below-floor": changed("vals", -1, floor - 1.0),
            "format-1-triples": dict(
                cells=np.repeat(cell_ids.astype(np.int64), np.diff(cell_bounds)),
                rows=rows.astype(np.int64),
                vals=vals,
            ),
        }

    #: Each load rule's payload and the reason ``load_index`` logs for it.
    RULES = {
        "missing-member": "vals is not a file",
        "rows-not-1d": "rows is a 2-D",
        "int64-rows": "rows is a 1-D int64",
        "float32-vals": "vals is a 1-D float32",
        "int64-cell-ids": "cell_ids is a 1-D int64",
        "int32-bounds": "cell_bounds is a 1-D int32",
        "bounds-length": "lengths disagree",
        "rows-length": "lengths disagree",
        "bounds-not-from-zero": "do not span",
        "bounds-not-to-end": "do not span",
        "empty-run": "bounds not strictly increasing",
        "cell-ids-not-increasing": "cell ids not strictly increasing",
        "negative-cell": "cell ids out of range",
        "cell-beyond-grid": "cell ids out of range",
        "negative-row": "row indices out of range",
        "row-beyond-dataset": "row indices out of range",
        "repeated-row": "rows not strictly increasing within a cell",
        "reordered-rows": "rows not strictly increasing within a cell",
        "nan-value": "non-finite",
        "infinite-value": "non-finite",
        "value-above-zero": "outside [floor, 0]",
        "value-below-floor": "outside [floor, 0]",
        "format-1-triples": "cell_ids is not a file",
    }

    @pytest.mark.parametrize("rule", list(RULES))
    def test_payload_no_build_writes_is_corrupt_and_rebuilt(
        self, scenario, live_metrics, caplog, rule
    ):
        """Every payload a build could not have written -- a format-1
        ``cells``/``rows``/``vals`` file under a format-2 name included --
        loads as ``None`` for its own reason, counts
        ``index.cache.corrupt``, and an engine over it rebuilds the clean
        index and overwrites the file."""
        dataset, grid, config, key, tmp_path = scenario
        clean = NMEngine(dataset, grid, config)  # builds + persists
        payloads = self._bad_payloads(
            clean.index_csr(), dataset.total_snapshots(), grid.n_cells,
            config.min_log_prob,
        )  # fmt: skip
        assert sorted(payloads) == sorted(self.RULES)
        np.savez(index_cache.cache_path(tmp_path, key), **payloads[rule])

        before = _corrupt_count()
        with caplog.at_level(logging.WARNING, logger="repro.index_cache"):
            assert _load(scenario) is None
        (record,) = caplog.records
        assert self.RULES[rule] in record.reason
        assert _corrupt_count() == before + 1
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert _corrupt_count() == before + 2
        for got, want in zip(engine.index_csr(), clean.index_csr()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
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
                TrajectoryDataset(list(lazy)), grid, config, csr=engine.index_csr()
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
            cache_dir, boot_key, n_rows=dataset.total_snapshots(),
            n_cells=grid.n_cells, floor=config.min_log_prob,
        )  # fmt: skip
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
        index_cache.save_index(tmp_path, key, *_one_entry(0, -1.0))
        assert seen["tmp"].startswith(str(tmp_path))

    def test_crash_before_rename_leaves_no_file(self, scenario):
        _, _, _, key, tmp_path = scenario
        faults.arm("index_cache.save")  # raises between write and rename
        with pytest.raises(faults.FaultInjected):
            index_cache.save_index(tmp_path, key, *_one_entry(0, -1.0))
        assert not index_cache.cache_path(tmp_path, key).exists()
        assert list(tmp_path.glob("*.tmp")) == []  # temp cleaned up too
        assert _load(scenario) is None  # plain miss

    def test_torn_write_surviving_rename_is_still_a_miss(self, scenario):
        # Even if a torn payload somehow lands under the final name (the
        # callback truncates the temp file before the rename), readers
        # treat it as a miss and the next build overwrites it.
        dataset, grid, config, key, tmp_path = scenario

        def tear(point, ctx):
            with open(ctx["tmp"], "r+b") as fh:
                fh.truncate(20)

        faults.arm("index_cache.save", "callback", callback=tear)
        index_cache.save_index(tmp_path, key, *_one_entry(0, -1.0))
        assert index_cache.cache_path(tmp_path, key).exists()
        assert _load(scenario) is None
        faults.disarm()
        engine = NMEngine(dataset, grid, config)
        assert not engine.index_cache_hit
        assert NMEngine(dataset, grid, config).index_cache_hit

    def test_reader_racing_a_rewrite_sees_old_or_new_never_torn(self, scenario):
        # A load issued while save_index is mid-write (temp written, not
        # yet renamed) must see the *previous* complete file.
        _, _, _, key, tmp_path = scenario
        index_cache.save_index(tmp_path, key, *_one_entry(1, -1.5))
        mid_write: list = []
        faults.arm(
            "index_cache.save",
            "callback",
            callback=lambda point, ctx: mid_write.append(
                _load(scenario)
            ),
        )
        index_cache.save_index(tmp_path, key, *_one_entry(2, -2.5))
        (racing,) = mid_write
        assert racing is not None
        np.testing.assert_array_equal(racing[0], [1])  # the old generation
        after = _load(scenario)
        np.testing.assert_array_equal(after[0], [2])  # the new one

    def test_reader_before_first_write_is_a_clean_miss(self, scenario):
        _, _, _, key, tmp_path = scenario
        mid_write: list = []
        faults.arm(
            "index_cache.save",
            "callback",
            callback=lambda point, ctx: mid_write.append(
                _load(scenario)
            ),
        )
        index_cache.save_index(tmp_path, key, *_one_entry(0, -1.0))
        assert mid_write == [None]
