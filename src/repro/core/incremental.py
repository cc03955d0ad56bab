"""Incremental maintenance of the sparse NM index (append, evict, persist).

The engine keeps its index CSR by cell; folds work on the three arrays
sorted by ``(cell, row)`` that :meth:`NMEngine.index_arrays` builds on
demand from it.  A full rebuild is a probability enumeration over every
snapshot plus a sort by cell.  For a live report stream the delta per
batch is tiny, so this module maintains the index without either cost:

* **Append** -- enumerate entries for the *new* trajectories only (a
  throwaway engine over the delta, with rows offset past the existing
  dataset), then splice them into the big sorted arrays with a single
  ``np.searchsorted`` merge over composite ``cell * stride + row`` keys.
  The merged arrays are presorted, so the engine's re-install skips the
  lexsort entirely.
* **Evict** -- sliding-window expiry drops the *oldest* trajectories.
  Because rows are assigned in dataset order, the expired snapshots are
  exactly a prefix of the global row space: the inverse of the merge is a
  mask-and-renumber (``rows >= cutoff`` keep, then ``rows - cutoff``),
  which again yields presorted arrays.

Both operations are bit-identical to a from-scratch build over the
surviving trajectories (the oracle's ``incremental`` path and a hypothesis
property test pin this at 0 ULP): per-row entry computation is independent
of chunking and of neighbouring rows, and the merge/evict are
permutation-free on already-sorted keys.

Every mutation goes through :meth:`NMEngine.replace_index`, which rewrites
the dataset-shape state together with the flat arrays under a single
``index_epoch`` bump -- epoch-pinned consumers (a miner mid-run) raise
:class:`~repro.core.engine.StaleIndexError` instead of scoring a mix of
index generations.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core import index_cache, kernels
from repro.core.engine import NMEngine
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

__all__ = [
    "IncrementalIndexer",
    "collect_delta_entries",
    "drop_leading_rows",
    "merge_sorted_entries",
]

_Entries = tuple[np.ndarray, np.ndarray, np.ndarray]


def collect_delta_entries(
    trajectories: Sequence[UncertainTrajectory],
    grid,
    config,
    row_offset: int,
) -> _Entries:
    """Index entries of ``trajectories`` alone, rows offset by ``row_offset``.

    A throwaway engine over just the delta computes them: per-row entry
    collection (cell neighbourhood, elementwise ``Prob``, per-snapshot cap)
    never looks across rows, so the triples are bit-identical to the rows a
    from-scratch build of the combined dataset would produce.  ``cache_dir``
    is stripped so the mini-build neither reads nor pollutes the on-disk
    index cache with a delta-sized payload.
    """
    delta = TrajectoryDataset(list(trajectories))
    mini = NMEngine(delta, grid, replace(config, cache_dir=None))
    cells, rows, vals = mini.index_arrays()
    return cells, rows + int(row_offset), vals


def merge_sorted_entries(
    base: _Entries, delta: _Entries, n_rows: int
) -> _Entries:
    """Merge two (cell, row)-sorted entry triples into one sorted triple.

    ``n_rows`` must exceed every row id on either side; it is the stride of
    the composite ``cell * n_rows + row`` sort key.  Keys are globally
    unique -- each (cell, row) pair occurs at most once per side and the
    incremental caller only feeds deltas whose rows are disjoint from the
    base -- so one ``searchsorted`` places every delta entry and a scatter
    builds the merged arrays without comparisons or a lexsort.  Falls back
    to a concatenate-and-lexsort only if the composite key would overflow
    int64 (astronomical grids).
    """
    base_cells, base_rows, base_vals = base
    delta_cells, delta_rows, delta_vals = delta
    if not len(delta_cells):
        return base
    if not len(base_cells):
        return delta
    stride = np.int64(n_rows)
    max_cell = max(int(base_cells[-1]), int(delta_cells[-1]))
    if (max_cell + 1) * int(stride) >= np.iinfo(np.int64).max:
        cells = np.concatenate([base_cells, delta_cells])
        rows = np.concatenate([base_rows, delta_rows])
        vals = np.concatenate([base_vals, delta_vals])
        order = np.lexsort((rows, cells))
        return cells[order], rows[order], vals[order]
    base_keys = base_cells * stride + base_rows
    delta_keys = delta_cells * stride + delta_rows
    positions = np.searchsorted(base_keys, delta_keys, side="left")
    n_out = len(base_cells) + len(delta_cells)
    delta_idx = positions + np.arange(len(delta_cells), dtype=np.int64)
    base_mask = np.ones(n_out, dtype=bool)
    base_mask[delta_idx] = False
    out_cells = np.empty(n_out, dtype=np.int64)
    out_rows = np.empty(n_out, dtype=np.int64)
    out_vals = np.empty(n_out, dtype=np.float64)
    out_cells[delta_idx] = delta_cells
    out_cells[base_mask] = base_cells
    out_rows[delta_idx] = delta_rows
    out_rows[base_mask] = base_rows
    out_vals[delta_idx] = delta_vals
    out_vals[base_mask] = base_vals
    return out_cells, out_rows, out_vals


def drop_leading_rows(entries: _Entries, n_dropped: int) -> _Entries:
    """The merge run in reverse: expire the first ``n_dropped`` global rows.

    Filtering preserves (cell, row) order and the renumbering subtracts a
    constant, so the result is still presorted -- the engine re-install
    skips the lexsort exactly as it does for an append.
    """
    cells, rows, vals = entries
    if n_dropped <= 0:
        return entries
    keep = rows >= n_dropped
    return cells[keep], rows[keep] - np.int64(n_dropped), vals[keep]


class IncrementalIndexer:
    """Owns in-place append/evict maintenance of one :class:`NMEngine`.

    ``window`` bounds the number of resident trajectories: after every
    append, the oldest trajectories beyond the window are evicted (FIFO,
    matching report-stream arrival order).  ``None`` keeps everything.

    The engine's published snapshots stay safe to share: every fold
    allocates *new* flat arrays and never writes into the ones a previous
    ``index_arrays()`` caller may still hold.
    """

    def __init__(self, engine: NMEngine, *, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be a positive trajectory count")
        self.engine = engine
        self.window = window
        self.appends = 0
        self.evictions = 0
        self.rows_appended = 0
        self.rows_evicted = 0
        self.last_fold_s = 0.0

    def append(
        self, trajectories: Iterable[UncertainTrajectory]
    ) -> dict[str, int | float]:
        """Fold new trajectories into the live index; returns fold stats."""
        new = list(trajectories)
        if not new:
            return self._stats(appended=0, evicted=0)
        started = time.perf_counter()
        engine = self.engine
        old_dataset = engine.dataset
        row_offset = old_dataset.total_snapshots()
        delta = collect_delta_entries(new, engine.grid, engine.config, row_offset)
        merged_dataset = TrajectoryDataset(
            list(old_dataset) + new, metadata=old_dataset.metadata
        )
        merged = merge_sorted_entries(
            engine.index_arrays(), delta, merged_dataset.total_snapshots()
        )
        engine.replace_index(merged_dataset, *merged)
        self.appends += 1
        self.rows_appended += merged_dataset.total_snapshots() - row_offset
        evicted = 0
        if self.window is not None and len(merged_dataset) > self.window:
            evicted = len(merged_dataset) - self.window
            self.evict(evicted)
        self.last_fold_s = time.perf_counter() - started
        return self._stats(appended=len(new), evicted=evicted)

    def evict(self, n_trajectories: int) -> dict[str, int | float]:
        """Expire the ``n_trajectories`` oldest trajectories from the index."""
        if n_trajectories <= 0:
            return self._stats(appended=0, evicted=0)
        engine = self.engine
        old_dataset = engine.dataset
        if n_trajectories >= len(old_dataset):
            raise ValueError(
                f"cannot evict {n_trajectories} of {len(old_dataset)} "
                "trajectories: the engine requires a non-empty dataset"
            )
        n_rows = int(old_dataset.lengths()[:n_trajectories].sum())
        survived = drop_leading_rows(engine.index_arrays(), n_rows)
        surviving_dataset = TrajectoryDataset(
            list(old_dataset)[n_trajectories:], metadata=old_dataset.metadata
        )
        engine.replace_index(surviving_dataset, *survived)
        self.evictions += 1
        self.rows_evicted += n_rows
        return self._stats(appended=0, evicted=n_trajectories)

    def persist(self, cache_dir: str | Path | None = None) -> Path | None:
        """Write the live index to the on-disk cache under a *fresh* key.

        The content fingerprint is recomputed over the engine's *current*
        dataset here -- after in-place appends the dataset object is a new
        eager :class:`TrajectoryDataset`, so no stale ``content_fingerprint``
        attribute (from a store-backed snapshot the stream started from) can
        leak into the key and poison the entry the original dataset owns.
        """
        engine = self.engine
        cache_dir = cache_dir if cache_dir is not None else engine.config.cache_dir
        if cache_dir is None:
            return None
        key = index_cache.span_cache_key(
            index_cache.dataset_fingerprint(engine.dataset),
            0,
            len(engine.dataset),
            engine.grid,
            engine.config,
            kernel_tag=kernels.prob_kernel_tag(engine.config),
        )
        return index_cache.save_index(cache_dir, key, *engine.index_arrays())

    def _stats(self, *, appended: int, evicted: int) -> dict[str, int | float]:
        engine = self.engine
        return {
            "appended": appended,
            "evicted": evicted,
            "n_trajectories": len(engine.dataset),
            "total_snapshots": engine.dataset.total_snapshots(),
            "n_index_entries": engine.n_index_entries,
            "index_epoch": engine.index_epoch,
            "appends": self.appends,
            "evictions": self.evictions,
            "fold_s": self.last_fold_s,
        }
