"""Incremental maintenance of the sparse NM index (append, evict).

The engine keeps its index CSR by cell (:meth:`NMEngine.index_csr`:
active cells, each cell's entry bounds, ``int32`` rows, ``float64``
values, rows ascending within a cell).  A full rebuild is a probability
enumeration over every snapshot plus a sort by cell.  For a live report
stream the delta per batch is tiny, so this module maintains the CSR
arrays directly, without either cost:

* **Append** -- enumerate entries for the *new* trajectories only
  (:func:`~repro.core.engine.build_csr`, the code a cold engine build
  runs, with rows offset past the existing dataset), then splice them in
  per cell (:func:`append_csr`).  Every appended row follows every
  existing row, so each cell's delta run goes right after its base run:
  one boolean mask of delta positions and two masked assignments place
  every entry, with no sort.
* **Evict** -- sliding-window expiry drops the *oldest* trajectories.
  Because rows are assigned in dataset order, the expired snapshots are
  exactly a prefix of the global row space, hence a prefix of every
  cell's run: a per-cell prefix trim plus a renumber (:func:`evict_csr`).

Both operations are bit-identical to a from-scratch build over the
surviving trajectories (the oracle's ``incremental`` path and a hypothesis
property test pin this at 0 ULP): per-row entry computation is independent
of chunking and of neighbouring rows, and the splice and trim only move
entries whose (cell, row) order is already the final one.

No engine changes in a fold: :class:`IncrementalIndexer` replaces its
engine with one new :class:`NMEngine` over the folded dataset and CSR,
an append past the window and its eviction included.  Folds allocate
fresh arrays and never write into the ones they read, so an earlier
generation's engine (one a miner is running on, or a published serving
snapshot's) stays exactly as it was built.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.core.engine import NMEngine, build_csr
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

__all__ = ["IncrementalIndexer", "append_csr", "evict_csr"]

#: ``(cell_ids, cell_bounds, rows, vals)``, as :meth:`NMEngine.index_csr`.
_CSR = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _delta_csr(
    trajectories: Sequence[UncertainTrajectory], engine: NMEngine, row_offset: int
) -> _CSR:
    """CSR index of ``trajectories`` alone, rows offset by ``row_offset``.

    :func:`~repro.core.engine.build_csr` over just the delta computes it:
    per-row entry collection (cell neighbourhood, elementwise ``Prob``,
    per-snapshot cap) never looks across rows, so its entries are
    bit-identical to the rows a from-scratch build of the combined dataset
    would produce.  No engine is built and the on-disk index cache is
    neither read nor written.
    """
    (cell_ids, cell_bounds, rows, vals), _ = build_csr(
        TrajectoryDataset(trajectories),
        engine.grid,
        engine.config,
        engine.kernel_backend,
    )
    rows += np.int32(row_offset)  # fresh arrays: offset in place
    return cell_ids, cell_bounds, rows, vals


def append_csr(base: _CSR, delta: _CSR, n_base_rows: int) -> _CSR:
    """Splice ``delta``'s entries into ``base``'s, cell by cell.

    ``base`` covers rows ``[0, n_base_rows)``; every ``delta`` row must
    follow them.  Each cell's output run is then its base run followed by
    its delta run, already in (cell, row) order.  The runs are placed with
    one boolean mask of delta positions and two masked assignments per
    array, so the only temporary beyond the output is 1 byte per entry.
    """
    base_ids, base_bounds, base_rows, base_vals = base
    delta_ids, delta_bounds, delta_rows, delta_vals = delta
    if not len(delta_rows):
        return base
    if int(delta_rows.min()) < n_base_rows:
        raise ValueError(
            f"delta rows must follow the base's {n_base_rows} rows"
        )
    if not len(base_rows):
        return delta
    # Not np.union1d: its first call imports numpy.ma inside the fold.
    cell_ids = np.sort(np.concatenate([base_ids, delta_ids]))
    cell_ids = cell_ids[np.append(True, cell_ids[1:] != cell_ids[:-1])]
    runs = np.zeros((len(cell_ids), 2), dtype=np.int64)
    runs[np.searchsorted(cell_ids, base_ids), 0] = np.diff(base_bounds)
    runs[np.searchsorted(cell_ids, delta_ids), 1] = np.diff(delta_bounds)
    cell_bounds = np.zeros(len(cell_ids) + 1, dtype=np.int64)
    np.cumsum(runs.sum(axis=1), out=cell_bounds[1:])
    n_out = int(cell_bounds[-1])
    is_delta = np.repeat(
        np.tile(np.array([False, True]), len(cell_ids)), runs.reshape(-1)
    )
    rows = np.empty(n_out, dtype=np.int32)
    vals = np.empty(n_out, dtype=np.float64)
    rows[is_delta] = delta_rows
    vals[is_delta] = delta_vals
    np.logical_not(is_delta, out=is_delta)
    rows[is_delta] = base_rows
    vals[is_delta] = base_vals
    return cell_ids, cell_bounds, rows, vals


def evict_csr(csr: _CSR, n_dropped: int) -> _CSR:
    """Expire the first ``n_dropped`` global rows: a per-cell prefix trim.

    Rows ascend within a cell, so each cell loses a prefix of its run;
    cells left empty drop out, and the survivors are renumbered by a
    constant, so the result is still in (cell, row) order.
    """
    cell_ids, cell_bounds, rows, vals = csr
    if n_dropped <= 0 or not len(rows):
        return csr
    keep = rows >= n_dropped
    kept = np.add.reduceat(keep, cell_bounds[:-1], dtype=np.int64)
    live = kept > 0
    out_bounds = np.zeros(int(live.sum()) + 1, dtype=np.int64)
    np.cumsum(kept[live], out=out_bounds[1:])
    out_rows = rows[keep]
    out_rows -= np.int32(n_dropped)
    return cell_ids[live], out_bounds, out_rows, vals[keep]


class IncrementalIndexer:
    """Folds appends and evictions into a new :class:`NMEngine` each time.

    ``engine`` is the current generation.  Each fold works on its CSR
    arrays (:func:`append_csr`, :func:`evict_csr`) and sets ``engine`` to
    one new engine over the folded dataset that adopts the folded CSR; the
    previous engine is left as it was, so whoever holds it keeps a frozen
    generation.

    ``window`` bounds the number of resident trajectories: an append that
    takes the dataset past the window evicts the oldest trajectories
    beyond it (FIFO, matching report-stream arrival order) in the same
    fold.  ``None`` keeps everything.
    """

    def __init__(self, engine: NMEngine, *, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be a positive trajectory count")
        self.engine = engine
        self.window = window
        self.appends = 0
        self.evictions = 0
        self.last_fold_s = 0.0

    def append(
        self, trajectories: Iterable[UncertainTrajectory]
    ) -> dict[str, int | float]:
        """Fold new trajectories into the live index; returns fold stats.

        ``unindexed`` counts the appended trajectories that got no index
        entry: every snapshot lies off the engine's grid (or below its
        probability floor), so no pattern can ever match them.
        """
        new = list(trajectories)
        if not new:
            return self._stats(appended=0, evicted=0)
        n_resident = len(self.engine.dataset) + len(new)
        evicted = 0 if self.window is None else max(0, n_resident - self.window)
        unindexed = self._fold(new, evicted)
        return self._stats(appended=len(new), evicted=evicted, unindexed=unindexed)

    def evict(self, n_trajectories: int) -> dict[str, int | float]:
        """Expire the ``n_trajectories`` oldest trajectories from the index."""
        if n_trajectories <= 0:
            return self._stats(appended=0, evicted=0)
        n_resident = len(self.engine.dataset)
        if n_trajectories >= n_resident:
            raise ValueError(
                f"cannot evict {n_trajectories} of {n_resident} "
                "trajectories: the engine requires a non-empty dataset"
            )
        self._fold([], n_trajectories)
        return self._stats(appended=0, evicted=n_trajectories)

    def _fold(self, new: list[UncertainTrajectory], n_evict: int) -> int:
        """Append ``new``, then expire the ``n_evict`` oldest: one new engine.

        Returns how many of ``new`` have no row in the delta index.
        """
        started = time.perf_counter()
        engine = self.engine
        trajectories = list(engine.dataset) + new
        n_rows = engine.dataset.total_snapshots()
        n_dropped = sum(len(t) for t in trajectories[:n_evict])
        csr = engine.index_csr()
        unindexed = 0
        if new:
            delta = _delta_csr(new, engine, n_rows)
            ends = np.cumsum([len(t) for t in new]) + n_rows
            owners = np.searchsorted(ends, delta[2], side="right")
            indexed = np.count_nonzero(np.bincount(owners, minlength=len(new)))
            unindexed = len(new) - int(indexed)
            csr = append_csr(csr, delta, n_rows)
        # Rebound, so the spliced arrays are freed before the engine
        # segments the trimmed ones.
        csr = evict_csr(csr, n_dropped)
        self.engine = NMEngine(
            TrajectoryDataset(
                trajectories[n_evict:], metadata=engine.dataset.metadata
            ),
            engine.grid,
            engine.config,
            csr=csr,
        )
        if new:
            self.appends += 1
        if n_evict:
            self.evictions += 1
        self.last_fold_s = time.perf_counter() - started
        return unindexed

    def _stats(
        self, *, appended: int, evicted: int, unindexed: int = 0
    ) -> dict[str, int | float]:
        engine = self.engine
        return {
            "appended": appended,
            "evicted": evicted,
            "unindexed": unindexed,
            "n_trajectories": len(engine.dataset),
            "total_snapshots": engine.dataset.total_snapshots(),
            "n_index_entries": engine.n_index_entries,
            "appends": self.appends,
            "evictions": self.evictions,
            "fold_s": self.last_fold_s,
        }
