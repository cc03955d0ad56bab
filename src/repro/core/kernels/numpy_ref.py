"""Reference numpy implementation of the kernel backend surface.

This is the exact vectorised code the engine ran before the backend split,
moved here body-for-body: the stable-sort + ``reduceat`` deviation
reduction behind ``nm_batch``/``match_batch``, the stacked window-score
scatter, the per-segment maxima sweep, the chunked ``prob_within``
evaluation (delegated to :mod:`repro.uncertainty.gaussian`), the wildcard
gap DP, and the index build's entry sort and segmentation.  It remains
the differential oracle's ground truth: the compiled backend is tested
*against* this one, never the other way around.

Numerical contract (what the compiled backends must reproduce):

* Deviations are accumulated per ``(pattern, window)`` in gather order --
  pattern-major, then pattern offset ``j`` ascending, then index entries
  in (cell, row) order.  ``np.argsort(kind="stable")`` + ``np.add.reduceat``
  sum duplicates sequentially in exactly that order, so a compiled kernel
  that accumulates in the same order is bit-identical, not merely close.
* Maxima (``np.maximum.reduceat``) are order-independent.
* All kernel arithmetic runs in the backend dtype (float64 or float32);
  scalars are cast to the value dtype before entering the loops.
"""

from __future__ import annotations

import numpy as np

from repro.uncertainty import gaussian
from repro.uncertainty.gaussian import ProbModel

__all__ = ["NumpyKernels"]


def _join(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate ``chunks`` and empty the list, freeing each chunk."""
    joined = np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)
    chunks.clear()
    return joined


def _offset_entries(cells_j, j, n_windows, start, count, rows, vals, floor):
    """Index entries touched at pattern offset ``j`` across a batch.

    ``cells_j[i]`` is pattern ``i``'s cell at position ``j``.  Returns
    ``(pattern_row, window_start, deviation)`` triples -- one per index
    entry of those cells whose shifted row lands on an in-range window
    start -- where ``deviation = value - floor > 0``.  Wildcards (and
    inactive cells) contribute nothing.  ``None`` when the offset touches
    no entries at all.
    """
    safe = np.where(cells_j >= 0, cells_j, 0)
    counts_j = np.where(cells_j >= 0, count[safe], 0)
    total = int(counts_j.sum())
    if total == 0:
        return None
    pat = np.repeat(np.arange(len(cells_j), dtype=np.int64), counts_j)
    firsts = np.cumsum(counts_j) - counts_j
    rank = np.arange(total, dtype=np.int64) - np.repeat(firsts, counts_j)
    flat_pos = np.repeat(start[safe], counts_j) + rank
    wrow = rows[flat_pos] - j
    keep = (wrow >= 0) & (wrow < n_windows)
    return pat[keep], wrow[keep], vals[flat_pos[keep]] - vals.dtype.type(floor)


class NumpyKernels:
    """The reference backend; one instance per value dtype."""

    compiled = False
    provider = "numpy"
    name = "numpy"
    #: Prob-kernel identity for the index-cache key.  "ref" marks the
    #: scipy ``erf`` path the cache format has always used, so default
    #: configurations keep their existing cache keys.
    prob_tag = "ref"

    def __init__(self, dtype: np.dtype | str = np.float64) -> None:
        self.dtype = np.dtype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumpyKernels(dtype={self.dtype})"

    # -- batched deviation maxima -----------------------------------------

    def batch_devmax(
        self,
        cells_matrix: np.ndarray,
        start: np.ndarray,
        count: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
        floor: float,
        valid: np.ndarray,
        n_windows: int,
        win_traj: np.ndarray,
        arena,
        out: np.ndarray,
    ) -> None:
        """Best per-``(pattern, trajectory)`` summed window deviation.

        ``out`` is ``(n_patterns, n_trajectories)`` and must be zero-filled
        on entry; untouched pairs stay zero (the all-floor baseline).  See
        :meth:`NMEngine._batch_deviation_maxima` for the calling context.
        """
        n_patterns, m = cells_matrix.shape
        flat_cells = cells_matrix.ravel()
        safe = np.where(flat_cells >= 0, flat_cells, 0)
        counts = np.where(flat_cells >= 0, count[safe], 0)
        total = int(counts.sum())
        if total == 0:
            return
        # One gather covering every (pattern, offset) slot of the group.
        owner = np.repeat(np.arange(n_patterns * m, dtype=np.int64), counts)
        firsts = np.cumsum(counts) - counts
        rank = np.arange(total, dtype=np.int64) - np.repeat(firsts, counts)
        flat_pos = np.repeat(start[safe], counts) + rank
        wrow = rows[flat_pos] - owner % m
        keep = (wrow >= 0) & (wrow < n_windows)
        wrow, owner, flat_pos = wrow[keep], owner[keep], flat_pos[keep]
        keep = valid[wrow]
        wrow, owner, flat_pos = wrow[keep], owner[keep], flat_pos[keep]
        if not len(wrow):
            return
        dev = vals[flat_pos] - vals.dtype.type(floor)
        key = (owner // m) * np.int64(n_windows) + wrow
        order = np.argsort(key, kind="stable")
        key, dev = key[order], dev[order]
        window_starts = np.concatenate([[0], np.nonzero(np.diff(key))[0] + 1])
        window_sums = np.add.reduceat(dev, window_starts)
        u_key = key[window_starts]
        u_pat = u_key // n_windows
        u_traj = win_traj[u_key % n_windows]
        # u_key is sorted, so (u_pat, u_traj) runs are contiguous.
        boundary = (
            np.nonzero((np.diff(u_pat) != 0) | (np.diff(u_traj) != 0))[0] + 1
        )
        seg = np.concatenate([[0], boundary])
        out[u_pat[seg], u_traj[seg]] = np.maximum.reduceat(window_sums, seg)

    # -- stacked window scores --------------------------------------------

    def stacked_scores(
        self,
        cells_matrix: np.ndarray,
        n_spec: np.ndarray,
        start: np.ndarray,
        count: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
        floor: float,
        n_windows: int,
        out: np.ndarray,
    ) -> None:
        """Unmasked window log-sums of equal-length patterns, into ``out``.

        Row ``i`` starts at pattern ``i``'s all-floor baseline and the
        sparse entry deviations are scattered on top, one shifted gather
        per position.
        """
        m = cells_matrix.shape[1]
        # Baselines are computed in float64 and cast on assignment, so the
        # float32 mode rounds the product once (matching the compiled path).
        out[:] = (floor * n_spec.astype(np.float64))[:, None]
        flat = out.ravel()
        for j in range(m):
            triples = _offset_entries(
                cells_matrix[:, j], j, n_windows, start, count, rows, vals, floor
            )
            if triples is None:
                continue
            pat, wrow, dev = triples
            # One offset yields at most one entry per (pattern, window), so
            # the fancy-indexed add has no duplicate targets.
            flat[pat * n_windows + wrow] += dev

    # -- segment maxima ----------------------------------------------------

    def segment_maxima(self, vals: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
        """Max stored entry of every (cell, trajectory) segment."""
        if not seg_starts.size:
            return np.empty(0, dtype=vals.dtype)
        return np.maximum.reduceat(vals, seg_starts)

    # -- Prob(l, sigma, p, delta) ------------------------------------------

    def prob_within(
        self,
        mean: np.ndarray,
        sigma: np.ndarray,
        center: np.ndarray,
        delta: float,
        model: ProbModel = ProbModel.BOX,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The scipy-backed ``Prob`` evaluation (always float64)."""
        return gaussian.prob_within(mean, sigma, center, delta, model=model, out=out)

    # -- index sort and segmentation -----------------------------------------

    def sort_entries(self, cells_acc, rows_acc, vals_acc, n_cells):
        """Per-chunk entry lists joined into (cell, row) order.

        The lists are emptied as they are joined.  Entries arrive in
        ascending row order, so a stable sort by cell alone yields the
        (cell, row) order of a lexsort, and permuting the three columns one
        at a time keeps one spare copy alive, not three.
        """
        cells = _join(cells_acc, np.int64)
        rows = _join(rows_acc, np.int64)
        vals = _join(vals_acc, np.float64)
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        rows = rows[order]
        vals = vals[order]
        return cells, rows, vals

    def index_segments(self, cells, rows, row_traj):
        """Segment bounds of a (cell, row)-sorted index.

        Returns ``(cell_first, seg_starts, seg_traj, cell_seg_starts)``:
        the entries where the cell changes, the entries where the (cell,
        trajectory) pair changes, each segment's trajectory, and the
        segment each cell starts with.
        """
        if not len(cells):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy(), empty.copy()
        cell_change = np.diff(cells) != 0
        cell_first = np.concatenate([[0], np.nonzero(cell_change)[0] + 1])
        entry_traj = row_traj[rows]
        change = np.nonzero(cell_change | (np.diff(entry_traj) != 0))[0] + 1
        seg_starts = np.concatenate([[0], change])
        seg_traj = entry_traj[seg_starts]
        seg_cells = cells[seg_starts]
        cell_seg_starts = np.concatenate([[0], np.nonzero(np.diff(seg_cells))[0] + 1])
        return cell_first, seg_starts, seg_traj, cell_seg_starts

    # -- wildcard gap DP ---------------------------------------------------

    def gap_dp(
        self,
        seg_scores: list,
        seg_lens,
        gap_mins,
        gap_maxs,
        length: int,
        arena,
    ) -> float:
        """Best summed log-prob over admissible gap alignments (or ``-inf``).

        ``best[t]`` is the maximum summed log-probability of placing the
        segment prefix such that the current segment ends at snapshot ``t``
        (inclusive); transitions advance by the next segment's length plus
        an admissible gap.  The caller handles the too-short-trajectory
        floor and the ``n_specified`` normalisation.
        """
        n0 = seg_lens[0]
        best = np.full(length, -np.inf)
        best[n0 - 1 :] = seg_scores[0]
        for j in range(1, len(seg_lens)):
            n = seg_lens[j]
            nxt = np.full(length, -np.inf)
            # Segment j occupying [s, s + n - 1] requires the previous
            # segment to end at s - 1 - g for g in [min, max].
            for t in range(n - 1, length):
                s = t - n + 1
                lo = s - 1 - gap_maxs[j - 1]
                hi = s - 1 - gap_mins[j - 1]
                if hi < 0:
                    continue
                lo = max(lo, 0)
                prev_best = best[lo : hi + 1].max() if hi >= lo else -np.inf
                if prev_best == -np.inf:
                    continue
                nxt[t] = prev_best + seg_scores[j][s]
            best = nxt
        return float(best.max())
