"""Reference numpy implementation of the kernel backend surface.

This is the vectorised code the engine ran before the backend split: the
stable-sort deviation reduction behind ``nm_batch``/``match_batch`` (each
window summed in gather order, see below), the stacked window-score
scatter, the per-segment maxima sweep, the chunked ``prob_within``
evaluation (delegated to :mod:`repro.uncertainty.gaussian`), the wildcard
gap DP, and the index build's entry sort into a CSR index by cell
(``int32`` rows) and its segmentation.  It remains
the differential oracle's ground truth: the compiled backend is tested
*against* this one, never the other way around.

Numerical contract (what the compiled backends must reproduce):

* Deviations are accumulated per ``(pattern, window)`` sequentially in
  gather order -- pattern-major, then pattern offset ``j`` ascending, then
  index entries in (cell, row) order -- starting from zero: ``((d0 + d1) +
  d2) ...``.  ``np.argsort(kind="stable")`` puts each window's deviations
  in that order and ``np.add.at`` adds them one by one, so a compiled
  kernel that accumulates in the same order is bit-identical, not merely
  close.  (``np.add.reduceat`` would not do: it adds a segment's first
  element to numpy's reduction of the rest, ``d0 + (d1 + d2 ...)``.)
* Maxima (``np.maximum.reduceat``) are order-independent.
* All kernel arithmetic runs in the backend dtype (float64 or float32);
  scalars are cast to the value dtype before entering the loops.
"""

from __future__ import annotations

import numpy as np

from repro.uncertainty import gaussian
from repro.uncertainty.gaussian import ProbModel

__all__ = ["NumpyKernels"]

#: Index entries one :meth:`NumpyKernels.batch_devmax` pass gathers at most
#: (a pattern touching more is gathered alone).  Each gathered entry holds
#: about eight 8-byte scratch values, so a pass stays near 128 MiB.
_GATHER_BUDGET = 1 << 21


def _join(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate ``chunks`` as ``dtype`` and empty the list, freeing each chunk."""
    joined = np.concatenate(chunks, dtype=dtype) if chunks else np.empty(0, dtype=dtype)
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


def _devmax_rows(m, safe, counts, start, rows, vals, floor, valid, n_windows, win_traj, out):
    """``batch_devmax`` over the pattern rows of one gather.

    ``safe`` and ``counts`` are the rows' flattened ``(pattern, offset)``
    cells (wildcards mapped to 0) and their entry counts (0 for wildcards).
    """
    total = int(counts.sum())
    if total == 0:
        return
    # One gather covering every (pattern, offset) slot of the rows.
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
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
    new_window = np.empty(len(key), dtype=bool)
    new_window[0] = True
    np.not_equal(key[1:], key[:-1], out=new_window[1:])
    window_starts = np.flatnonzero(new_window)
    # np.add.at adds in gather order, ((d0 + d1) + d2) ..., as the compiled
    # kernel does; np.add.reduceat would compute d0 + (d1 + d2 ...).
    window_sums = np.zeros(len(window_starts), dtype=dev.dtype)
    np.add.at(window_sums, np.cumsum(new_window) - 1, dev)
    u_key = key[window_starts]
    u_pat = u_key // n_windows
    u_traj = win_traj[u_key % n_windows]
    # u_key is sorted, so (u_pat, u_traj) runs are contiguous.
    boundary = (
        np.nonzero((np.diff(u_pat) != 0) | (np.diff(u_traj) != 0))[0] + 1
    )
    seg = np.concatenate([[0], boundary])
    out[u_pat[seg], u_traj[seg]] = np.maximum.reduceat(window_sums, seg)


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
        :meth:`NMEngine._batch_window_maxima` for the calling context.
        Pattern rows are gathered in runs of at most ``_GATHER_BUDGET``
        entries; rows are independent, so the split changes no bits.
        """
        n_patterns, m = cells_matrix.shape
        flat_cells = cells_matrix.ravel()
        safe = np.where(flat_cells >= 0, flat_cells, 0)
        counts = np.where(flat_cells >= 0, count[safe], 0)
        ends = np.cumsum(counts.reshape(n_patterns, m).sum(axis=1))
        lo = 0
        while lo < n_patterns:
            base = int(ends[lo - 1]) if lo else 0
            hi = max(int(np.searchsorted(ends, base + _GATHER_BUDGET, "right")), lo + 1)
            slots = slice(lo * m, hi * m)
            _devmax_rows(
                m, safe[slots], counts[slots], start, rows, vals, floor, valid,
                n_windows, win_traj, out[lo:hi],
            )  # fmt: skip
            lo = hi

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
        """Per-chunk entry lists joined into a CSR index by cell.

        Returns ``(cell_ids, cell_bounds, rows, vals)``: the cells with
        entries (``int32``, ascending), their entry ranges
        (``cell_bounds[i]:cell_bounds[i + 1]``, ``int64``) and the entries'
        ``int32`` rows and ``float64`` values in (cell, row) order.  The
        lists are emptied as they are joined.  Entries arrive in ascending
        row order, so a stable sort by cell alone yields the (cell, row)
        order of a lexsort.  The sorted cells are dropped once they have
        given the bounds, before the values are permuted.
        """
        cells = _join(cells_acc, np.int32)
        rows = _join(rows_acc, np.int32)
        vals = _join(vals_acc, np.float64)
        order = np.argsort(cells, kind="stable")
        cells = cells[order]
        if len(cells) and (cells[0] < 0 or cells[-1] >= n_cells):
            raise ValueError(f"index entry cell outside [0, {n_cells})")
        starts = np.flatnonzero(np.diff(cells)) + 1
        if len(cells):
            starts = np.concatenate([[0], starts])
        cell_ids, cell_bounds = cells[starts], np.append(starts, len(cells))
        del cells
        rows = rows[order]
        vals = vals[order]
        return cell_ids, cell_bounds, rows, vals

    def index_segments(self, cell_bounds, rows, row_traj):
        """Segment bounds of a CSR index.

        ``cell_bounds`` delimits each cell's entries in ``rows`` (ascending
        within a cell; no cell is empty).  Returns ``(seg_starts, seg_traj,
        cell_seg_starts)``: the entries where the (cell, trajectory) pair
        changes, each segment's trajectory, and the segment each cell
        starts with.
        """
        n = len(rows)
        if cell_bounds[-1] != n:
            raise ValueError("cell bounds do not cover the index rows")
        if not n:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.zeros(len(cell_bounds) - 1, dtype=np.int64)
        if rows.min() < 0 or rows.max() >= len(row_traj):
            raise IndexError(f"index entry row outside [0, {len(row_traj)})")
        entry_traj = row_traj[rows]
        change = np.zeros(n, dtype=bool)
        change[1:] = np.diff(entry_traj) != 0
        change[cell_bounds[:-1]] = True
        seg_starts = np.flatnonzero(change)
        seg_traj = entry_traj[seg_starts]
        cell_seg_starts = np.searchsorted(seg_starts, cell_bounds[:-1])
        return seg_starts, seg_traj, cell_seg_starts

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
