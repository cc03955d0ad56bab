"""Reference numpy implementation of the kernel backend surface.

This is the vectorised code the engine ran before the backend split: the
stable-sort deviation reduction behind ``nm_batch``/``match_batch`` (each
window summed in gather order, see below), the stacked window-score
scatter, the per-segment maxima sweep, the chunked ``prob_within``
evaluation (delegated to :mod:`repro.uncertainty.gaussian`), the wildcard
gap DP, and the index build's scatter of entries into per-cell runs,
their compaction into a CSR index by cell (``int32`` rows) and its
segmentation.  It remains
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
* All kernel arithmetic runs in float64.
"""

from __future__ import annotations

import numpy as np

from repro.uncertainty import gaussian
from repro.uncertainty.gaussian import ProbModel

__all__ = ["NumpyKernels", "check_fill_arrays"]

#: Index entries one :meth:`NumpyKernels.batch_devmax` pass gathers at most
#: (a pattern touching more is gathered alone).  Each gathered entry holds
#: about eight 8-byte scratch values, so a pass stays near 128 MiB.
_GATHER_BUDGET = 1 << 21
#: Entries one :meth:`NumpyKernels.compact_entries` step moves; its index
#: temporaries (~36 bytes per entry) stay near 2 MiB.
_COMPACT_BLOCK = 1 << 16


def check_fill_arrays(bounds, cursor, rows, vals) -> None:
    """Reject arrays the index fill kernels of either backend cannot index.

    ``bounds`` (``n_cells + 1``) and ``cursor`` (``n_cells``) are
    ``int64``, ``rows`` ``int32`` and ``vals`` ``float64`` of one length,
    all contiguous.
    """
    if not (
        bounds.dtype == cursor.dtype == np.int64
        and rows.dtype == np.int32
        and vals.dtype == np.float64
        and all(a.flags.c_contiguous for a in (bounds, cursor, rows, vals))
        and bounds.shape == (len(cursor) + 1,)
        and rows.shape == vals.shape == (len(rows),)
    ):
        raise ValueError(
            "fill arrays must be contiguous int64 bounds (n_cells + 1) and "
            "cursor (n_cells), int32 rows and float64 values of one length"
        )


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
    return pat[keep], wrow[keep], vals[flat_pos[keep]] - floor


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
    dev = vals[flat_pos] - floor
    key = (owner // m) * np.int64(n_windows) + wrow
    order = np.argsort(key, kind="stable")
    key, dev = key[order], dev[order]
    new_window = np.empty(len(key), dtype=bool)
    new_window[0] = True
    np.not_equal(key[1:], key[:-1], out=new_window[1:])
    window_starts = np.flatnonzero(new_window)
    # np.add.at adds in gather order, ((d0 + d1) + d2) ..., as the compiled
    # kernel does; np.add.reduceat would compute d0 + (d1 + d2 ...).
    window_sums = np.zeros(len(window_starts))
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
    """The reference backend."""

    compiled = False
    name = "numpy"
    #: Prob-kernel identity for the index-cache key.  "ref" marks the
    #: scipy ``erf`` path the cache format has always used, so default
    #: configurations keep their existing cache keys.
    prob_tag = "ref"

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
        out[:] = (floor * n_spec)[:, None]
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
            return np.empty(0)
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
        """The scipy-backed ``Prob`` evaluation."""
        return gaussian.prob_within(mean, sigma, center, delta, model=model, out=out)

    # -- index fill, compaction and segmentation ------------------------------

    def scatter_entries(self, cells, rows, vals, bounds, cursor, out_rows, out_vals):
        """Place one chunk of entries in their cells' runs.

        Cell ``c`` owns slots ``bounds[c]:bounds[c + 1]`` of ``out_rows`` /
        ``out_vals``, filled up to ``cursor[c]``.  Sorting by (cell,
        position in the chunk) ranks each entry within its cell, so entries
        keep their chunk order within a cell; the cursors advance past
        them.  Every slot is checked before anything is written: a cell
        outside ``[0, len(cursor))`` or a run without room raises
        ``ValueError``.
        """
        check_fill_arrays(bounds, cursor, out_rows, out_vals)
        n = len(cells)
        if not n == len(rows) == len(vals):
            raise ValueError("entry chunk columns differ in length")
        if not n:
            return
        if cells.min() < 0 or cells.max() >= len(cursor):
            raise ValueError(f"index entry cell outside [0, {len(cursor)})")
        # Unique keys: the default (unstable, faster) sort gives the order
        # a stable sort by cell would.
        order = np.argsort(cells.astype(np.int64) * n + np.arange(n))
        by_cell = cells[order]
        firsts = np.flatnonzero(np.diff(by_cell, prepend=by_cell[0] - 1))
        run_cells = by_cell[firsts].astype(np.int64)
        run_lens = np.diff(np.append(firsts, len(cells)))
        slot0 = cursor[run_cells]
        if (
            np.any(slot0 < bounds[run_cells])
            or np.any(slot0 + run_lens > bounds[run_cells + 1])
            or slot0.min() < 0
            or (slot0 + run_lens).max() > len(out_rows)
        ):
            raise ValueError("index entry cell has no free slot in its run")
        slots = np.repeat(slot0 - firsts, run_lens) + np.arange(n)
        out_rows[slots] = rows[order]
        out_vals[slots] = vals[order]
        cursor[run_cells] += run_lens

    def compact_entries(self, bounds, cursor, rows, vals) -> int:
        """Move each cell's run ``bounds[c]:cursor[c]`` left, in place, so
        the runs lie back to back in cell order; returns the entry count.

        Entries move in blocks of ``_COMPACT_BLOCK`` destination slots, in
        ascending order.  An entry never moves right, so a block reads only
        slots no earlier block wrote, and each block gathers its sources
        before it writes.  Each block's sources are its slots shifted by
        the gap before their cell's run.
        """
        check_fill_arrays(bounds, cursor, rows, vals)
        if (
            bounds[0] < 0
            or bounds[-1] > len(rows)
            or np.any(cursor < bounds[:-1])
            or np.any(cursor > bounds[1:])
        ):
            raise ValueError("cell cursor outside its run")
        dst = np.zeros(len(bounds), dtype=np.int64)
        np.cumsum(cursor - bounds[:-1], out=dst[1:])
        shift = bounds[:-1] - dst[:-1]
        n = int(dst[-1])
        for lo in range(0, n, _COMPACT_BLOCK):
            hi = min(lo + _COMPACT_BLOCK, n)
            first = int(np.searchsorted(dst, lo, side="right")) - 1
            last = int(np.searchsorted(dst, hi, side="left"))
            spans = np.clip(dst[first : last + 1], lo, hi)
            src = np.arange(lo, hi) + np.repeat(shift[first:last], np.diff(spans))
            rows[lo:hi] = rows[src]
            vals[lo:hi] = vals[src]
        return n

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
