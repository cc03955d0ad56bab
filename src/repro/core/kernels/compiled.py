"""Compiled kernel backend: a small C library driven through ``ctypes``.

The library implements the backend's eight kernels (deviation maxima,
stacked scores, segment maxima, box ``Prob``, gap DP, and the index
build's pass that evaluates box ``Prob`` of listed (snapshot, cell) pairs
and places the kept ones into per-cell runs, their compaction into a CSR
index and its segmentation; every kernel reads ``int32`` rows and
``float64`` values): a C translation unit compiled on first use with the
system C compiler (``cc``/``gcc``/``clang``) into a content-hashed shared
library under a cache directory.

It is not required: :func:`load_library` raises with a precise reason
when the library cannot be built, and the registry in
:mod:`repro.core.kernels` degrades to the numpy backend with a structured
log warning.  ``REPRO_KERNELS=none`` turns it off.

Numerical notes
---------------
The evaluation kernels (devmax / stacked / segmax / gap DP) accumulate in
exactly the reference order (see :mod:`repro.core.kernels.numpy_ref`), so
they are bit-identical to numpy, and the compaction and segmentation
kernels only move integers and stored values.  Box ``Prob`` -- in
``prob_box`` and in the index build's ``place_pairs_box``, through one
``axis_mass`` -- is the one exception: it uses the C library's ``erf``
(libm), which may differ from scipy's by a couple of ULPs.  An index
built through it is therefore tagged in the index-cache key
(``prob_tag``) so it never masquerades as a reference-built index, and
the differential oracle gives compiled backends a small nonzero budget.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.core.kernels.numpy_ref import (
    check_fill_arrays,
    check_pair_arrays,
    place_pairs_reference,
)
from repro.obs import logs
from repro.uncertainty import gaussian
from repro.uncertainty.gaussian import ProbModel

_log = logs.get_logger("kernels.compiled")

__all__ = ["CompiledKernels", "load_library"]


# -- the C translation unit ---------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

/* Deviation accumulation per (pattern, window), then a max sweep per
 * trajectory.  Accumulation order matches the numpy reference (pattern
 * offset j ascending, entries in (cell, row) order), so sums are
 * bit-identical.  scratch must be all zeros on entry and is restored to
 * zeros before returning; touched holds the windows dirtied per pattern.
 * out is (n_patterns, n_traj), zero-filled by the caller. */
void batch_devmax(
    const int64_t *cells, int64_t n_patterns, int64_t m,
    const int64_t *start, const int64_t *count,
    const int32_t *rows, const double *vals, double floor_,
    const uint8_t *valid, int64_t n_windows, const int64_t *win_traj,
    int64_t n_traj, double *scratch, int64_t *touched, double *out)
{
    for (int64_t p = 0; p < n_patterns; ++p) {
        int64_t nt = 0;
        const int64_t *pc = cells + p * m;
        for (int64_t j = 0; j < m; ++j) {
            const int64_t c = pc[j];
            if (c < 0) continue;
            const int64_t e0 = start[c], e1 = e0 + count[c];
            for (int64_t e = e0; e < e1; ++e) {
                const int64_t w = (int64_t)rows[e] - j;
                if (w < 0 || w >= n_windows || !valid[w]) continue;
                const double d = vals[e] - floor_;
                /* d == 0 adds nothing to the reference sum; skipping it
                 * keeps the touched list duplicate-free. */
                if (d <= 0.0) continue;
                if (scratch[w] == 0.0) touched[nt++] = w;
                scratch[w] += d;
            }
        }
        double *orow = out + p * n_traj;
        for (int64_t t = 0; t < nt; ++t) {
            const int64_t w = touched[t];
            const double s = scratch[w];
            scratch[w] = 0.0;
            const int64_t tr = win_traj[w];
            if (s > orow[tr]) orow[tr] = s;
        }
    }
}

/* Scatter deviations on top of a caller-prefilled baseline matrix. */
void stacked_add(
    const int64_t *cells, int64_t n_patterns, int64_t m,
    const int64_t *start, const int64_t *count,
    const int32_t *rows, const double *vals, double floor_,
    int64_t n_windows, double *out)
{
    for (int64_t p = 0; p < n_patterns; ++p) {
        double *orow = out + p * n_windows;
        const int64_t *pc = cells + p * m;
        for (int64_t j = 0; j < m; ++j) {
            const int64_t c = pc[j];
            if (c < 0) continue;
            const int64_t e0 = start[c], e1 = e0 + count[c];
            for (int64_t e = e0; e < e1; ++e) {
                const int64_t w = (int64_t)rows[e] - j;
                if (w < 0 || w >= n_windows) continue;
                orow[w] += vals[e] - floor_;
            }
        }
    }
}

/* np.maximum.reduceat over non-empty segments. */
void segment_maxima(
    const double *vals, int64_t n_vals, const int64_t *seg_starts,
    int64_t n_segs, double *out)
{
    for (int64_t s = 0; s < n_segs; ++s) {
        const int64_t lo = seg_starts[s];
        const int64_t hi = (s + 1 < n_segs) ? seg_starts[s + 1] : n_vals;
        double best = vals[lo];
        for (int64_t e = lo + 1; e < hi; ++e)
            if (vals[e] > best) best = vals[e];
        out[s] = best;
    }
}

/* One axis factor of box Prob: the normal-CDF mass of [c - delta, c + delta]
 * around mean m with deviation s, libm erf. */
static double axis_mass(double c, double delta, double m, double s)
{
    const double sqrt2 = 1.4142135623730951;  /* np.sqrt(2.0) */
    const double lo = (c - delta - m) / s;
    const double hi = (c + delta - m) / s;
    return 0.5 * (1.0 + erf(hi / sqrt2)) - 0.5 * (1.0 + erf(lo / sqrt2));
}

static int same_bits(double a, double b)
{
    uint64_t x, y;
    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    return x == y;
}

/* The axis masses the box Prob kernels keep for reuse: the px of each
 * position along the current row and the current row's py. */
#define X_SLOTS 256
typedef struct {
    double xm[X_SLOTS], xs[X_SLOTS], xc[X_SLOTS], xv[X_SLOTS];
    int64_t kept;  /* slots [0, kept) hold an x mass */
    double ym, ys, yc, yv;
    int have_y;
} mass_cache;

static void mass_cache_init(mass_cache *mc)
{
    mc->kept = 0;
    mc->ym = mc->ys = mc->yc = mc->yv = 0.0;
    mc->have_y = 0;
}

/* Box Prob: the product px * py of two axis masses for mean (mx, my),
 * deviation s and centre (cx, cy), the pair at position col along its
 * row.  px depends only on (mean x, sigma, centre x) and py only on
 * (mean y, sigma, centre y), and the index build lists each snapshot's
 * cells row-major, so the cache keeps the current row's py and the px of
 * each position along the row.  A kept mass is reused only when all three
 * of its inputs are bit-equal to the current ones, and every mass comes
 * from axis_mass, so any pair order gives the same bits; the layout only
 * decides how often a mass is reused.  Positions past X_SLOTS along a row
 * are always computed. */
static inline double box_prob(mass_cache *mc, int64_t col, double mx, double my,
                              double s, double cx, double cy, double delta)
{
    double px;
    if (col < mc->kept && same_bits(mc->xm[col], mx) && same_bits(mc->xs[col], s)
        && same_bits(mc->xc[col], cx)) {
        px = mc->xv[col];
    } else {
        px = axis_mass(cx, delta, mx, s);
        if (col < X_SLOTS) {
            mc->xm[col] = mx; mc->xs[col] = s; mc->xc[col] = cx; mc->xv[col] = px;
            if (col >= mc->kept) mc->kept = col + 1;
        }
    }
    if (!(mc->have_y && same_bits(mc->ym, my) && same_bits(mc->ys, s)
          && same_bits(mc->yc, cy))) {
        mc->yv = axis_mass(cy, delta, my, s);
        mc->ym = my; mc->ys = s; mc->yc = cy; mc->have_y = 1;
    }
    return px * mc->yv;
}

/* Box Prob of n pairs, any layout (see box_prob). */
void prob_box(
    const double *mean, const double *sigma, const double *center,
    double delta, int64_t n, double *out)
{
    mass_cache mc;
    int64_t col = 0;  /* position of pair i along its row */
    mass_cache_init(&mc);
    for (int64_t i = 0; i < n; ++i) {
        const double s = sigma[i];
        const double mx = mean[2 * i], my = mean[2 * i + 1];
        const double cx = center[2 * i], cy = center[2 * i + 1];
        /* A row goes on while the same snapshot steps right at the same y. */
        if (i > 0 && cx > center[2 * i - 2] && same_bits(cy, center[2 * i - 1])
            && same_bits(mx, mean[2 * i - 2]) && same_bits(my, mean[2 * i - 1])
            && same_bits(s, sigma[i - 1]))
            ++col;
        else
            col = 0;
        out[i] = box_prob(&mc, col, mx, my, s, cx, cy, delta);
    }
}

/* The index build's pass over one row chunk's listed pairs: pair i is
 * cell cells[i] of snapshot o = owners[i], whose mean is means[2o..2o+1],
 * sigma sigmas[o] and global row row0 + o; each snapshot's pairs are one
 * run (owners non-decreasing).  Each pair's box Prob comes from box_prob,
 * so it has the bits prob_box gives that pair.  A snapshot's pairs above
 * min_prob are kept in keep_p / keep_c (cap slots); then each kept
 * probability and the row go to slot cursor[c]++ of the cell's run
 * [bounds[c], bounds[c + 1]) of out_rows / out_vals (n_out long), every
 * slot checked before it is written.  The walk starts at span[0] and
 * returns with span[0] at the first snapshot's run not placed:
 *   0  every pair placed;
 *   1  a cell outside [0, n_cells): nothing of that snapshot written;
 *   2  a kept pair whose cell's run has no free slot;
 *   3  an owner outside [0, n_owners) or below the one before it;
 *   4  the snapshot keeps more than cap cells: nothing of it written,
 *      and span[1] is the end of its run. */
int64_t place_pairs_box(
    const int32_t *cells, const int32_t *owners, int64_t n, int64_t *span,
    int64_t row0, const double *means, const double *sigmas, int64_t n_owners,
    const double *centres, int64_t n_cells, double delta, double min_prob,
    int64_t cap, double *keep_p, int32_t *keep_c, const int64_t *bounds,
    int64_t *cursor, int64_t n_out, int32_t *out_rows, double *out_vals)
{
    mass_cache mc;
    int64_t i = span[0];
    mass_cache_init(&mc);
    while (i < n) {
        const int64_t o = owners[i];
        if (o < 0 || o >= n_owners || (i > 0 && o < owners[i - 1])) {
            span[0] = i;
            return 3;
        }
        const double mx = means[2 * o], my = means[2 * o + 1], s = sigmas[o];
        int64_t kept = 0, col = 0, j;
        for (j = i; j < n && owners[j] == o; ++j) {
            const int64_t c = cells[j];
            if (c < 0 || c >= n_cells) {
                span[0] = i;
                return 1;
            }
            const double cx = centres[2 * c], cy = centres[2 * c + 1];
            /* A row goes on while the snapshot steps right at the same y. */
            if (j > i && cx > centres[2 * (int64_t)cells[j - 1]]
                && same_bits(cy, centres[2 * (int64_t)cells[j - 1] + 1]))
                ++col;
            else
                col = 0;
            const double p = box_prob(&mc, col, mx, my, s, cx, cy, delta);
            if (!(p > min_prob)) continue;
            if (kept == cap) {
                while (j < n && owners[j] == o) ++j;
                span[0] = i;
                span[1] = j;
                return 4;
            }
            keep_p[kept] = p;
            keep_c[kept] = (int32_t)c;
            ++kept;
        }
        const int32_t row = (int32_t)(row0 + o);
        for (int64_t k = 0; k < kept; ++k) {
            const int64_t c = keep_c[k];
            const int64_t slot = cursor[c];
            if (slot < bounds[c] || slot >= bounds[c + 1] || slot < 0
                || slot >= n_out) {
                span[0] = i;
                return 2;
            }
            out_rows[slot] = row;
            out_vals[slot] = keep_p[k];
            cursor[c] = slot + 1;
        }
        i = j;
    }
    span[0] = n;
    return 0;
}

/* Compaction of a filled index: cell c's entries are [bounds[c], cursor[c]).
 * Moves the runs left, in cell order, so they lie back to back, and returns
 * the entry count; returns -1, moving nothing, when a cursor lies outside
 * its cell's slots or the slots outside [0, n_out).  A run never moves
 * right, so copying each one forward is safe. */
int64_t compact_entries(
    const int64_t *bounds, const int64_t *cursor, int64_t n_cells,
    int64_t n_out, int32_t *rows, double *vals)
{
    if (bounds[0] < 0 || bounds[n_cells] > n_out) return -1;
    for (int64_t c = 0; c < n_cells; ++c)
        if (cursor[c] < bounds[c] || cursor[c] > bounds[c + 1]) return -1;
    int64_t dst = 0;
    for (int64_t c = 0; c < n_cells; ++c) {
        for (int64_t e = bounds[c]; e < cursor[c]; ++e, ++dst) {
            rows[dst] = rows[e];
            vals[dst] = vals[e];
        }
    }
    return dst;
}

/* Segments of a CSR index: cell c owns entries [bounds[c], bounds[c + 1]),
 * rows ascending, and every cell owns at least one entry.  A segment starts
 * wherever the cell or the row's trajectory changes: seg_starts holds its
 * first entry, seg_traj its trajectory and cell_seg_starts each cell's
 * first segment.  With a null seg_starts it only counts the segments into
 * *n_segs.  Returns how many rows fall outside [0, n_rows); nothing is read
 * for those. */
int64_t index_segments(
    const int64_t *bounds, int64_t n_cells, const int32_t *rows,
    const int64_t *row_traj, int64_t n_rows, int64_t *n_segs,
    int64_t *cell_seg_starts, int64_t *seg_starts, int64_t *seg_traj)
{
    int64_t ns = 0, bad = 0;
    for (int64_t c = 0; c < n_cells; ++c) {
        int64_t prev_traj = -1;
        if (seg_starts) cell_seg_starts[c] = ns;
        for (int64_t e = bounds[c]; e < bounds[c + 1]; ++e) {
            const int64_t r = rows[e];
            if (r < 0 || r >= n_rows) { ++bad; continue; }
            const int64_t t = row_traj[r];
            if (t != prev_traj) {
                if (seg_starts) { seg_starts[ns] = e; seg_traj[ns] = t; }
                ++ns;
                prev_traj = t;
            }
        }
    }
    *n_segs = ns;
    return bad;
}

/* Gap DP over flattened per-segment window scores; returns the best summed
 * log-prob (or -inf).  best/nxt are caller scratch of size `length`. */
double gap_dp(
    const double *scores, const int64_t *offsets, const int64_t *seg_lens,
    int64_t n_segments, const int64_t *gap_min, const int64_t *gap_max,
    int64_t length, double *best, double *nxt)
{
    const double NEG = -INFINITY;
    for (int64_t t = 0; t < length; ++t) best[t] = NEG;
    const int64_t n0 = seg_lens[0];
    for (int64_t t = n0 - 1; t < length; ++t)
        best[t] = scores[offsets[0] + t - (n0 - 1)];
    for (int64_t j = 1; j < n_segments; ++j) {
        const int64_t n = seg_lens[j];
        const double *sj = scores + offsets[j];
        for (int64_t t = 0; t < length; ++t) nxt[t] = NEG;
        for (int64_t t = n - 1; t < length; ++t) {
            const int64_t s = t - n + 1;
            const int64_t hi = s - 1 - gap_min[j - 1];
            if (hi < 0) continue;
            int64_t lo = s - 1 - gap_max[j - 1];
            if (lo < 0) lo = 0;
            double pb = NEG;
            for (int64_t q = lo; q <= hi; ++q)
                if (best[q] > pb) pb = best[q];
            if (pb == NEG) continue;
            nxt[t] = pb + sj[s];
        }
        double *tmp = best; best = nxt; nxt = tmp;
    }
    double top = NEG;
    for (int64_t t = 0; t < length; ++t)
        if (best[t] > top) top = best[t];
    return top;
}
"""


# -- the library --------------------------------------------------------------


def _lib_cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def load_library() -> ctypes.CDLL:
    """The kernel library with its ``ctypes`` signatures declared.

    Compiles :data:`_C_SOURCE` on first use into a content-hashed shared
    library under the cache directory and loads it; raises with a precise
    reason when no C compiler works.
    """
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _lib_cache_dir()
    lib_path = cache_dir / f"repro-kernels-{digest}.so"
    if not lib_path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        src_path = cache_dir / f"repro-kernels-{digest}.c"
        src_path.write_text(_C_SOURCE, encoding="utf-8")
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", "-o", tmp, str(src_path), "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed ({proc.returncode}): {proc.stderr.strip()[:400]}"
                )
            os.replace(tmp, lib_path)  # atomic: concurrent builders converge
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        _log.info(
            "compiled native kernel library",
            extra={"cc": cc, "path": str(lib_path)},
        )
    lib = ctypes.CDLL(str(lib_path))

    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    ptr = ctypes.c_void_p
    signatures = {
        "batch_devmax": (None, [ptr, i64, i64, ptr, ptr, ptr, ptr, f64, ptr,
                                i64, ptr, i64, ptr, ptr, ptr]),
        "stacked_add": (None, [ptr, i64, i64, ptr, ptr, ptr, ptr, f64, i64, ptr]),
        "segment_maxima": (None, [ptr, i64, ptr, i64, ptr]),
        "prob_box": (None, [ptr, ptr, ptr, f64, i64, ptr]),
        "gap_dp": (f64, [ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr]),
        "place_pairs_box": (i64, [ptr, ptr, i64, ptr, i64, ptr, ptr, i64, ptr, i64,
                                  f64, f64, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr]),
        "compact_entries": (i64, [ptr, ptr, i64, i64, ptr, ptr]),
        "index_segments": (i64, [ptr, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr]),
    }  # fmt: skip
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def _p(arr: np.ndarray | None):
    return None if arr is None else ctypes.c_void_p(arr.ctypes.data)


# -- the backend --------------------------------------------------------------


class CompiledKernels:
    """Kernel backend driving the compiled library (:func:`load_library`)."""

    compiled = True
    name = "cnative"
    #: The box Prob kernel uses libm erf, which may differ from scipy's by
    #: ~2 ULPs -- indexes built through it get a distinct cache-key tag so
    #: they never alias reference-built files.
    prob_tag = "cnative"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    def batch_devmax(self, cells_matrix, start, count, rows, vals, floor,
                     valid, n_windows, win_traj, arena, out) -> None:
        if n_windows <= 0:
            return
        cells_matrix = np.ascontiguousarray(cells_matrix, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        scratch = arena.get("devmax.scratch", (n_windows,))
        touched = arena.get("devmax.touched", (n_windows,), np.int64)
        self._lib.batch_devmax(
            _p(cells_matrix), cells_matrix.shape[0], cells_matrix.shape[1],
            _p(start), _p(count), _p(rows), _p(vals), float(floor), _p(valid),
            n_windows, _p(win_traj), out.shape[1], _p(scratch), _p(touched),
            _p(out),
        )

    def stacked_scores(self, cells_matrix, n_spec, start, count, rows, vals,
                       floor, n_windows, out) -> None:
        cells_matrix = np.ascontiguousarray(cells_matrix, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        out[:] = (floor * n_spec)[:, None]  # the same baseline as numpy's
        self._lib.stacked_add(
            _p(cells_matrix), cells_matrix.shape[0], cells_matrix.shape[1],
            _p(start), _p(count), _p(rows), _p(vals), float(floor), n_windows,
            _p(out),
        )

    def segment_maxima(self, vals, seg_starts) -> np.ndarray:
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        out = np.empty(len(seg_starts))
        if len(seg_starts):
            self._lib.segment_maxima(
                _p(vals), len(vals), _p(seg_starts), len(seg_starts), _p(out)
            )
        return out

    def prob_within(self, mean, sigma, center, delta,
                    model: ProbModel = ProbModel.BOX, out=None) -> np.ndarray:
        mean = np.ascontiguousarray(mean, dtype=np.float64)
        sigma = np.ascontiguousarray(sigma, dtype=np.float64)
        center = np.ascontiguousarray(center, dtype=np.float64)
        bulk_box = (
            model is ProbModel.BOX
            and mean.ndim == 2
            and mean.shape[1] == 2
            and center.shape == mean.shape
            and sigma.shape == (mean.shape[0],)
        )
        if not bulk_box:
            # Disk geometry and scalar/broadcast shapes stay on scipy.
            return gaussian.prob_within(mean, sigma, center, delta,
                                        model=model, out=out)
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")
        if delta <= 0:
            raise ValueError("delta must be positive")
        if out is None:
            out = np.empty(mean.shape[0])
        elif (
            out.shape != sigma.shape
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError("out must be a contiguous float64 array, one per pair")
        self._lib.prob_box(
            _p(mean), _p(sigma), _p(center), float(delta), len(out), _p(out)
        )
        return out

    def place_pairs(self, cells, owners, row0, means, sigmas, centres, delta,
                    model, min_prob, cap, bounds, cursor, out_rows, out_vals) -> None:
        means = np.ascontiguousarray(means, dtype=np.float64)
        sigmas = np.ascontiguousarray(sigmas, dtype=np.float64)
        centres = np.ascontiguousarray(centres, dtype=np.float64)
        pairs = (cells, owners, row0, means, sigmas, centres, delta, model,
                 min_prob, cap, bounds, cursor, out_rows, out_vals)  # fmt: skip
        if model is not ProbModel.BOX:
            # The disk geometry evaluates through scipy, as prob_within does.
            return place_pairs_reference(self.prob_within, *pairs)
        check_pair_arrays(cells, owners, row0, means, sigmas, centres, delta, cap,
                          bounds, cursor, out_rows, out_vals)  # fmt: skip
        n = len(cells)
        cells = np.ascontiguousarray(cells)
        owners = np.ascontiguousarray(owners)
        # A snapshot keeps at most min(cap, n) pairs, so the kernel's kept
        # buffers need no more slots than that.
        cap_slots = min(int(cap), n)
        keep_p = np.empty(cap_slots)
        keep_c = np.empty(cap_slots, dtype=np.int32)
        span = np.zeros(2, dtype=np.int64)
        while True:
            status = self._lib.place_pairs_box(
                _p(cells), _p(owners), n, _p(span), int(row0), _p(means),
                _p(sigmas), len(sigmas), _p(centres), len(cursor), float(delta),
                float(min_prob), cap_slots, _p(keep_p), _p(keep_c), _p(bounds),
                _p(cursor), len(out_rows), _p(out_rows), _p(out_vals),
            )  # fmt: skip
            if status != 4:
                break
            # A snapshot over the cap: the reference picks its cap most
            # probable cells (the same Prob bits), then the walk resumes.
            lo, hi = int(span[0]), int(span[1])
            place_pairs_reference(
                self.prob_within, cells[lo:hi], owners[lo:hi], *pairs[2:]
            )
            span[0] = hi
        if status == 1:
            raise ValueError(f"pair cell outside [0, {len(cursor)})")
        if status == 2:
            raise ValueError("index entry cell has no free slot in its run")
        if status == 3:
            raise ValueError(f"pair owner outside [0, {len(sigmas)}) or out of order")

    def compact_entries(self, bounds, cursor, rows, vals) -> int:
        check_fill_arrays(bounds, cursor, rows, vals)
        n = int(self._lib.compact_entries(
            _p(bounds), _p(cursor), len(cursor), len(rows), _p(rows), _p(vals)
        ))
        if n < 0:
            raise ValueError("cell cursor outside its run")
        return n

    def index_segments(self, cell_bounds, rows, row_traj):
        cell_bounds = np.ascontiguousarray(cell_bounds, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        row_traj = np.ascontiguousarray(row_traj, dtype=np.int64)
        if cell_bounds[-1] != len(rows):
            raise ValueError("cell bounds do not cover the index rows")
        n_segs = np.zeros(1, dtype=np.int64)

        def segments(*out):
            return self._lib.index_segments(
                _p(cell_bounds), len(cell_bounds) - 1, _p(rows), _p(row_traj),
                len(row_traj), _p(n_segs), *(_p(a) for a in out),
            )

        # A first pass with null outputs only counts the segments.
        if segments(None, None, None):
            raise IndexError(f"index entry row outside [0, {len(row_traj)})")
        seg_starts = np.empty(int(n_segs[0]), dtype=np.int64)
        seg_traj = np.empty(int(n_segs[0]), dtype=np.int64)
        cell_seg_starts = np.empty(len(cell_bounds) - 1, dtype=np.int64)
        segments(cell_seg_starts, seg_starts, seg_traj)
        return seg_starts, seg_traj, cell_seg_starts

    def gap_dp(self, seg_scores, seg_lens, gap_mins, gap_maxs, length, arena) -> float:
        scores = [np.ascontiguousarray(s, dtype=np.float64) for s in seg_scores]
        lens = np.array([len(s) for s in scores], dtype=np.int64)
        offsets = np.zeros(len(scores), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        flat = np.concatenate(scores) if scores else np.empty(0)
        best = arena.get("gap.best", (length,), np.float64)
        nxt = arena.get("gap.nxt", (length,), np.float64)
        # Named locals: each array must outlive the call that reads it.
        seg_lens = np.asarray(seg_lens, dtype=np.int64)
        gap_mins = np.asarray(gap_mins, dtype=np.int64)
        gap_maxs = np.asarray(gap_maxs, dtype=np.int64)
        return float(
            self._lib.gap_dp(
                _p(flat), _p(offsets), _p(seg_lens), len(seg_lens),
                _p(gap_mins), _p(gap_maxs), length, _p(best), _p(nxt),
            )
        )
