"""Compiled kernel backend: a small C library driven through ``ctypes``.

One provider, ``cnative``, implements the backend's seven kernels
(deviation maxima, stacked scores, segment maxima, box ``Prob``, gap DP,
the counting-sort scatter of index entries into a CSR index and its
segmentation; every kernel reads ``int32`` rows):
a C translation unit compiled on first use with the system C compiler
(``cc``/``gcc``/``clang``) into a content-hashed shared library under a
cache directory.

It is not required: :func:`load_provider` raises with a precise reason
when the library cannot be built, and the registry in
:mod:`repro.core.kernels` degrades to the numpy backend with a structured
log warning.  ``REPRO_KERNELS=cnative|none`` forces it on or off.

Numerical notes
---------------
The evaluation kernels (devmax / stacked / segmax / gap DP) accumulate in
exactly the reference order (see :mod:`repro.core.kernels.numpy_ref`), so
they are bit-identical to numpy in both dtypes, and the sort and
segmentation kernels only move integers and stored values.  The box
``Prob`` kernel is the one exception: it uses the C library's ``erf``
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

from repro.obs import logs
from repro.uncertainty import gaussian
from repro.uncertainty.gaussian import ProbModel

_log = logs.get_logger("kernels.compiled")

__all__ = ["CompiledKernels", "load_provider", "PROVIDER_CHOICES"]

PROVIDER_CHOICES = ("cnative",)


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
#define DEVMAX(SUF, T)                                                        \
void batch_devmax_##SUF(                                                      \
    const int64_t *cells, int64_t n_patterns, int64_t m,                      \
    const int64_t *start, const int64_t *count,                               \
    const int32_t *rows, const T *vals, double floor_,                        \
    const uint8_t *valid, int64_t n_windows, const int64_t *win_traj,         \
    int64_t n_traj, T *scratch, int64_t *touched, T *out)                     \
{                                                                             \
    const T floorv = (T)floor_;                                               \
    for (int64_t p = 0; p < n_patterns; ++p) {                                \
        int64_t nt = 0;                                                       \
        const int64_t *pc = cells + p * m;                                    \
        for (int64_t j = 0; j < m; ++j) {                                     \
            const int64_t c = pc[j];                                          \
            if (c < 0) continue;                                              \
            const int64_t e0 = start[c], e1 = e0 + count[c];                  \
            for (int64_t e = e0; e < e1; ++e) {                               \
                const int64_t w = (int64_t)rows[e] - j;                       \
                if (w < 0 || w >= n_windows || !valid[w]) continue;           \
                const T d = vals[e] - floorv;                                 \
                /* d == 0 adds nothing to the reference sum; skipping it      \
                 * keeps the touched list duplicate-free. */                  \
                if (d <= (T)0) continue;                                      \
                if (scratch[w] == (T)0) touched[nt++] = w;                    \
                scratch[w] += d;                                              \
            }                                                                 \
        }                                                                     \
        T *orow = out + p * n_traj;                                           \
        for (int64_t t = 0; t < nt; ++t) {                                    \
            const int64_t w = touched[t];                                     \
            const T s = scratch[w];                                           \
            scratch[w] = (T)0;                                                \
            const int64_t tr = win_traj[w];                                   \
            if (s > orow[tr]) orow[tr] = s;                                   \
        }                                                                     \
    }                                                                         \
}
DEVMAX(f64, double)
DEVMAX(f32, float)

/* Scatter deviations on top of a caller-prefilled baseline matrix. */
#define STACKED(SUF, T)                                                       \
void stacked_add_##SUF(                                                       \
    const int64_t *cells, int64_t n_patterns, int64_t m,                      \
    const int64_t *start, const int64_t *count,                               \
    const int32_t *rows, const T *vals, double floor_,                        \
    int64_t n_windows, T *out)                                                \
{                                                                             \
    const T floorv = (T)floor_;                                               \
    for (int64_t p = 0; p < n_patterns; ++p) {                                \
        T *orow = out + p * n_windows;                                        \
        const int64_t *pc = cells + p * m;                                    \
        for (int64_t j = 0; j < m; ++j) {                                     \
            const int64_t c = pc[j];                                          \
            if (c < 0) continue;                                              \
            const int64_t e0 = start[c], e1 = e0 + count[c];                  \
            for (int64_t e = e0; e < e1; ++e) {                               \
                const int64_t w = (int64_t)rows[e] - j;                       \
                if (w < 0 || w >= n_windows) continue;                        \
                orow[w] += vals[e] - floorv;                                  \
            }                                                                 \
        }                                                                     \
    }                                                                         \
}
STACKED(f64, double)
STACKED(f32, float)

/* np.maximum.reduceat over non-empty segments. */
#define SEGMAX(SUF, T)                                                        \
void segment_maxima_##SUF(                                                    \
    const T *vals, int64_t n_vals, const int64_t *seg_starts,                 \
    int64_t n_segs, T *out)                                                   \
{                                                                             \
    for (int64_t s = 0; s < n_segs; ++s) {                                    \
        const int64_t lo = seg_starts[s];                                     \
        const int64_t hi = (s + 1 < n_segs) ? seg_starts[s + 1] : n_vals;     \
        T best = vals[lo];                                                    \
        for (int64_t e = lo + 1; e < hi; ++e)                                 \
            if (vals[e] > best) best = vals[e];                               \
        out[s] = best;                                                        \
    }                                                                         \
}
SEGMAX(f64, double)
SEGMAX(f32, float)

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

/* Box Prob: the product px * py of two axis masses.  px depends only on
 * (mean x, sigma, centre x) and py only on (mean y, sigma, centre y), and
 * the index build lists each snapshot's cells row-major, so the kernel
 * keeps the current row's py and the px of each position along the row.
 * A kept mass is reused only when all three of its inputs are bit-equal
 * to the current ones, and every mass comes from axis_mass, so any pair
 * order gives the same bits; the layout only decides how often a mass is
 * reused.  Positions past X_SLOTS along a row are always computed. */
#define X_SLOTS 256
void prob_box_f64(
    const double *mean, const double *sigma, const double *center,
    double delta, int64_t n, double *out)
{
    double xm[X_SLOTS], xs[X_SLOTS], xc[X_SLOTS], xv[X_SLOTS];
    int64_t kept = 0;  /* slots [0, kept) hold a mass */
    int64_t col = 0;   /* position of pair i along its row */
    double ym = 0.0, ys = 0.0, yc = 0.0, yv = 0.0;
    int have_y = 0;
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
        double px;
        if (col < kept && same_bits(xm[col], mx) && same_bits(xs[col], s)
            && same_bits(xc[col], cx)) {
            px = xv[col];
        } else {
            px = axis_mass(cx, delta, mx, s);
            if (col < X_SLOTS) {
                xm[col] = mx; xs[col] = s; xc[col] = cx; xv[col] = px;
                if (col >= kept) kept = col + 1;
            }
        }
        if (!(have_y && same_bits(ym, my) && same_bits(ys, s)
              && same_bits(yc, cy))) {
            yv = axis_mass(cy, delta, my, s);
            ym = my; ys = s; yc = cy; have_y = 1;
        }
        out[i] = px * yv;
    }
}

/* Per-cell entry counts of one chunk of index entries, added to counts.
 * Returns how many cells fall outside [0, n_cells); those are not counted. */
int64_t count_cells(
    const int32_t *cells, int64_t n, int64_t n_cells, int64_t *counts)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t c = cells[i];
        if (c < 0 || c >= n_cells) { ++bad; continue; }
        ++counts[c];
    }
    return bad;
}

/* Counting-sort scatter of one chunk: entry i goes to slot cursor[cells[i]]++.
 * Chunks scattered in order keep their order within each cell, which is the
 * order a stable sort by cell gives. */
void scatter_entries(
    const int32_t *cells, const int32_t *rows, const double *vals, int64_t n,
    int64_t *cursor, int32_t *out_rows, double *out_vals)
{
    for (int64_t i = 0; i < n; ++i) {
        const int64_t slot = cursor[cells[i]]++;
        out_rows[slot] = rows[i];
        out_vals[slot] = vals[i];
    }
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
double gap_dp_f64(
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


# -- providers ----------------------------------------------------------------


class _Provider:
    """Uniform callable bundle a :class:`CompiledKernels` drives.

    ``devmax`` / ``stacked_add`` / ``segmax`` take numpy arrays in the
    value dtype; ``prob_box`` / ``gap_dp`` / ``scatter`` are float64 only.
    ``count_cells`` / ``scatter`` / ``segments`` wrap the C functions of
    the same purpose (see the C source for their contracts).
    """

    __slots__ = ("name", "devmax", "stacked_add", "segmax", "prob_box",
                 "gap_dp", "count_cells", "scatter", "segments")

    def __init__(self, name, **kernels):
        self.name = name
        for attr, fn in kernels.items():
            setattr(self, attr, fn)


def _lib_cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _build_cnative_provider() -> _Provider:
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
    for suf in ("f64", "f32"):
        fn = getattr(lib, f"batch_devmax_{suf}")
        fn.restype = None
        fn.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, f64, ptr, i64, ptr,
                       i64, ptr, ptr, ptr]
        fn = getattr(lib, f"stacked_add_{suf}")
        fn.restype = None
        fn.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr, f64, i64, ptr]
        fn = getattr(lib, f"segment_maxima_{suf}")
        fn.restype = None
        fn.argtypes = [ptr, i64, ptr, i64, ptr]
    lib.prob_box_f64.restype = None
    lib.prob_box_f64.argtypes = [ptr, ptr, ptr, f64, i64, ptr]
    lib.gap_dp_f64.restype = f64
    lib.gap_dp_f64.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, i64, ptr, ptr]
    lib.count_cells.restype = i64
    lib.count_cells.argtypes = [ptr, i64, i64, ptr]
    lib.scatter_entries.restype = None
    lib.scatter_entries.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, ptr]
    lib.index_segments.restype = i64
    lib.index_segments.argtypes = [ptr, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr]

    def _p(arr: np.ndarray | None):
        return None if arr is None else ctypes.c_void_p(arr.ctypes.data)

    def devmax(cells, start, count, rows, vals, floor_t, valid, n_windows,
               win_traj, scratch, touched, out):
        fn = lib.batch_devmax_f32 if vals.dtype == np.float32 else lib.batch_devmax_f64
        fn(_p(cells), cells.shape[0], cells.shape[1], _p(start), _p(count),
           _p(rows), _p(vals), float(floor_t), _p(valid), n_windows,
           _p(win_traj), out.shape[1], _p(scratch), _p(touched), _p(out))

    def stacked_add(cells, start, count, rows, vals, floor_t, n_windows, out):
        fn = lib.stacked_add_f32 if vals.dtype == np.float32 else lib.stacked_add_f64
        fn(_p(cells), cells.shape[0], cells.shape[1], _p(start), _p(count),
           _p(rows), _p(vals), float(floor_t), n_windows, _p(out))

    def segmax(vals, seg_starts, out):
        fn = (
            lib.segment_maxima_f32
            if vals.dtype == np.float32
            else lib.segment_maxima_f64
        )
        fn(_p(vals), len(vals), _p(seg_starts), len(seg_starts), _p(out))

    def prob_box(mean, sigma, center, delta, out):
        lib.prob_box_f64(_p(mean), _p(sigma), _p(center), float(delta),
                         len(out), _p(out))

    def gap_dp(scores, offsets, seg_lens, gap_min, gap_max, length, best, nxt):
        return lib.gap_dp_f64(_p(scores), _p(offsets), _p(seg_lens),
                              len(seg_lens), _p(gap_min), _p(gap_max),
                              length, _p(best), _p(nxt))

    def count_cells(cells, n_cells, counts) -> int:
        return lib.count_cells(_p(cells), len(cells), n_cells, _p(counts))

    def scatter(cells, rows, vals, cursor, out_rows, out_vals):
        lib.scatter_entries(_p(cells), _p(rows), _p(vals), len(cells),
                            _p(cursor), _p(out_rows), _p(out_vals))

    def segments(cell_bounds, rows, row_traj, n_segs, cell_seg_starts=None,
                 seg_starts=None, seg_traj=None) -> int:
        return lib.index_segments(
            _p(cell_bounds), len(cell_bounds) - 1, _p(rows), _p(row_traj),
            len(row_traj), _p(n_segs), _p(cell_seg_starts), _p(seg_starts),
            _p(seg_traj),
        )

    return _Provider(
        "cnative", devmax=devmax, stacked_add=stacked_add, segmax=segmax,
        prob_box=prob_box, gap_dp=gap_dp, count_cells=count_cells,
        scatter=scatter, segments=segments,
    )


def load_provider(name: str) -> _Provider:
    """Build the named provider, raising with a precise reason on failure."""
    if name == "cnative":
        return _build_cnative_provider()
    raise ValueError(f"unknown compiled provider {name!r}")


# -- the backend --------------------------------------------------------------


class CompiledKernels:
    """Kernel backend driving the compiled ``cnative`` provider."""

    compiled = True

    def __init__(self, provider: _Provider, dtype: np.dtype | str = np.float64) -> None:
        self._p = provider
        self.provider = provider.name
        self.name = provider.name
        self.dtype = np.dtype(dtype)
        #: The box Prob kernel uses libm erf, which may differ from
        #: scipy's by ~2 ULPs -- indexes built through it get a distinct
        #: cache-key tag so they never alias reference-built files.
        self.prob_tag = provider.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledKernels(provider={self.provider}, dtype={self.dtype})"

    def batch_devmax(self, cells_matrix, start, count, rows, vals, floor,
                     valid, n_windows, win_traj, arena, out) -> None:
        if n_windows <= 0:
            return
        cells_matrix = np.ascontiguousarray(cells_matrix, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        scratch = arena.get("devmax.scratch", (n_windows,), self.dtype)
        touched = arena.get("devmax.touched", (n_windows,), np.int64)
        self._p.devmax(
            cells_matrix, start, count, rows, vals, self.dtype.type(floor),
            valid.view(np.uint8), n_windows, win_traj, scratch, touched, out,
        )

    def stacked_scores(self, cells_matrix, n_spec, start, count, rows, vals,
                       floor, n_windows, out) -> None:
        cells_matrix = np.ascontiguousarray(cells_matrix, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        # Same float64-then-cast baseline as the reference backend.
        out[:] = (floor * n_spec.astype(np.float64))[:, None]
        self._p.stacked_add(
            cells_matrix, start, count, rows, vals, self.dtype.type(floor),
            n_windows, out,
        )

    def segment_maxima(self, vals, seg_starts) -> np.ndarray:
        if not seg_starts.size:
            return np.empty(0, dtype=vals.dtype)
        out = np.empty(len(seg_starts), dtype=vals.dtype)
        self._p.segmax(vals, seg_starts, out)
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
        self._p.prob_box(mean, sigma, center, float(delta), out)
        return out

    def sort_entries(self, cells_acc, rows_acc, vals_acc, n_cells):
        counts = np.zeros(n_cells, dtype=np.int64)
        for i, cells in enumerate(cells_acc):
            cells_acc[i] = cells = np.ascontiguousarray(cells, dtype=np.int32)
            if self._p.count_cells(cells, n_cells, counts):
                raise ValueError(f"index entry cell outside [0, {n_cells})")
        cursor = np.zeros(n_cells, dtype=np.int64)
        np.cumsum(counts[:-1], out=cursor[1:])
        total = int(counts.sum())
        rows = np.empty(total, dtype=np.int32)
        vals = np.empty(total, dtype=np.float64)
        for i, cells in enumerate(cells_acc):
            chunk_rows = np.ascontiguousarray(rows_acc[i], dtype=np.int32)
            chunk_vals = np.ascontiguousarray(vals_acc[i], dtype=np.float64)
            if not len(cells) == len(chunk_rows) == len(chunk_vals):
                raise ValueError("entry chunk columns differ in length")
            self._p.scatter(cells, chunk_rows, chunk_vals, cursor, rows, vals)
            # Free each chunk as soon as it is placed.
            cells_acc[i] = rows_acc[i] = vals_acc[i] = None
        cells_acc.clear()
        rows_acc.clear()
        vals_acc.clear()
        cell_ids = np.flatnonzero(counts)
        cell_bounds = np.zeros(len(cell_ids) + 1, dtype=np.int64)
        np.cumsum(counts[cell_ids], out=cell_bounds[1:])
        return cell_ids.astype(np.int32), cell_bounds, rows, vals

    def index_segments(self, cell_bounds, rows, row_traj):
        cell_bounds = np.ascontiguousarray(cell_bounds, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        row_traj = np.ascontiguousarray(row_traj, dtype=np.int64)
        if cell_bounds[-1] != len(rows):
            raise ValueError("cell bounds do not cover the index rows")
        n_segs = np.zeros(1, dtype=np.int64)
        if self._p.segments(cell_bounds, rows, row_traj, n_segs):
            raise IndexError(f"index entry row outside [0, {len(row_traj)})")
        out = (
            np.empty(int(n_segs[0]), dtype=np.int64),
            np.empty(int(n_segs[0]), dtype=np.int64),
            np.empty(len(cell_bounds) - 1, dtype=np.int64),
        )
        seg_starts, seg_traj, cell_seg_starts = out
        self._p.segments(cell_bounds, rows, row_traj, n_segs, cell_seg_starts,
                         seg_starts, seg_traj)
        return out

    def gap_dp(self, seg_scores, seg_lens, gap_mins, gap_maxs, length, arena) -> float:
        scores = [np.ascontiguousarray(s, dtype=np.float64) for s in seg_scores]
        lens = np.array([len(s) for s in scores], dtype=np.int64)
        offsets = np.zeros(len(scores), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        flat = np.concatenate(scores) if scores else np.empty(0)
        best = arena.get("gap.best", (length,), np.float64)
        nxt = arena.get("gap.nxt", (length,), np.float64)
        return float(
            self._p.gap_dp(
                flat, offsets, np.asarray(seg_lens, dtype=np.int64),
                np.asarray(gap_mins, dtype=np.int64),
                np.asarray(gap_maxs, dtype=np.int64), length, best, nxt,
            )
        )
