"""Persistent on-disk cache of the engine's sparse probability index.

Building the index is the expensive part of engine construction: every
snapshot neighbourhood is enumerated and ``Prob`` evaluated per (snapshot,
cell) pair.  The *result* however is three flat arrays -- ``(cell, row,
log-prob)`` triples sorted by (cell, row), the engine's
:meth:`~repro.core.engine.NMEngine.index_arrays` view of its CSR index,
with ``int64`` cells and rows and ``float64`` values -- that depend only on the
dataset geometry, the grid and the index-affecting knobs of
:class:`~repro.core.engine.EngineConfig`.  This module persists those
arrays as one ``.npz`` per configuration under a cache directory, so
repeated mining/experiment runs skip the build entirely.  An engine's
build writes them straight from its CSR index (:func:`save_index_csr`),
a block of entries at a time.

Cache key
---------
One key function, :func:`span_cache_key`: a SHA-256 over

* a format-version tag (bump :data:`CACHE_FORMAT_VERSION` when the stored
  layout changes),
* the dataset fingerprint (:func:`dataset_fingerprint`: every
  trajectory's means, sigmas and length, so *any* change to the dataset,
  including reordering, changes it) plus a trajectory span ``[lo, hi)``
  of that dataset,
* the grid extent and resolution,
* the index-affecting config fields: ``delta``, ``prob_model``,
  ``min_prob``, ``radius_sigmas`` and ``max_cells_per_snapshot``,
* the ``Prob`` kernel identity when it is not the scipy reference
  (compiled libm-``erf`` builds differ by a couple of ULPs).

A whole-dataset index is the span ``[0, len(dataset))``, so a serial
engine, a serving snapshot, a persisted incremental index and a one-span
parallel engine over the same data share one entry; a span engine of
:class:`~repro.core.parallel.ParallelNMEngine` keeps its own entry, with
span-local row indices.

Knobs that do not change the stored entries (``jobs``, ``cache_dir``
itself, and the evaluation ``backend`` apart from its ``Prob`` kernel
tag) are deliberately excluded.

Robustness: files are written atomically (temp file + ``os.replace``) and
:func:`load_index` treats *any* unreadable, truncated or
wrong-format file as a miss, and so is a payload holding a value no
build could produce -- the engine then falls back to a fresh build and
overwrites the bad file.

Observability: every load outcome is logged on the ``repro.index_cache``
logger and counted on the global metrics registry -- ``index.cache.hit``,
``index.cache.miss`` (file absent) and ``index.cache.corrupt`` (file
present but rejected, logged as a warning because it means a rebuild the
operator probably did not expect).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.obs import logs, metrics
from repro.testkit import faults

_log = logs.get_logger("index_cache")

#: Bump when the stored array layout changes; part of the cache key.
CACHE_FORMAT_VERSION = 1

#: Arrays stored in the ``.npz`` payload, in order, and their dtypes.
_PAYLOAD_KEYS = ("cells", "rows", "vals")
_PAYLOAD_DTYPES = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64))
#: Entries a cache write converts and writes at a time (512 KiB of int64).
_WRITE_BLOCK = 1 << 16


def _hash_update_array(h: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed an array into the hash in a layout-independent way."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
    h.update(arr.astype("<f8", copy=False).tobytes())


def dataset_fingerprint(dataset) -> str:
    """SHA-256 hex digest of every trajectory's means, sigmas and length.

    A dataset may pre-compute this and expose it as a
    ``content_fingerprint`` attribute -- full-span
    :class:`~repro.storage.dataset.StoreDataset` views do, carrying the
    ``.tjc`` footer's ``content_hash``, which the writer computed with
    exactly this algorithm.  The short-circuit is what makes opening a
    multi-gigabyte store and hitting a warm index cache O(footer) instead
    of O(dataset).
    """
    precomputed = getattr(dataset, "content_fingerprint", None)
    if precomputed is not None:
        return str(precomputed)
    h = hashlib.sha256()
    h.update(f"n={len(dataset)}".encode())
    for traj in dataset:
        _hash_update_array(h, traj.means)
        _hash_update_array(h, traj.sigmas)
    return h.hexdigest()


def span_cache_key(
    fingerprint: str,
    traj_lo: int,
    traj_hi: int,
    grid,
    config,
    *,
    kernel_tag: str = "ref",
) -> str:
    """Cache key of trajectories ``[traj_lo, traj_hi)`` of one dataset.

    ``fingerprint`` is the dataset's :func:`dataset_fingerprint` (for a
    ``.tjc`` store, its footer ``content_hash``), so naming a span's entry
    reads no data.  ``kernel_tag`` identifies the ``Prob`` kernel that
    builds the entries (:func:`repro.core.kernels.prob_kernel_tag`): the
    scipy reference ``"ref"`` contributes nothing, compiled kernels are
    mixed in so the two builds never alias one file.  Row indices inside
    a span entry are span-local.
    """
    h = hashlib.sha256()
    h.update(f"format={CACHE_FORMAT_VERSION}".encode())
    h.update(f"store={fingerprint}/span={traj_lo}:{traj_hi}".encode())
    bbox = grid.bbox
    h.update(
        (
            f"grid={bbox.min_x!r},{bbox.min_y!r},{bbox.max_x!r},{bbox.max_y!r},"
            f"{grid.nx},{grid.ny}"
        ).encode()
    )
    h.update(
        (
            f"config=delta:{config.delta!r},model:{config.prob_model.value},"
            f"min_prob:{config.min_prob!r},radius:{config.radius_sigmas!r},"
            f"cap:{config.max_cells_per_snapshot}"
        ).encode()
    )
    if kernel_tag != "ref":
        h.update(f"kernel={kernel_tag}".encode())
    return h.hexdigest()


def cache_path(cache_dir: str | Path, key: str) -> Path:
    """Path of the cache file for ``key`` under ``cache_dir``."""
    return Path(cache_dir) / f"index-{key}.npz"


def save_index(
    cache_dir: str | Path,
    key: str,
    cells: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
) -> Path:
    """Atomically persist flat ``(cell, row, value)`` triples under ``cache_dir``.

    See :func:`save_index_csr` for how the file is written.
    """
    if not len(cells) == len(rows) == len(vals):
        raise ValueError("index entry columns differ in length")
    return _write_payload(
        cache_dir,
        key,
        len(cells),
        [lambda lo, hi, a=a: a[lo:hi] for a in (cells, rows, vals)],
    )


def save_index_csr(
    cache_dir: str | Path,
    key: str,
    cell_ids: np.ndarray,
    cell_bounds: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
) -> Path:
    """Atomically persist a CSR index (:meth:`NMEngine.index_csr`) as triples.

    The file holds exactly the payload :func:`save_index` writes for the
    engine's ``index_arrays()``, but no whole-index ``int64`` column is
    built: each ``.npy`` member is streamed from the CSR arrays in blocks
    of ``_WRITE_BLOCK`` entries, so a write adds well under a byte per
    entry to the process's peak.
    """

    def cells(lo: int, hi: int) -> np.ndarray:
        first = int(np.searchsorted(cell_bounds, lo, side="right")) - 1
        last = int(np.searchsorted(cell_bounds, hi, side="left"))
        spans = np.clip(cell_bounds[first : last + 1], lo, hi)
        return np.repeat(cell_ids[first:last], np.diff(spans))

    return _write_payload(
        cache_dir,
        key,
        len(rows),
        [cells, lambda lo, hi: rows[lo:hi], lambda lo, hi: vals[lo:hi]],
    )


def _write_payload(cache_dir: str | Path, key: str, n: int, columns) -> Path:
    """Write the ``.npz`` payload of ``n`` entries from ``columns``.

    ``columns`` holds one ``(lo, hi) -> block`` reader per payload array.
    Each member gets a standard ``.npy`` header and its data block by
    block, stored uncompressed as ``np.savez`` stores it, so ``np.load``
    reads the file like any other.  The write goes to a temp file *inside
    the cache directory* first -- same filesystem by construction, so
    ``os.replace`` is an atomic rename (never the cross-device ``EXDEV`` a
    ``TMPDIR`` temp file could hit) and a crash mid-write can never leave
    a half-written file under the final name.  A crash between write and
    rename leaves only a ``*.tmp`` file, which no reader ever opens.
    """
    from numpy.lib import format as npy_format

    target = cache_path(cache_dir, key)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(
            fh, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
        ) as archive:
            for name, dtype, column in zip(_PAYLOAD_KEYS, _PAYLOAD_DTYPES, columns):
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    npy_format.write_array_header_1_0(
                        member,
                        {
                            "descr": npy_format.dtype_to_descr(dtype),
                            "fortran_order": False,
                            "shape": (n,),
                        },
                    )
                    for lo in range(0, n, _WRITE_BLOCK):
                        block = column(lo, min(lo + _WRITE_BLOCK, n))
                        member.write(np.ascontiguousarray(block, dtype=dtype))
        faults.fire("index_cache.save", tmp=tmp_name, target=str(target))
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    metrics.counter("index.cache.write").inc()
    _log.debug(
        "index cache write",
        extra={"path": str(target), "n_entries": int(n)},
    )
    return target


def load_index(
    cache_dir: str | Path,
    key: str,
    *,
    n_rows: int | None = None,
    n_cells: int | None = None,
    floor: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Load the flat index arrays for ``key``, or ``None`` on any failure.

    Missing, truncated, corrupted or wrong-shape files are all treated as
    cache misses; the caller rebuilds and overwrites, and so are payloads
    whose entries are not in strictly increasing (cell, row) order -- a
    duplicated entry would otherwise count twice in every NM.  ``n_rows`` /
    ``n_cells`` optionally bound the valid row / cell ranges: a file whose
    payload parses but points outside the dataset or grid (a key collision
    or bit rot that survived the zip CRC) is rejected as corrupt rather
    than handed to the engine, where an out-of-range row would raise an
    ``IndexError`` deep inside index installation -- or worse, silently
    score against the wrong trajectories.  ``floor`` (the engine's
    log-space floor) likewise bounds the values: a log-probability outside
    ``[floor, 0]`` is rejected as corrupt.
    """
    target = cache_path(cache_dir, key)
    try:
        with np.load(target) as payload:
            arrays = tuple(np.asarray(payload[k]) for k in _PAYLOAD_KEYS)
    except FileNotFoundError:
        metrics.counter("index.cache.miss").inc()
        _log.debug("index cache miss", extra={"path": str(target)})
        return None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        return _corrupt(target, f"unreadable: {exc}")
    cells, rows, vals = arrays
    if not (cells.ndim == rows.ndim == vals.ndim == 1):
        return _corrupt(target, "arrays are not one-dimensional")
    if not (len(cells) == len(rows) == len(vals)):
        return _corrupt(target, "array lengths disagree")
    if cells.dtype.kind != "i" or rows.dtype.kind != "i" or vals.dtype.kind != "f":
        return _corrupt(target, "unexpected array dtypes")
    if len(cells):
        if cells.min() < 0 or (n_cells is not None and cells.max() >= n_cells):
            return _corrupt(target, "cell ids out of range")
        if rows.min() < 0 or (n_rows is not None and rows.max() >= n_rows):
            return _corrupt(target, "row indices out of range")
        if not np.isfinite(vals).all():
            return _corrupt(target, "non-finite log-probabilities")
        if floor is not None and not values_in_range(vals, floor):
            return _corrupt(target, "log-probabilities outside [floor, 0]")
        # The writer only ever saves an engine's sorted, unique entries, so
        # keys that fail to increase strictly (a repeated or reordered
        # entry) mean the payload is not one it wrote.
        if not keys_strictly_increasing(cells, rows):
            return _corrupt(target, "(cell, row) keys not strictly increasing")
    metrics.counter("index.cache.hit").inc()
    _log.info(
        "index cache hit",
        extra={"path": str(target), "n_entries": int(len(cells))},
    )
    return cells, rows, vals


def values_in_range(vals: np.ndarray, floor: float) -> bool:
    """Whether every log-probability lies in ``[floor, 0]``."""
    return not len(vals) or bool(floor <= vals.min() and vals.max() <= 0.0)


def keys_strictly_increasing(cells: np.ndarray, rows: np.ndarray) -> bool:
    """Whether entry keys are in (cell, row) order with no pair repeated.

    Compares neighbours directly rather than through ``np.diff``: one
    byte per entry of temporaries instead of an ``int64`` per column.
    """
    same_cell = cells[1:] == cells[:-1]
    return bool(
        np.all((cells[1:] > cells[:-1]) | (same_cell & (rows[1:] > rows[:-1])))
    )


def _corrupt(target: Path, reason: str) -> None:
    """Count and log a present-but-rejected cache file, returning a miss."""
    metrics.counter("index.cache.corrupt").inc()
    _log.warning(
        "index cache file rejected; falling back to a fresh build",
        extra={"path": str(target), "reason": reason},
    )
    return None
