"""Persistent on-disk cache of the engine's sparse probability index.

Building the index is the expensive part of engine construction: every
snapshot neighbourhood is enumerated and ``Prob`` evaluated per (snapshot,
cell) pair.  The *result* however is the engine's CSR index
(:meth:`~repro.core.engine.NMEngine.index_csr`): the active cells
(``int32``), each cell's entry bounds (``int64``), and per entry an
``int32`` row and a ``float64`` log-probability -- 12 bytes per entry --
which depend only on the dataset geometry, the grid and the
index-affecting knobs of :class:`~repro.core.engine.EngineConfig`.  This
module persists those four arrays, exactly as the engine holds them, as
one ``.npz`` per configuration under a cache directory, so repeated
mining/experiment runs skip the build entirely.  A build writes them
straight from its index and a warm load hands them to the engine as they
are read: nothing is converted either way.

Cache key
---------
One key function, :func:`span_cache_key`: a SHA-256 over

* a format-version tag (:data:`CACHE_FORMAT_VERSION`, bumped whenever the
  stored layout changes, so files of an older layout miss under their old
  keys and are rebuilt once),
* the dataset fingerprint (:func:`dataset_fingerprint`: every
  trajectory's means, sigmas and length, so *any* change to the dataset,
  including reordering, changes it) plus a trajectory span ``[lo, hi)``
  of that dataset,
* the grid extent and resolution,
* the index-affecting config fields: ``delta``, ``prob_model``,
  ``min_prob``, ``radius_sigmas`` and ``max_cells_per_snapshot``,
* the ``Prob`` kernel identity when it is not the scipy reference
  (compiled libm-``erf`` builds differ by a couple of ULPs).

A whole-dataset index is the span ``[0, len(dataset))``
(:func:`dataset_key`), so a serial engine, a serving snapshot and a
one-span parallel engine over the same data share one entry; a span
engine of :class:`~repro.core.parallel.ParallelNMEngine` keeps its own
entry, with span-local row indices.  Only builds write entries: an
engine that adopts a CSR (:mod:`repro.core.incremental`'s folds, the
live ingest engine) neither reads nor writes the cache.

Knobs that do not change the stored entries (``cache_dir`` itself, and
the evaluation ``backend`` apart from its ``Prob`` kernel tag) are
deliberately excluded.

Robustness: files are written atomically (temp file + ``os.replace``) and
:func:`load_index` treats *any* unreadable, truncated or wrong-format file
as a miss, and so is a payload no build could have written -- the engine
then falls back to a fresh build and overwrites the bad file.  These are
the only checks of index bytes that come from outside the process.

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

from repro.core import kernels
from repro.obs import logs, metrics
from repro.testkit import faults

_log = logs.get_logger("index_cache")

#: Bump when the stored array layout changes; part of the cache key.
CACHE_FORMAT_VERSION = 2

#: The CSR arrays stored in the ``.npz`` payload, in order, with their dtypes.
_PAYLOAD = (
    ("cell_ids", np.dtype(np.int32)),
    ("cell_bounds", np.dtype(np.int64)),
    ("rows", np.dtype(np.int32)),
    ("vals", np.dtype(np.float64)),
)


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


def dataset_key(dataset, grid, config) -> str:
    """Cache key of ``dataset``'s whole-dataset index, built by ``config``.

    The span ``[0, len(dataset))`` under the ``Prob`` kernel ``config``
    resolves to (:func:`repro.core.kernels.prob_kernel_tag`): the entry a
    serial engine and a serving snapshot share.
    """
    return span_cache_key(
        dataset_fingerprint(dataset),
        0,
        len(dataset),
        grid,
        config,
        kernel_tag=kernels.prob_kernel_tag(config),
    )


def save_index(
    cache_dir: str | Path,
    key: str,
    cell_ids: np.ndarray,
    cell_bounds: np.ndarray,
    rows: np.ndarray,
    vals: np.ndarray,
) -> Path:
    """Atomically persist a CSR index (:meth:`NMEngine.index_csr`) under ``cache_dir``.

    Each array must already have its payload dtype (``int32`` cell ids,
    ``int64`` bounds, ``int32`` rows, ``float64`` values) and the lengths
    must agree; otherwise ``ValueError`` is raised and nothing is written.
    Each ``.npy`` member is written straight from its array: no entry is
    converted and no array copied.
    """
    arrays = tuple(np.asarray(a) for a in (cell_ids, cell_bounds, rows, vals))
    fault = _layout_fault(arrays)
    if fault is not None:
        raise ValueError(f"not a CSR index: {fault}")
    return _write_payload(cache_dir, key, arrays)


def _write_payload(cache_dir: str | Path, key: str, arrays) -> Path:
    """Write the ``.npz`` payload of the four CSR ``arrays``.

    Each member gets a standard ``.npy`` header and its array's bytes,
    stored uncompressed as ``np.savez`` stores it, so ``np.load`` reads
    the file like any other.  The write goes to a temp file *inside the
    cache directory* first -- same filesystem by construction, so
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
            for (name, dtype), array in zip(_PAYLOAD, arrays):
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    npy_format.write_array_header_1_0(
                        member,
                        {
                            "descr": npy_format.dtype_to_descr(dtype),
                            "fortran_order": False,
                            "shape": array.shape,
                        },
                    )
                    member.write(np.ascontiguousarray(array))
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
        extra={"path": str(target), "n_entries": len(arrays[2])},
    )
    return target


def load_index(
    cache_dir: str | Path,
    key: str,
    *,
    n_rows: int,
    n_cells: int,
    floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Load the CSR index ``(cell_ids, cell_bounds, rows, vals)`` for ``key``.

    Returns ``None`` on any failure: a missing file is a miss, and an
    unreadable one, or one whose payload no build could have written, is
    counted as corrupt; the caller rebuilds and overwrites.  ``n_rows``,
    ``n_cells`` and ``floor`` (the engine's log-space floor) bound the
    rows, cells and values a payload may hold: an out-of-range row would
    otherwise score against the wrong trajectories (or raise deep inside
    installation), a repeated entry would count twice in every NM, and a
    value outside ``[floor, 0]`` scores differently on the two backends.
    """
    target = cache_path(cache_dir, key)
    try:
        # Opened here, not by np.load, which leaves its own handle open
        # when the zip directory does not parse.
        with open(target, "rb") as fh, np.load(fh) as payload:
            arrays = tuple(np.asarray(payload[name]) for name, _ in _PAYLOAD)
    except FileNotFoundError:
        metrics.counter("index.cache.miss").inc()
        _log.debug("index cache miss", extra={"path": str(target)})
        return None
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        return _corrupt(target, f"unreadable: {exc}")
    fault = _layout_fault(arrays) or _content_fault(arrays, n_rows, n_cells, floor)
    if fault is not None:
        return _corrupt(target, fault)
    metrics.counter("index.cache.hit").inc()
    _log.info(
        "index cache hit",
        extra={"path": str(target), "n_entries": int(len(arrays[2]))},
    )
    return arrays


def _layout_fault(arrays) -> str | None:
    """Why four arrays do not have a CSR index's dtypes and lengths, or ``None``."""
    for (name, dtype), array in zip(_PAYLOAD, arrays):
        if array.ndim != 1 or array.dtype != dtype:
            return f"{name} is a {array.ndim}-D {array.dtype} array, not 1-D {dtype}"
    cell_ids, cell_bounds, rows, vals = arrays
    if len(cell_bounds) != len(cell_ids) + 1 or len(rows) != len(vals):
        return "array lengths disagree"
    if cell_bounds[0] != 0 or cell_bounds[-1] != len(rows):
        return "cell bounds do not span the entries"
    return None


def _content_fault(arrays, n_rows: int, n_cells: int, floor: float) -> str | None:
    """Why a CSR index's contents are not ones a build wrote, or ``None``.

    The per-entry checks allocate no per-entry temporary beyond one byte
    (the within-run row order).
    """
    cell_ids, cell_bounds, rows, vals = arrays
    if not np.all(cell_bounds[1:] > cell_bounds[:-1]):
        return "cell bounds not strictly increasing"
    if not np.all(cell_ids[1:] > cell_ids[:-1]):
        return "cell ids not strictly increasing"
    if not len(rows):
        return None
    if cell_ids[0] < 0 or cell_ids[-1] >= n_cells:
        return "cell ids out of range"
    if rows.min() < 0 or rows.max() >= n_rows:
        return "row indices out of range"
    # A repeated or reordered entry within a cell's run; each run's first
    # entry follows the previous cell's last, so it is exempt.
    increasing = rows[1:] > rows[:-1]
    increasing[cell_bounds[1:-1] - 1] = True
    if not increasing.all():
        return "rows not strictly increasing within a cell"
    lo, hi = vals.min(), vals.max()  # NaN propagates to both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return "non-finite log-probabilities"
    if not floor <= lo <= hi <= 0.0:
        return "log-probabilities outside [floor, 0]"
    return None


def _corrupt(target: Path, reason: str) -> None:
    """Count and log a present-but-rejected cache file, returning a miss."""
    metrics.counter("index.cache.corrupt").inc()
    _log.warning(
        "index cache file rejected; falling back to a fresh build",
        extra={"path": str(target), "reason": reason},
    )
    return None
