"""The ``.tjc`` columnar on-disk trajectory store.

Layout (single file, written atomically)::

    MAGIC                                   8 bytes, b"TJC1\\r\\n\\x1a\\n"
    <xy column chunk blobs, back to back>
    <sigma column chunk blobs>
    <timestamp column chunk blobs>          optional
    <lengths | start_times | dts columns>   one int64/float64 blob each
    <object_ids>                            UTF-8 JSON array of strings
    <footer JSON>                           UTF-8
    footer length                           uint64 little-endian
    MAGIC                                   8 bytes (trailing sentinel)

The footer (a parquet-style trailer, so the writer streams in one pass)
carries the format version, dataset metadata, per-column blob addresses,
the chunk table, summary statistics (bounding box, sigma extrema) and a
``content_hash`` that equals
:func:`repro.core.index_cache.dataset_fingerprint` of the decoded dataset
-- one identity shared by the index cache, manifests and span cache keys.

Opening a store costs O(footer): the trajectory table (lengths, start
times, dts) is read with one ``pread`` per column on first use, and row
columns are only touched when sliced.  Row data comes in *chunks* --
contiguous row ranges aligned to trajectory boundaries -- so each chunk
decodes independently:

* positions: raw little-endian float64 (bit-exact, the default) or
  delta-encoded quantised int32 (``positions="q32"``, lossy, opt-in);
* sigmas: raw float64;
* timestamps (optional): delta-encoded int64 ticks of
  ``start_time + i * dt``;
* each chunk blob optionally zlib-compressed (``compression="zlib"``).

Every codec combination reads rows one way: bounded ``pread`` + decode
of the chunks a row range covers, so a reader maps nothing of the file.
See ``docs/STORAGE.md`` for the full spec.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from repro.storage import encode
from repro.trajectory.trajectory import UncertainTrajectory

MAGIC = b"TJC1\r\n\x1a\n"
FORMAT_NAME = "repro.tjc"
FORMAT_VERSION = 1

#: Conventional file suffix (the CLI and loaders sniff the magic, not this).
STORE_SUFFIX = ".tjc"

#: Target rows per chunk; chunks grow past this to the next trajectory
#: boundary, so one chunk always holds whole trajectories.
DEFAULT_CHUNK_ROWS = 1 << 18

_ALIGN = 64
_POSITION_CODECS = ("f64", "q32")


class StoreFormatError(ValueError):
    """The file is not a readable ``.tjc`` store (bad magic, version, footer)."""


def is_store_path(path: str | Path) -> bool:
    """True when ``path`` exists and starts with the ``.tjc`` magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _tolist(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


# -- writer ------------------------------------------------------------------------


class StoreWriter:
    """Streaming, single-pass ``.tjc`` writer with an atomic commit.

    Trajectories are appended one at a time (nothing is held beyond the
    current chunk buffer plus O(n_trajectories) scalars), column blobs are
    spooled to temp files next to the destination, and :meth:`close`
    stitches the final file and ``os.replace``-renames it into place --
    a crash mid-write never leaves a partial store under the final name.

    Use as a context manager: a clean exit commits, an exception aborts
    and removes every temp file.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        metadata: dict | None = None,
        compression: str = "none",
        positions: str = "f64",
        quant_scale: float | None = None,
        quant_origin: tuple[float, float] = (0.0, 0.0),
        store_times: bool = False,
        tick: float = 1e-6,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if compression not in encode.COMPRESSIONS:
            raise ValueError(
                f"unknown compression {compression!r}; expected one of "
                f"{encode.COMPRESSIONS}"
            )
        if positions not in _POSITION_CODECS:
            raise ValueError(
                f"unknown position codec {positions!r}; expected one of "
                f"{_POSITION_CODECS}"
            )
        if positions == "q32":
            if quant_scale is None:
                raise ValueError("positions='q32' requires quant_scale")
            if not (np.isfinite(quant_scale) and quant_scale > 0):
                raise ValueError("quant_scale must be a positive finite float")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        if store_times and not (np.isfinite(tick) and tick > 0):
            raise ValueError("tick must be a positive finite float")
        self.path = Path(path)
        self.metadata = dict(metadata or {})
        self.compression = compression
        self.positions = positions
        self.quant_scale = None if quant_scale is None else float(quant_scale)
        self.quant_origin = (float(quant_origin[0]), float(quant_origin[1]))
        self.store_times = bool(store_times)
        self.tick = float(tick)
        self.chunk_rows = int(chunk_rows)

        self._lengths: list[int] = []
        self._start_times: list[float] = []
        self._dts: list[float] = []
        self._object_ids: list[str] = []
        self._chunks: list[dict] = []
        self._stats = {
            "min_x": np.inf, "max_x": -np.inf,
            "min_y": np.inf, "max_y": -np.inf,
            "min_sigma": np.inf, "max_sigma": -np.inf,
        }
        # Current chunk buffer.
        self._buf_means: list[np.ndarray] = []
        self._buf_sigmas: list[np.ndarray] = []
        self._buf_lengths: list[int] = []
        self._buf_times: list[np.ndarray] = []
        self._buf_rows = 0
        self._rows_flushed = 0

        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._spools: dict[str, io.BufferedWriter] = {}
        self._spool_paths: dict[str, Path] = {}
        columns = ["xy", "sigma"] + (["ts"] if self.store_times else [])
        try:
            for name in columns:
                fd, tmp = tempfile.mkstemp(
                    dir=self.path.parent, prefix=self.path.name + ".", suffix=f".{name}.tmp"
                )
                self._spools[name] = os.fdopen(fd, "wb")
                self._spool_paths[name] = Path(tmp)
        except BaseException:
            self.abort()
            raise
        self._closed = False

    # -- appending -----------------------------------------------------------------

    def append(self, traj: UncertainTrajectory) -> None:
        """Append one trajectory (already-validated value object)."""
        self.append_arrays(
            traj.means,
            traj.sigmas,
            object_id=traj.object_id,
            start_time=traj.start_time,
            dt=traj.dt,
        )

    def append_arrays(
        self,
        means: np.ndarray,
        sigmas: np.ndarray | float,
        *,
        object_id: str = "",
        start_time: float = 0.0,
        dt: float = 1.0,
    ) -> None:
        """Append one trajectory from raw arrays (same validation as the type).

        The store must never contain data :class:`UncertainTrajectory`
        would refuse, so the checks mirror its constructor exactly.
        """
        if self._closed:
            raise RuntimeError("StoreWriter is closed")
        means = np.ascontiguousarray(means, dtype=np.float64)
        if means.ndim != 2 or means.shape[1] != 2:
            raise ValueError(f"means must have shape (n, 2), got {means.shape}")
        n = means.shape[0]
        sigmas_arr = np.ascontiguousarray(
            np.broadcast_to(np.asarray(sigmas, dtype=np.float64), (n,))
        )
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if n and (not np.all(np.isfinite(sigmas_arr)) or np.any(sigmas_arr <= 0)):
            raise ValueError("sigmas must be positive and finite")
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError("dt must be a positive finite float")
        if not np.isfinite(start_time):
            raise ValueError("start_time must be finite")

        if self.positions == "q32":
            # Store exactly what readers will decode: quantise immediately so
            # the running stats and the content hash describe the file.
            q = encode.quantise(means, np.asarray(self.quant_origin), self.quant_scale)
            means = encode.dequantise(q, np.asarray(self.quant_origin), self.quant_scale)

        if n:
            self._stats["min_x"] = min(self._stats["min_x"], float(means[:, 0].min()))
            self._stats["max_x"] = max(self._stats["max_x"], float(means[:, 0].max()))
            self._stats["min_y"] = min(self._stats["min_y"], float(means[:, 1].min()))
            self._stats["max_y"] = max(self._stats["max_y"], float(means[:, 1].max()))
            self._stats["min_sigma"] = min(self._stats["min_sigma"], float(sigmas_arr.min()))
            self._stats["max_sigma"] = max(self._stats["max_sigma"], float(sigmas_arr.max()))

        self._lengths.append(n)
        self._start_times.append(float(start_time))
        self._dts.append(float(dt))
        self._object_ids.append(str(object_id))
        self._buf_means.append(means)
        self._buf_sigmas.append(sigmas_arr)
        self._buf_lengths.append(n)
        if self.store_times:
            ticks = np.rint(
                (float(start_time) + np.arange(n, dtype=np.float64) * float(dt))
                / self.tick
            ).astype(np.int64)
            self._buf_times.append(ticks)
        self._buf_rows += n
        if self._buf_rows >= self.chunk_rows:
            self._flush_chunk()

    def extend(self, trajectories) -> None:
        """Append every trajectory of an iterable (e.g. a dataset)."""
        for traj in trajectories:
            self.append(traj)

    # -- chunk plumbing ------------------------------------------------------------

    def _spool_blob(self, column: str, raw: bytes) -> dict:
        blob = encode.compress_blob(raw, self.compression)
        spool = self._spools[column]
        offset = spool.tell()
        spool.write(blob)
        return {"offset": offset, "nbytes": len(blob), "raw_nbytes": len(raw)}

    def _flush_chunk(self) -> None:
        if self._buf_rows == 0:
            return
        lengths = np.asarray(self._buf_lengths, dtype=np.int64)
        means = (
            np.concatenate(self._buf_means, axis=0)
            if self._buf_means
            else np.empty((0, 2))
        )
        sigmas = (
            np.concatenate(self._buf_sigmas) if self._buf_sigmas else np.empty(0)
        )
        if self.positions == "q32":
            q = encode.quantise(means, np.asarray(self.quant_origin), self.quant_scale)
            xy_raw = _tolist(encode.delta_encode(q, lengths).astype("<i4"))
        else:
            xy_raw = _tolist(means.astype("<f8", copy=False))
        chunk = {
            "traj_lo": len(self._lengths) - len(self._buf_lengths),
            "traj_hi": len(self._lengths),
            "row_lo": self._rows_flushed,
            "row_hi": self._rows_flushed + self._buf_rows,
            "xy": self._spool_blob("xy", xy_raw),
            "sigma": self._spool_blob("sigma", _tolist(sigmas.astype("<f8", copy=False))),
        }
        if self.store_times:
            ticks = (
                np.concatenate(self._buf_times)
                if self._buf_times
                else np.empty(0, dtype=np.int64)
            )
            chunk["ts"] = self._spool_blob(
                "ts", _tolist(encode.delta_encode(ticks, lengths).astype("<i8"))
            )
        self._chunks.append(chunk)
        self._rows_flushed += self._buf_rows
        self._buf_means.clear()
        self._buf_sigmas.clear()
        self._buf_lengths.clear()
        self._buf_times.clear()
        self._buf_rows = 0

    # -- finalisation --------------------------------------------------------------

    def _content_hash(self) -> str:
        """``dataset_fingerprint`` of the decoded dataset, streamed from spools.

        Re-reads the spooled chunks (the trajectory count is only known
        now) and feeds the *decoded* per-trajectory arrays through exactly
        the algorithm :func:`repro.core.index_cache.dataset_fingerprint`
        uses, so a store-backed dataset and its in-RAM twin share cache
        keys without ever materialising the whole dataset here.
        """
        import hashlib

        from repro.core.index_cache import _hash_update_array  # deferred: layering

        h = hashlib.sha256()
        h.update(f"n={len(self._lengths)}".encode())
        all_lengths = np.asarray(self._lengths, dtype=np.int64)
        with open(self._spool_paths["xy"], "rb") as xy_fh, open(
            self._spool_paths["sigma"], "rb"
        ) as sg_fh:
            for chunk in self._chunks:
                lengths = all_lengths[chunk["traj_lo"] : chunk["traj_hi"]]
                means, sigmas = _decode_chunk_blobs(
                    _read_blob(xy_fh, chunk["xy"]),
                    _read_blob(sg_fh, chunk["sigma"]),
                    chunk,
                    lengths,
                    compression=self.compression,
                    positions=self.positions,
                    quant_origin=self.quant_origin,
                    quant_scale=self.quant_scale,
                )
                row = 0
                for n in lengths:
                    _hash_update_array(h, means[row : row + n])
                    _hash_update_array(h, sigmas[row : row + n])
                    row += n
        return h.hexdigest()

    def close(self) -> Path:
        """Flush, stitch and atomically commit the store; returns its path."""
        if self._closed:
            return self.path
        self._flush_chunk()
        for spool in self._spools.values():
            spool.flush()
        content_hash = self._content_hash()
        for spool in self._spools.values():
            spool.close()

        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(MAGIC)

                def _align() -> int:
                    pad = (-out.tell()) % _ALIGN
                    if pad:
                        out.write(b"\0" * pad)
                    return out.tell()

                column_bases: dict[str, int] = {}
                for name, spool_path in self._spool_paths.items():
                    column_bases[name] = _align()
                    with open(spool_path, "rb") as src:
                        while True:
                            block = src.read(1 << 20)
                            if not block:
                                break
                            out.write(block)

                chunks_out = []
                for chunk in self._chunks:
                    entry = {
                        k: chunk[k]
                        for k in ("traj_lo", "traj_hi", "row_lo", "row_hi")
                    }
                    for name in self._spool_paths:
                        ref = dict(chunk[name])
                        ref["offset"] += column_bases[name]
                        entry[name] = ref
                    chunks_out.append(entry)

                def _blob(data: bytes) -> dict:
                    offset = _align()
                    out.write(data)
                    return {"offset": offset, "nbytes": len(data), "raw_nbytes": len(data)}

                traj_columns = {
                    "lengths": _blob(_tolist(np.asarray(self._lengths, dtype="<i8"))),
                    "start_times": _blob(
                        _tolist(np.asarray(self._start_times, dtype="<f8"))
                    ),
                    "dts": _blob(_tolist(np.asarray(self._dts, dtype="<f8"))),
                    "object_ids": _blob(
                        json.dumps(self._object_ids).encode("utf-8")
                    ),
                }

                stats = {
                    k: (None if not np.isfinite(v) else v)
                    for k, v in self._stats.items()
                }
                footer = {
                    "format": FORMAT_NAME,
                    "version": FORMAT_VERSION,
                    "metadata": self.metadata,
                    "n_trajectories": len(self._lengths),
                    "total_snapshots": self._rows_flushed,
                    "compression": self.compression,
                    "positions": self.positions,
                    "quant": (
                        None
                        if self.positions != "q32"
                        else {"scale": self.quant_scale, "origin": list(self.quant_origin)}
                    ),
                    "timestamps": self.store_times,
                    "tick": self.tick if self.store_times else None,
                    "stats": stats,
                    "content_hash": content_hash,
                    "traj_columns": traj_columns,
                    "chunks": chunks_out,
                }
                footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
                out.write(footer_bytes)
                out.write(struct.pack("<Q", len(footer_bytes)))
                out.write(MAGIC)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        finally:
            self._cleanup_spools()
            self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard everything written so far (temp files removed, no commit)."""
        self._cleanup_spools()
        self._closed = True

    def _cleanup_spools(self) -> None:
        for spool in getattr(self, "_spools", {}).values():
            try:
                spool.close()
            except OSError:
                pass
        for tmp in getattr(self, "_spool_paths", {}).values():
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_store(dataset, path: str | Path, **writer_kwargs) -> Path:
    """Write a whole :class:`~repro.trajectory.dataset.TrajectoryDataset`.

    Metadata defaults to the dataset's own; any :class:`StoreWriter`
    keyword is accepted.
    """
    writer_kwargs.setdefault("metadata", dataset.metadata)
    with StoreWriter(path, **writer_kwargs) as writer:
        writer.extend(dataset)
    return Path(path)


# -- chunk decode helpers (shared by writer hash + reader) --------------------------


def _read_blob(fh, ref: dict) -> bytes:
    fh.seek(ref["offset"])
    data = fh.read(ref["nbytes"])
    if len(data) != ref["nbytes"]:
        raise StoreFormatError("truncated chunk blob")
    return data


def _decode_chunk_blobs(
    xy_blob: bytes,
    sigma_blob: bytes,
    chunk: dict,
    lengths: np.ndarray,
    *,
    compression: str,
    positions: str,
    quant_origin,
    quant_scale,
) -> tuple[np.ndarray, np.ndarray]:
    n_rows = chunk["row_hi"] - chunk["row_lo"]
    xy_raw = encode.decompress_blob(xy_blob, compression, chunk["xy"]["raw_nbytes"])
    sigma_raw = encode.decompress_blob(
        sigma_blob, compression, chunk["sigma"]["raw_nbytes"]
    )
    if positions == "q32":
        deltas = np.frombuffer(xy_raw, dtype="<i4").reshape(n_rows, 2)
        q = encode.delta_decode(deltas, lengths)
        means = encode.dequantise(q, np.asarray(quant_origin), quant_scale)
    else:
        means = np.frombuffer(xy_raw, dtype="<f8").reshape(n_rows, 2).copy()
    sigmas = np.frombuffer(sigma_raw, dtype="<f8").copy()
    if len(sigmas) != n_rows:
        raise StoreFormatError("sigma chunk length disagrees with the chunk table")
    return np.ascontiguousarray(means, dtype=np.float64), sigmas


# -- reader ------------------------------------------------------------------------


class TrajectoryStore:
    """Read side of the ``.tjc`` format; open cost is O(footer).

    Rows are read by bounded ``pread`` + decode of the chunks a row range
    covers, for every codec, and a two-chunk decoded cache serves
    sequential access; the streaming engine reads one row chunk at a time
    this way, so its peak RSS stays at one chunk.  Nothing of the file is
    memory-mapped.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        size = self.path.stat().st_size
        if size < len(MAGIC) * 2 + 8:
            raise StoreFormatError(f"{self.path}: too small to be a .tjc store")
        self._fh = open(self.path, "rb")
        try:
            head = self._fh.read(len(MAGIC))
            if head != MAGIC:
                raise StoreFormatError(f"{self.path}: not a .tjc store (bad magic)")
            self._fh.seek(size - len(MAGIC) - 8)
            trailer = self._fh.read(8 + len(MAGIC))
            if trailer[8:] != MAGIC:
                raise StoreFormatError(
                    f"{self.path}: truncated or corrupt store (bad trailing magic)"
                )
            (footer_len,) = struct.unpack("<Q", trailer[:8])
            footer_start = size - len(MAGIC) - 8 - footer_len
            if footer_len <= 0 or footer_start < len(MAGIC):
                raise StoreFormatError(f"{self.path}: corrupt footer length")
            self._fh.seek(footer_start)
            try:
                footer = json.loads(self._fh.read(footer_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise StoreFormatError(f"{self.path}: unreadable footer: {exc}") from exc
            if not isinstance(footer, dict) or footer.get("format") != FORMAT_NAME:
                raise StoreFormatError(f"{self.path}: not a {FORMAT_NAME} file")
            if footer.get("version") != FORMAT_VERSION:
                raise StoreFormatError(
                    f"{self.path}: unsupported {FORMAT_NAME} version "
                    f"{footer.get('version')!r} (reader supports {FORMAT_VERSION})"
                )
            self._footer = footer
        except BaseException:
            self._fh.close()
            raise
        self.size_bytes = size
        self.metadata: dict = dict(footer.get("metadata") or {})
        self.n_trajectories = int(footer["n_trajectories"])
        self.total_snapshots = int(footer["total_snapshots"])
        self.compression = str(footer["compression"])
        self.positions = str(footer["positions"])
        self.quant = footer.get("quant")
        self.has_timestamps = bool(footer.get("timestamps"))
        self.tick = footer.get("tick")
        self.stats: dict = dict(footer.get("stats") or {})
        self.content_hash = str(footer["content_hash"])
        self.format_version = int(footer["version"])
        self._chunks: list[dict] = list(footer["chunks"])
        self._chunk_row_los = np.asarray(
            [c["row_lo"] for c in self._chunks], dtype=np.int64
        )
        self._traj_columns = footer["traj_columns"]
        self._lengths: np.ndarray | None = None
        self._row_offsets: np.ndarray | None = None
        self._start_times: np.ndarray | None = None
        self._dts: np.ndarray | None = None
        self._object_ids: list[str] | None = None
        # Tiny decoded-chunk cache so per-trajectory iteration does not
        # re-read (and re-inflate) its chunk every call.
        self._chunk_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Drop the file handle and the decoded columns (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._lengths = None
        self._row_offsets = None
        self._start_times = None
        self._dts = None
        self._object_ids = None
        self._chunk_cache.clear()
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "TrajectoryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TrajectoryStore({self.path.name!r}, {self.n_trajectories} trajectories, "
            f"{self.total_snapshots} snapshots, {self.compression}/{self.positions})"
        )

    # -- trajectory table ----------------------------------------------------------

    def _traj_column(self, name: str, dtype: str) -> np.ndarray:
        return np.frombuffer(self._pread(self._traj_columns[name]), dtype=dtype)

    @property
    def lengths(self) -> np.ndarray:
        """Per-trajectory snapshot counts (int64, read on first use)."""
        if self._lengths is None:
            self._lengths = self._traj_column("lengths", "<i8")
        return self._lengths

    @property
    def row_offsets(self) -> np.ndarray:
        """Global row offset of each trajectory plus a final total sentinel."""
        if self._row_offsets is None:
            self._row_offsets = np.concatenate(
                [[0], np.cumsum(np.asarray(self.lengths, dtype=np.int64))]
            ).astype(np.int64)
        return self._row_offsets

    @property
    def start_times(self) -> np.ndarray:
        if self._start_times is None:
            self._start_times = self._traj_column("start_times", "<f8")
        return self._start_times

    @property
    def dts(self) -> np.ndarray:
        if self._dts is None:
            self._dts = self._traj_column("dts", "<f8")
        return self._dts

    @property
    def object_ids(self) -> list[str]:
        if self._object_ids is None:
            ref = self._traj_columns["object_ids"]
            raw = self._pread(ref)
            ids = json.loads(raw.decode("utf-8"))
            if not isinstance(ids, list) or len(ids) != self.n_trajectories:
                raise StoreFormatError(f"{self.path}: corrupt object_ids column")
            self._object_ids = [str(i) for i in ids]
        return self._object_ids

    # -- row columns ---------------------------------------------------------------

    def _decoded_chunk(self, ci: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._chunk_cache.get(ci)
        if cached is not None:
            return cached
        chunk = self._chunks[ci]
        lengths = np.asarray(
            self.lengths[chunk["traj_lo"] : chunk["traj_hi"]], dtype=np.int64
        )
        quant = self.quant or {}
        decoded = _decode_chunk_blobs(
            self._pread(chunk["xy"]),
            self._pread(chunk["sigma"]),
            chunk,
            lengths,
            compression=self.compression,
            positions=self.positions,
            quant_origin=tuple(quant.get("origin", (0.0, 0.0))),
            quant_scale=quant.get("scale"),
        )
        self._chunk_cache[ci] = decoded
        while len(self._chunk_cache) > 2:
            self._chunk_cache.pop(next(iter(self._chunk_cache)))
        return decoded

    def _pread(self, ref: dict) -> bytes:
        data = os.pread(self._fh.fileno(), ref["nbytes"], ref["offset"])
        if len(data) != ref["nbytes"]:
            raise StoreFormatError(f"{self.path}: truncated chunk blob")
        return data

    def _check_rows(self, row_lo: int, row_hi: int) -> None:
        if not 0 <= row_lo <= row_hi <= self.total_snapshots:
            raise IndexError(
                f"row span [{row_lo}, {row_hi}) out of range "
                f"[0, {self.total_snapshots})"
            )

    def means(self, row_lo: int, row_hi: int) -> np.ndarray:
        """Snapshot means of global rows ``[row_lo, row_hi)`` as ``(n, 2)``."""
        self._check_rows(row_lo, row_hi)
        return self._gather(row_lo, row_hi, 0)

    def sigmas(self, row_lo: int, row_hi: int) -> np.ndarray:
        """Snapshot sigmas of global rows ``[row_lo, row_hi)``."""
        self._check_rows(row_lo, row_hi)
        return self._gather(row_lo, row_hi, 1)

    def _gather(self, row_lo: int, row_hi: int, which: int) -> np.ndarray:
        if row_hi == row_lo:
            return np.empty((0, 2)) if which == 0 else np.empty(0)
        first = int(np.searchsorted(self._chunk_row_los, row_lo, side="right")) - 1
        parts = []
        for ci in range(max(first, 0), len(self._chunks)):
            chunk = self._chunks[ci]
            if chunk["row_lo"] >= row_hi:
                break
            block = self._decoded_chunk(ci)[which]
            lo = max(row_lo, chunk["row_lo"]) - chunk["row_lo"]
            hi = min(row_hi, chunk["row_hi"]) - chunk["row_lo"]
            parts.append(block[lo:hi])
        return np.concatenate(parts, axis=0) if len(parts) != 1 else parts[0]

    def times(self, row_lo: int, row_hi: int) -> np.ndarray:
        """Decoded int64 timestamp ticks (requires ``timestamps`` column)."""
        if not self.has_timestamps:
            raise ValueError(f"{self.path.name} was written without timestamps")
        self._check_rows(row_lo, row_hi)
        first = int(np.searchsorted(self._chunk_row_los, row_lo, side="right")) - 1
        parts = []
        for ci in range(max(first, 0), len(self._chunks)):
            chunk = self._chunks[ci]
            if chunk["row_lo"] >= row_hi:
                break
            lengths = np.asarray(
                self.lengths[chunk["traj_lo"] : chunk["traj_hi"]], dtype=np.int64
            )
            raw = encode.decompress_blob(
                self._pread(chunk["ts"]), self.compression, chunk["ts"]["raw_nbytes"]
            )
            ticks = encode.delta_decode(np.frombuffer(raw, dtype="<i8"), lengths)
            lo = max(row_lo, chunk["row_lo"]) - chunk["row_lo"]
            hi = min(row_hi, chunk["row_hi"]) - chunk["row_lo"]
            parts.append(ticks[lo:hi])
        return (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.int64)
        )

    # -- trajectory access ---------------------------------------------------------

    def trajectory(self, index: int) -> UncertainTrajectory:
        """Materialise one trajectory (validating value object, copies).

        Sequential sweeps decode each column chunk once thanks to the
        chunk cache.
        """
        if not 0 <= index < self.n_trajectories:
            raise IndexError(
                f"trajectory index {index} out of range [0, {self.n_trajectories})"
            )
        offsets = self.row_offsets
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        return UncertainTrajectory(
            self.means(lo, hi),
            self.sigmas(lo, hi),
            object_id=self.object_ids[index],
            start_time=float(self.start_times[index]),
            dt=float(self.dts[index]),
        )

    def materialise(self, traj_lo: int = 0, traj_hi: int | None = None):
        """Eager :class:`~repro.trajectory.dataset.TrajectoryDataset` span."""
        from repro.trajectory.dataset import TrajectoryDataset

        traj_hi = self.n_trajectories if traj_hi is None else traj_hi
        if not 0 <= traj_lo <= traj_hi <= self.n_trajectories:
            raise IndexError(
                f"trajectory span [{traj_lo}, {traj_hi}) out of range "
                f"[0, {self.n_trajectories})"
            )
        return TrajectoryDataset(
            [self.trajectory(i) for i in range(traj_lo, traj_hi)],
            metadata=self.metadata,
        )

    def dataset(self):
        """Lazy store-backed dataset over every trajectory (see storage.dataset)."""
        from repro.storage.dataset import StoreDataset

        return StoreDataset(self, 0, self.n_trajectories)

    def span(self, traj_lo: int, traj_hi: int):
        """Lazy store-backed dataset over the trajectory span ``[lo, hi)``."""
        from repro.storage.dataset import StoreDataset

        return StoreDataset(self, traj_lo, traj_hi)

    def describe(self) -> dict:
        """Header summary (what ``repro store-info`` prints)."""
        return {
            "path": str(self.path),
            "format": FORMAT_NAME,
            "version": self.format_version,
            "size_bytes": self.size_bytes,
            "n_trajectories": self.n_trajectories,
            "total_snapshots": self.total_snapshots,
            "compression": self.compression,
            "positions": self.positions,
            "quant": self.quant,
            "timestamps": self.has_timestamps,
            "n_chunks": len(self._chunks),
            "content_hash": self.content_hash,
            "stats": self.stats,
            "metadata": self.metadata,
        }


def open_store(path: str | Path) -> TrajectoryStore:
    """Open a ``.tjc`` store for reading (O(footer) cost)."""
    return TrajectoryStore(path)
