"""Streaming converters that build ``.tjc`` stores from raw files.

Every converter here is single-pass and bounded-memory: rows flow from
the source file straight into a :class:`~repro.storage.columnar.
StoreWriter` (which spools chunks to disk), so converting a file larger
than RAM is routine.  Three sources are supported:

* :func:`convert_jsonl_to_store` -- the repo's canonical ``.jsonl``
  dataset format (synthetic generator output);
* :func:`convert_csv_to_store` -- the flat ``object_id,snapshot,x,y,sigma``
  CSV interchange format, provided rows arrive grouped by object;
* :func:`ingest_porto_csv` -- real-world ingestion in the shape of the
  Porto taxi dump (``TRIP_ID`` + ``POLYLINE`` JSON column, one GPS fix
  every 15 s), attaching a caller-supplied measurement sigma.

All converters return a summary dict (counts, skip statistics, output
path) that the CLI prints and drops into run manifests.
"""

from __future__ import annotations

import csv
import json
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from repro.storage.columnar import StoreWriter, is_store_path, open_store
from repro.trajectory.io import iter_dataset_jsonl

#: Porto taxi dumps sample one GPS fix every 15 seconds.
PORTO_DT_SECONDS = 15.0


def convert_jsonl_to_store(
    src: str | Path, dst: str | Path, **writer_kwargs
) -> dict:
    """Convert a ``.jsonl`` dataset to a ``.tjc`` store, streaming.

    Peak memory is one trajectory plus one write chunk regardless of file
    size.  Writer options (``compression=``, ``positions=``, ...) pass
    through; metadata defaults to the JSONL header's.
    """
    src = Path(src)
    stream = iter_dataset_jsonl(src)
    metadata = next(stream)
    writer_kwargs.setdefault("metadata", metadata)
    n_traj = 0
    n_rows = 0
    with StoreWriter(dst, **writer_kwargs) as writer:
        for traj in stream:
            writer.append(traj)
            n_traj += 1
            n_rows += len(traj)
    return _summary(dst, src, n_traj, n_rows)


@contextmanager
def open_as_store(path: str | Path):
    """Yield a store-backed dataset over ``path``, a ``.tjc`` store or JSONL.

    A JSONL dataset is first stream-converted to a temporary ``.tjc``
    (one pass, bounded memory) that lives as long as the context.  Its
    content hash is that of the data, so span-cache entries written for
    one conversion are hit by the next.
    """
    with ExitStack() as stack:
        path = Path(path)
        if not is_store_path(path):
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-"))
            converted = Path(tmp) / f"{path.stem}.tjc"
            convert_jsonl_to_store(path, converted)
            path = converted
        yield stack.enter_context(open_store(path)).dataset()


def convert_csv_to_store(
    src: str | Path, dst: str | Path, *, default_sigma: float | None = None, **writer_kwargs
) -> dict:
    """Convert a flat snapshot CSV (``object_id,snapshot,x,y,sigma``) to ``.tjc``.

    Streams one object at a time, so rows for each ``object_id`` must be
    contiguous (the natural export order); an interleaved file raises with
    the offending line rather than silently splitting an object in two.
    Rows within an object are sorted by snapshot index.  ``default_sigma``
    fills a missing/empty sigma column.
    """
    src = Path(src)
    n_traj = 0
    n_rows = 0
    with src.open("r", encoding="utf-8", newline="") as fh, StoreWriter(
        dst, **writer_kwargs
    ) as writer:
        reader = csv.DictReader(fh)
        required = {"object_id", "snapshot", "x", "y"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{src}: expected columns {sorted(required)} (+ sigma)")
        has_sigma = "sigma" in (reader.fieldnames or ())
        if not has_sigma and default_sigma is None:
            raise ValueError(
                f"{src}: no sigma column; pass default_sigma to assign one"
            )

        seen: set[str] = set()
        current_id: str | None = None
        rows: list[tuple[int, float, float, float]] = []

        def _flush() -> int:
            nonlocal n_traj
            if current_id is None:
                return 0
            rows.sort()
            means = np.asarray([[x, y] for _, x, y, _ in rows])
            sigmas = np.asarray([s for _, _, _, s in rows])
            writer.append_arrays(means, sigmas, object_id=current_id)
            n_traj += 1
            count = len(rows)
            rows.clear()
            return count

        for line_no, row in enumerate(reader, start=2):
            try:
                object_id = row["object_id"]
                sigma_field = row.get("sigma") if has_sigma else None
                entry = (
                    int(row["snapshot"]),
                    float(row["x"]),
                    float(row["y"]),
                    float(sigma_field)
                    if sigma_field not in (None, "")
                    else float(default_sigma),
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{src}:{line_no}: bad snapshot row: {exc}") from exc
            if object_id != current_id:
                if object_id in seen:
                    raise ValueError(
                        f"{src}:{line_no}: rows for object {object_id!r} are not "
                        "contiguous; streaming conversion needs the file grouped "
                        "by object_id (use load_dataset_csv + write_store for "
                        "small interleaved files)"
                    )
                n_rows += _flush()
                current_id = object_id
                seen.add(object_id)
            rows.append(entry)
        n_rows += _flush()
    return _summary(dst, src, n_traj, n_rows)


def ingest_porto_csv(
    src: str | Path,
    dst: str | Path,
    *,
    sigma: float,
    dt: float = PORTO_DT_SECONDS,
    skip_malformed: bool = True,
    **writer_kwargs,
) -> dict:
    """Ingest a Porto-taxi-style CSV dump into a ``.tjc`` store.

    Expects a ``POLYLINE`` column holding a JSON array of ``[lon, lat]``
    fixes (and optionally ``TRIP_ID``/``TIMESTAMP`` columns).  GPS fixes
    carry no per-point uncertainty, so the caller supplies one ``sigma``
    (in the same units as the coordinates).  Malformed or empty polylines
    are skipped and counted when ``skip_malformed`` (the dump famously
    contains both), otherwise raised with a ``path:line`` location.
    """
    src = Path(src)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be a positive finite float")
    writer_kwargs.setdefault(
        "metadata",
        {"source": "porto-csv", "source_file": src.name, "sigma": float(sigma), "dt_seconds": float(dt)},
    )
    n_traj = 0
    n_rows = 0
    n_skipped = 0
    with src.open("r", encoding="utf-8", newline="") as fh, StoreWriter(
        dst, **writer_kwargs
    ) as writer:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "POLYLINE" not in reader.fieldnames:
            raise ValueError(f"{src}: expected a POLYLINE column")
        for line_no, row in enumerate(reader, start=2):
            try:
                polyline = json.loads(row["POLYLINE"] or "[]")
                means = np.asarray(polyline, dtype=np.float64)
                if means.size == 0:
                    raise ValueError("empty polyline")
                if means.ndim != 2 or means.shape[1] != 2:
                    raise ValueError(f"polyline shape {means.shape} is not (n, 2)")
                start_time = float(row.get("TIMESTAMP") or 0.0)
                writer.append_arrays(
                    means,
                    sigma,
                    object_id=str(row.get("TRIP_ID") or f"trip-{line_no}"),
                    start_time=start_time,
                    dt=dt,
                )
            except (TypeError, ValueError, json.JSONDecodeError) as exc:
                if skip_malformed:
                    n_skipped += 1
                    continue
                raise ValueError(f"{src}:{line_no}: bad trip row: {exc}") from exc
            n_traj += 1
            n_rows += means.shape[0]
    summary = _summary(dst, src, n_traj, n_rows)
    summary["n_skipped"] = n_skipped
    return summary


def _summary(dst: str | Path, src: Path, n_traj: int, n_rows: int) -> dict:
    dst = Path(dst)
    return {
        "source": str(src),
        "path": str(dst),
        "n_trajectories": n_traj,
        "total_snapshots": n_rows,
        "size_bytes": dst.stat().st_size,
        "source_bytes": src.stat().st_size,
    }
