"""Persistence for trajectory datasets.

Two formats are supported:

* **JSONL** -- one JSON object per trajectory; lossless (keeps metadata,
  per-snapshot sigmas, timing).  The canonical on-disk form.
* **CSV** -- one row per snapshot with columns
  ``object_id,snapshot,x,y,sigma``; convenient for interchange with
  spreadsheet/GIS tooling, loses dataset metadata and timing granularity
  beyond the implied snapshot index.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

_FORMAT_VERSION = 1


def save_dataset_jsonl(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write ``dataset`` to ``path`` in JSON-lines format.

    The first line is a header record carrying the format version and the
    dataset metadata; each subsequent line is one trajectory.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "format": "repro.trajectory",
            "version": _FORMAT_VERSION,
            "metadata": dataset.metadata,
        }
        fh.write(json.dumps(header) + "\n")
        for traj in dataset:
            record = {
                "object_id": traj.object_id,
                "start_time": traj.start_time,
                "dt": traj.dt,
                "means": traj.means.tolist(),
                "sigmas": traj.sigmas.tolist(),
            }
            fh.write(json.dumps(record) + "\n")


def _parse_header(path: Path, first: str) -> dict:
    if not first or not first.strip():
        raise ValueError(f"{path}: empty file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:1: header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}:1: header must be a JSON object")
    if header.get("format") != "repro.trajectory":
        raise ValueError(f"{path}: not a repro trajectory file")
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {header.get('version')!r}"
        )
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{path}:1: metadata must be a JSON object")
    return metadata


def _parse_trajectory(path: Path, line_no: int, line: str) -> UncertainTrajectory:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line_no}: not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}:{line_no}: trajectory record must be a JSON object")
    try:
        return UncertainTrajectory(
            np.asarray(record["means"], dtype=float),
            np.asarray(record["sigmas"], dtype=float),
            object_id=record.get("object_id", ""),
            start_time=record.get("start_time", 0.0),
            dt=record.get("dt", 1.0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{line_no}: bad trajectory record: {exc}") from exc


def iter_dataset_jsonl(path: str | Path):
    """Stream trajectories from a JSONL dataset file one at a time.

    Yields the header metadata dict first, then one
    :class:`UncertainTrajectory` per record line.  Peak memory is a single
    trajectory -- this is the primitive large-file ingest and the
    streaming engine build on, so converting a file bigger than RAM never
    materialises the dataset.  Malformed input raises ``ValueError`` with
    the usual ``path:line`` prefix.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        yield _parse_header(path, fh.readline())
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            yield _parse_trajectory(path, line_no, line)


def load_dataset_jsonl(path: str | Path) -> TrajectoryDataset:
    """Read a dataset previously written by :func:`save_dataset_jsonl`."""
    stream = iter_dataset_jsonl(path)
    metadata = next(stream)
    return TrajectoryDataset(list(stream), metadata=metadata)


def save_dataset_csv(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write ``dataset`` as flat CSV (one row per snapshot)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_id", "snapshot", "x", "y", "sigma"])
        for i, traj in enumerate(dataset):
            object_id = traj.object_id or f"object-{i}"
            for snap, ((x, y), sigma) in enumerate(zip(traj.means, traj.sigmas)):
                writer.writerow([object_id, snap, repr(float(x)), repr(float(y)), repr(float(sigma))])


def load_dataset_csv(path: str | Path) -> TrajectoryDataset:
    """Read a dataset written by :func:`save_dataset_csv`.

    Rows are grouped by ``object_id`` (order of first appearance) and sorted
    by snapshot index within each object.
    """
    path = Path(path)
    rows_by_object: dict[str, list[tuple[int, float, float, float]]] = {}
    order: list[str] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"object_id", "snapshot", "x", "y", "sigma"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(required)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                object_id = row["object_id"]
                entry = (
                    int(row["snapshot"]),
                    float(row["x"]),
                    float(row["y"]),
                    float(row["sigma"]),
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: bad snapshot row: {exc}") from exc
            if object_id not in rows_by_object:
                rows_by_object[object_id] = []
                order.append(object_id)
            rows_by_object[object_id].append(entry)

    trajectories = []
    for object_id in order:
        rows = sorted(rows_by_object[object_id])
        means = np.array([[x, y] for _, x, y, _ in rows])
        sigmas = np.array([s for _, _, _, s in rows])
        trajectories.append(UncertainTrajectory(means, sigmas, object_id=object_id))
    return TrajectoryDataset(trajectories)
