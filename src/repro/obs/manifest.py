"""Run manifests: one JSON document describing a CLI invocation end-to-end.

A manifest answers "what exactly produced this output file?": the command
and its arguments, the engine configuration, a content hash of the input
dataset, the git revision of the code, a metrics snapshot and the run's
resource footprint (wall/CPU time, peak RSS).  ``trajpattern mine`` and
``score`` write one next to their output when ``--manifest-out`` is given,
and ``trajpattern report <manifest>`` pretty-prints it.

Determinism contract: everything outside the ``runtime`` and ``metrics``
sections is a pure function of (code revision, command, inputs) -- two
runs over the same dataset with the same arguments produce identical
deterministic sections.  The test suite pins this, so the manifest can be
diffed to prove two runs were comparable.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Any

MANIFEST_FORMAT = "repro.run-manifest"
MANIFEST_VERSION = 1


def git_sha(cwd: str | Path | None = None) -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    import subprocess  # only a manifest runs git

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd or Path(__file__).resolve().parent,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> int | None:
    """Resident set size of this process now, in bytes (``None`` without ``/proc``)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return None


def process_gauges() -> dict[str, int | None]:
    """Current resources of this process, read from ``/proc/self``.

    ``rss_bytes`` is the resident set now (:func:`peak_rss_bytes` is the
    high-water mark), ``open_fds`` and ``threads`` the live counts.  Each
    is ``None`` where ``/proc/self`` does not exist.
    """
    rss = current_rss_bytes()
    try:
        return {
            "rss_bytes": rss,
            "open_fds": len(os.listdir("/proc/self/fd")),
            "threads": len(os.listdir("/proc/self/task")),
        }
    except OSError:
        return {"rss_bytes": None, "open_fds": None, "threads": None}


def peak_rss_children_bytes() -> int:
    """Peak resident set size among reaped child processes, in bytes.

    The per-child high-water mark (largest single child, not a sum);
    worker pools spawned by ``--jobs`` show up here, not in
    :func:`peak_rss_bytes`.
    """
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def _jsonable(value: Any) -> Any:
    """Recursively convert configs/paths/enums into plain JSON values."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def build_manifest(
    command: str,
    arguments: dict[str, Any],
    dataset_fingerprint: str,
    config: Any = None,
    metrics: dict | None = None,
    wall_time_s: float | None = None,
    cpu_time_s: float | None = None,
    extra: dict[str, Any] | None = None,
) -> dict:
    """Assemble a manifest document.

    ``config`` may be any dataclass (typically
    :class:`~repro.core.engine.EngineConfig`); it is serialised field by
    field.  Deterministic content lives at the top level, volatile content
    under ``runtime`` and ``metrics``.
    """
    manifest: dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "arguments": _jsonable(arguments),
        "dataset_fingerprint": dataset_fingerprint,
        "config": _jsonable(config) if config is not None else None,
        "git_sha": git_sha(),
    }
    if extra:
        manifest.update(_jsonable(extra))
    manifest["runtime"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "wall_time_s": wall_time_s,
        "cpu_time_s": cpu_time_s,
        "peak_rss_bytes": peak_rss_bytes(),
        "peak_rss_children_bytes": peak_rss_children_bytes(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
    }
    manifest["metrics"] = metrics or {}
    return manifest


def process_cpu_seconds() -> float:
    """CPU seconds (user + system) of this process and reaped children."""
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        self_usage.ru_utime
        + self_usage.ru_stime
        + child_usage.ru_utime
        + child_usage.ru_stime
    )


class RunTimer:
    """Measure a run's wall and CPU time for the manifest."""

    def __enter__(self) -> "RunTimer":
        self._wall0 = time.perf_counter()
        self._cpu0 = process_cpu_seconds()
        self.wall_time_s = 0.0
        self.cpu_time_s = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_time_s = time.perf_counter() - self._wall0
        self.cpu_time_s = process_cpu_seconds() - self._cpu0


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Write ``manifest`` as pretty-printed JSON, returning the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def load_manifest(path: str | Path) -> dict:
    """Read a manifest, rejecting foreign or future-versioned files."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable JSON document: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a {MANIFEST_FORMAT} file")
    if document.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported version {document.get('version')!r}")
    return document


def deterministic_view(manifest: dict) -> dict:
    """The manifest minus its volatile sections (for comparison/diffing)."""
    return {
        k: v for k, v in manifest.items() if k not in ("runtime", "metrics")
    }
