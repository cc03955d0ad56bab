"""Immutable versioned serving state and its hot-swappable store.

A :class:`ServingSnapshot` bundles everything one generation of the server
needs to answer queries: the dataset, the grid, a fully built
:class:`~repro.core.engine.NMEngine` and (optionally) a
:class:`~repro.apps.prediction.PatternLibrary` for the ``predict`` op.
Snapshots are immutable once constructed -- the server never mutates one,
it *replaces* the store's current reference atomically.  Requests capture
the snapshot reference at admission, so an in-flight batch always
evaluates against the generation that admitted it even if a ``swap``
lands mid-batch; the old generation is garbage-collected once its last
in-flight request drains.

Loading goes through :mod:`repro.core.index_cache` when a ``cache_dir``
is configured: the first boot of a snapshot persists its built index, so
swapping back to a previously served dataset (or restarting the server)
skips the probability enumeration entirely.  Offline mining runs pointed
at the same cache directory share the files in both directions.

On disk a snapshot is either a bare dataset file (JSONL or a ``.tjc``
columnar store, sniffed by magic) or a directory:

``dataset.tjc`` / ``dataset.jsonl``
    one required -- the uncertain trajectories to serve
    (:mod:`repro.trajectory.io` / :mod:`repro.storage`); ``dataset.tjc``
    wins when both exist.  Store-backed snapshots open in O(footer) and
    stream trajectories on demand, so swapping to a huge dataset does not
    double-buffer it in RAM.
``patterns.json``
    optional -- a mining result (:mod:`repro.core.results_io`); enables
    the ``predict`` op and pins the pattern grid.
``serve.json``
    optional -- overrides: ``{"version": ..., "cell_size": ...,
    "delta": ..., "min_prob": ..., "confirm_threshold": ...,
    "min_prefix": ..., "backend": ..., "store": ...}``.
    Anything absent falls back to the section 5 parameter suggestions
    derived from the dataset; ``backend`` selects the kernel backend
    (:mod:`repro.core.kernels`) the snapshot's engine evaluates on;
    ``store`` names a ``.tjc`` file (relative to the directory) to
    serve instead of the ``dataset.*`` convention.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.apps.prediction import PatternLibrary
from repro.core import index_cache
from repro.core.engine import EngineConfig, NMEngine
from repro.core.parameters import suggest_parameters
from repro.core.results_io import load_mining_result
from repro.geometry.grid import Grid
from repro.obs import logs
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import load_dataset_jsonl

_log = logs.get_logger("serve.snapshot")

#: serve.json keys accepted by :meth:`ServingSnapshot.load`.
_CONFIG_KEYS = (
    "version",
    "cell_size",
    "delta",
    "min_prob",
    "confirm_threshold",
    "min_prefix",
    "backend",
    "store",
)


class ServingSnapshot:
    """One immutable generation of serving state.

    Build via :meth:`load` (from disk) or :meth:`from_dataset` (in
    process); the constructor itself just pins the already-built pieces.
    """

    __slots__ = (
        "version",
        "source",
        "dataset",
        "grid",
        "engine",
        "library",
        "delta",
        "confirm_threshold",
        "min_prefix",
        "owned_store",
        "_ref_lock",
        "_refs",
        "_retired",
        "_closed",
    )

    def __init__(
        self,
        version: str,
        dataset: TrajectoryDataset,
        grid: Grid,
        engine: NMEngine,
        library: PatternLibrary | None = None,
        source: str = "<memory>",
        owned_store: Any | None = None,
        confirm_threshold: float = 0.9,
        min_prefix: int = 2,
    ) -> None:
        self.version = version
        self.dataset = dataset
        self.grid = grid
        self.engine = engine
        self.library = library
        self.delta = engine.config.delta
        # The predict settings outlive a missing library: a live server
        # builds every republished library with them.
        self.confirm_threshold = confirm_threshold
        self.min_prefix = min_prefix
        self.source = source
        # Resource lifecycle: a store-backed snapshot owns the open ``.tjc``
        # handle its lazy dataset reads through.  Dropping the snapshot
        # reference alone leaks the fd, so retirement is refcounted:
        # ``retain``/``release`` bracket every admission that may still read
        # the dataset, ``retire`` marks the generation replaced, and the
        # store closes exactly once, when both have happened.
        self.owned_store = owned_store
        self._ref_lock = threading.Lock()
        self._refs = 0
        self._retired = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def retain(self) -> "ServingSnapshot":
        """Pin the snapshot for one in-flight admission; pair with release."""
        with self._ref_lock:
            # Only a snapshot whose backing store is actually gone must
            # refuse work; a retired in-memory generation swapped back in
            # (tests and blue/green flips do this) is still fully readable.
            if self._closed and self.owned_store is not None:
                raise RuntimeError(
                    f"snapshot {self.version} is closed; cannot admit new work"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one admission pin; closes a retired snapshot once drained."""
        with self._ref_lock:
            if self._refs <= 0:
                raise RuntimeError(
                    f"snapshot {self.version}: release without matching retain"
                )
            self._refs -= 1
            should_close = self._retired and self._refs == 0 and not self._closed
            if should_close:
                self._closed = True
        if should_close:
            self._close_store()

    def retire(self) -> None:
        """Mark the generation replaced; closes now or when in-flight drains."""
        with self._ref_lock:
            if self._retired:
                return
            self._retired = True
            should_close = self._refs == 0 and not self._closed
            if should_close:
                self._closed = True
        if should_close:
            self._close_store()

    @property
    def closed(self) -> bool:
        """True once the owned store (if any) has been closed."""
        with self._ref_lock:
            return self._closed

    @property
    def inflight(self) -> int:
        """Current number of unreleased admissions (introspection/tests)."""
        with self._ref_lock:
            return self._refs

    def _close_store(self) -> None:
        if self.owned_store is None:
            return
        try:
            self.owned_store.close()
        except Exception:  # noqa: BLE001 - closing must never kill serving
            _log.warning(
                "snapshot store close failed",
                extra={"version": self.version, "source": self.source},
                exc_info=True,
            )
        else:
            _log.info(
                "snapshot store closed",
                extra={"version": self.version, "source": self.source},
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: TrajectoryDataset,
        *,
        patterns_path: str | Path | None = None,
        cell_size: float | None = None,
        delta: float | None = None,
        min_prob: float = 1e-6,
        cache_dir: str | Path | None = None,
        confirm_threshold: float = 0.9,
        min_prefix: int = 2,
        backend: str = "auto",
        version: str | None = None,
        source: str = "<memory>",
        owned_store: Any | None = None,
    ) -> "ServingSnapshot":
        """Build a snapshot from an in-memory dataset.

        ``cell_size`` / ``delta`` default to the section 5 suggestions
        derived from the dataset; ``version`` defaults to the index cache
        key (a content hash -- identical inputs get identical versions).
        ``backend`` picks the kernel backend the snapshot's engine
        evaluates on (serving defaults to ``"auto"``: compiled when the
        machine has a toolchain, numpy otherwise); the pattern library's
        confirmation ``Prob`` runs on the same backend.
        """
        if cell_size is None or delta is None:
            suggested = suggest_parameters(dataset)
            cell_size = cell_size if cell_size is not None else suggested.cell_size
            delta = delta if delta is not None else suggested.delta
        grid = dataset.make_grid(cell_size)
        config = EngineConfig(
            delta=delta,
            min_prob=min_prob,
            cache_dir=cache_dir,
            backend=backend,
        )
        key = index_cache.dataset_key(dataset, grid, config)
        if version is None:
            version = key[:12]
        # The engine loads the index from cache_dir when present and
        # persists a fresh build there otherwise.
        engine = NMEngine(dataset, grid, config, cache_key=key)
        library = None
        if patterns_path is not None:
            result, pattern_grid = load_mining_result(patterns_path)
            library = PatternLibrary(
                result.patterns,
                pattern_grid,
                delta=delta,
                confirm_threshold=confirm_threshold,
                min_prefix=min_prefix,
                kernels=engine.kernel_backend,
            )
        snapshot = cls(
            version,
            dataset,
            grid,
            engine,
            library=library,
            source=source,
            owned_store=owned_store,
            confirm_threshold=confirm_threshold,
            min_prefix=min_prefix,
        )
        _log.info(
            "snapshot built",
            extra={
                "version": version,
                "n_trajectories": len(dataset),
                "n_cells": grid.n_cells,
                "n_patterns": len(library) if library is not None else 0,
                "source": source,
                "backend": engine.backend_name,
            },
        )
        return snapshot

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        cache_dir: str | Path | None = None,
        backend: str = "auto",
    ) -> "ServingSnapshot":
        """Load a snapshot from ``path`` (dataset file or snapshot directory).

        ``backend`` is the operator-level default (the ``repro serve
        --backend`` flag); a ``serve.json`` carrying its own ``backend`` key
        wins, since it is pinned per snapshot.
        """
        from repro.storage import is_store_path, open_store

        path = Path(path)
        overrides: dict[str, Any] = {}
        patterns_path: Path | None = None
        if path.is_dir():
            candidate = path / "patterns.json"
            if candidate.is_file():
                patterns_path = candidate
            config_path = path / "serve.json"
            if config_path.is_file():
                raw = json.loads(config_path.read_text(encoding="utf-8"))
                if not isinstance(raw, dict):
                    raise ValueError(f"{config_path}: must be a JSON object")
                unknown = set(raw) - set(_CONFIG_KEYS)
                if unknown:
                    raise ValueError(
                        f"{config_path}: unknown keys {sorted(unknown)}"
                    )
                overrides = raw
            if overrides.get("store") is not None:
                dataset_path = path / str(overrides.pop("store"))
                if not dataset_path.is_file():
                    raise ValueError(
                        f"{path}: serve.json store {dataset_path.name!r} not found"
                    )
            elif (path / "dataset.tjc").is_file():
                dataset_path = path / "dataset.tjc"
            elif (path / "dataset.jsonl").is_file():
                dataset_path = path / "dataset.jsonl"
            else:
                raise ValueError(
                    f"{path}: snapshot directory has no dataset.tjc or "
                    "dataset.jsonl"
                )
        else:
            dataset_path = path
        owned_store = None
        if is_store_path(dataset_path):
            # Lazy store-backed dataset: the snapshot owns the open store
            # handle and closes it on refcounted retirement (see __init__),
            # so a republish-every-minute server does not leak fds.
            owned_store = open_store(dataset_path)
            dataset = owned_store.dataset()
        else:
            dataset = load_dataset_jsonl(dataset_path)
        kwargs: dict[str, Any] = {"backend": backend}
        for numeric in ("cell_size", "delta", "min_prob", "confirm_threshold"):
            if overrides.get(numeric) is not None:
                kwargs[numeric] = float(overrides[numeric])
        if overrides.get("min_prefix") is not None:
            kwargs["min_prefix"] = int(overrides["min_prefix"])
        for text in ("version", "backend"):
            if overrides.get(text) is not None:
                kwargs[text] = str(overrides[text])
        return cls.from_dataset(
            dataset,
            patterns_path=patterns_path,
            cache_dir=cache_dir,
            source=str(path),
            owned_store=owned_store,
            **kwargs,
        )

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        """The ``describe`` op payload: enough for a client to form queries."""
        active = self.engine.active_cells
        sample = active[:: max(1, len(active) // 64)][:64]
        return {
            "version": self.version,
            "source": self.source,
            "n_trajectories": len(self.dataset),
            "total_snapshots": self.dataset.total_snapshots(),
            "grid": {
                "nx": self.grid.nx,
                "ny": self.grid.ny,
                "n_cells": self.grid.n_cells,
                "min_x": self.grid.bbox.min_x,
                "min_y": self.grid.bbox.min_y,
                "max_x": self.grid.bbox.max_x,
                "max_y": self.grid.bbox.max_y,
            },
            "delta": self.delta,
            "backend": self.engine.backend_name,
            "n_active_cells": len(active),
            "index_entries": self.engine.n_index_entries,
            "index_bytes": self.engine.index_nbytes,
            "sample_active_cells": [int(c) for c in sample],
            "has_patterns": self.library is not None,
            "n_patterns": len(self.library) if self.library is not None else 0,
            "sigma_typical": float(np.median(self.dataset.all_sigmas())),
        }


class SnapshotStore:
    """Atomic holder of the current :class:`ServingSnapshot`.

    ``swap`` replaces the reference under a lock and returns the previous
    generation; readers grab :attr:`current` without locking (attribute
    reads are atomic in CPython) for metadata, while evaluation paths that
    may still *read the dataset* after a swap go through
    :meth:`acquire`/:meth:`release` -- the pin is taken under the same lock
    as ``swap``, so a retiring generation can never close its backing store
    between admission and evaluation.  ``swap`` retires the replaced
    generation: its store-backed resources close once the last in-flight
    admission drains (immediately when there are none).
    """

    def __init__(self, snapshot: ServingSnapshot) -> None:
        self._current = snapshot
        self._lock = threading.Lock()
        self.swaps = 0

    @property
    def current(self) -> ServingSnapshot:
        return self._current

    def acquire(self) -> ServingSnapshot:
        """Pin and return the current generation; pair with :meth:`release`."""
        with self._lock:
            return self._current.retain()

    @staticmethod
    def release(snapshot: ServingSnapshot) -> None:
        """Drop an :meth:`acquire` pin (closes a drained retired generation)."""
        snapshot.release()

    def swap(self, snapshot: ServingSnapshot) -> ServingSnapshot:
        """Install ``snapshot``; retires and returns the replaced generation."""
        with self._lock:
            previous = self._current
            self._current = snapshot
            self.swaps += 1
        _log.info(
            "snapshot swapped",
            extra={"from": previous.version, "to": snapshot.version},
        )
        previous.retire()
        return previous
