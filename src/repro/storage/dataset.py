"""Lazy, store-backed :class:`TrajectoryDataset` -- same API, O(1) open.

:class:`StoreDataset` subclasses the in-RAM dataset but never materialises
its trajectories up front: ``dataset.trajectories`` is a lazy sequence that
builds :class:`UncertainTrajectory` objects on access (with a tiny LRU),
and the aggregate queries the engine layer actually uses -- ``all_means``,
``all_sigmas``, ``lengths``, ``total_snapshots``, ``bounding_box``,
``max_sigma`` -- are answered from the store's columns or footer stats
without touching Python objects at all.

Exactness contract: every override returns values bit-identical to what
the eager base class would compute over :meth:`TrajectoryStore.materialise`
of the same span.  The footer's bounding-box/sigma stats are running
float64 min/max -- the same exact reduction ``BoundingBox.of_points``
performs -- so grids built from a store match grids built in RAM and the
differential oracle can hold the ``store`` path to 0 ULP.

A full-span ``StoreDataset`` also exposes :attr:`content_fingerprint`
(the store's ``content_hash``), which :func:`repro.core.index_cache.
dataset_fingerprint` short-circuits on -- cache keys match the in-RAM
twin without hashing gigabytes.  Partial spans deliberately do *not*
expose it (their fingerprint is a different value); span-grained caching
uses ``span_cache_key`` instead.

The functional helpers (``filter``/``subset``/``shuffled``/``split``)
inherit the eager base implementations and therefore materialise what
they touch -- acceptable, since they are experiment-setup conveniences,
not mining hot paths.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.bbox import BoundingBox
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

#: Materialised trajectories kept alive per lazy sequence.
_TRAJ_LRU = 8


class _LazySpanTrajectories(Sequence):
    """Sequence view of store trajectories ``[traj_lo, traj_hi)``.

    Integer access materialises one trajectory (LRU-cached); slice access
    materialises the slice eagerly as a tuple, which keeps the base
    class's ``split``/``subset`` semantics intact.
    """

    __slots__ = ("_store", "_lo", "_hi", "_cache")

    def __init__(self, store, traj_lo: int, traj_hi: int) -> None:
        self._store = store
        self._lo = traj_lo
        self._hi = traj_hi
        self._cache: OrderedDict[int, UncertainTrajectory] = OrderedDict()

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"trajectory index {index} out of range [0, {len(self)})")
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        traj = self._store.trajectory(self._lo + index)
        self._cache[index] = traj
        while len(self._cache) > _TRAJ_LRU:
            self._cache.popitem(last=False)
        return traj

    def __iter__(self) -> Iterator[UncertainTrajectory]:
        # Sequential iteration rides the store's decoded-chunk cache; skip
        # the per-trajectory LRU so a full scan doesn't churn it.
        for i in range(self._lo, self._hi):
            yield self._store.trajectory(i)


class StoreDataset(TrajectoryDataset):
    """A ``TrajectoryDataset`` served lazily from a :class:`TrajectoryStore`."""

    __slots__ = ("store", "traj_lo", "traj_hi")

    def __init__(self, store, traj_lo: int, traj_hi: int) -> None:
        if not 0 <= traj_lo <= traj_hi <= store.n_trajectories:
            raise IndexError(
                f"trajectory span [{traj_lo}, {traj_hi}) out of range "
                f"[0, {store.n_trajectories})"
            )
        self.store = store
        self.traj_lo = int(traj_lo)
        self.traj_hi = int(traj_hi)
        # Base-class slots, assigned directly: the lazy sequence stands in
        # for the usual tuple (everything downstream duck-types on
        # len/iter/getitem/slicing).
        self.trajectories = _LazySpanTrajectories(store, self.traj_lo, self.traj_hi)
        self.metadata = dict(store.metadata)

    # -- span plumbing -------------------------------------------------------------

    @property
    def is_full_span(self) -> bool:
        return self.traj_lo == 0 and self.traj_hi == self.store.n_trajectories

    @property
    def store_ref(self) -> tuple[str, int, int]:
        """``(path, traj_lo, traj_hi)`` -- the span's address in its store."""
        return (str(self.store.path), self.traj_lo, self.traj_hi)

    @property
    def content_fingerprint(self) -> str:
        """The store's ``content_hash``; only a full span may claim it."""
        if not self.is_full_span:
            raise AttributeError(
                "content_fingerprint is only defined for full-store spans"
            )
        return self.store.content_hash

    def _row_span(self) -> tuple[int, int]:
        offsets = self.store.row_offsets
        return int(offsets[self.traj_lo]), int(offsets[self.traj_hi])

    def __repr__(self) -> str:
        span = (
            "full"
            if self.is_full_span
            else f"[{self.traj_lo}, {self.traj_hi})"
        )
        return (
            f"StoreDataset({self.store.path.name!r}, {span}, "
            f"{len(self)} trajectories, {self.total_snapshots()} snapshots)"
        )

    # -- aggregate statistics, served from columns/footer --------------------------

    def total_snapshots(self) -> int:
        lo, hi = self._row_span()
        return hi - lo

    def mean_length(self) -> float:
        n = len(self)
        return self.total_snapshots() / n if n else 0.0

    def all_means(self) -> np.ndarray:
        lo, hi = self._row_span()
        return self.store.means(lo, hi)

    def all_sigmas(self) -> np.ndarray:
        lo, hi = self._row_span()
        return self.store.sigmas(lo, hi)

    def row_columns(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode span rows ``[lo, hi)`` of the mean/sigma columns on demand.

        The engine's chunked index build probes for this method so that an
        out-of-core build touches one row chunk at a time instead of
        materialising the whole span via :meth:`all_means`.  Row indices
        are span-local; values are bit-identical to ``all_means()[lo:hi]``.
        Bounded pread decoding keeps worker RSS independent of span size.
        """
        base, top = self._row_span()
        if not 0 <= lo <= hi <= top - base:
            raise IndexError(f"row span [{lo}, {hi}) out of range [0, {top - base})")
        return (
            self.store.means(base + lo, base + hi),
            self.store.sigmas(base + lo, base + hi),
        )

    def lengths(self) -> np.ndarray:
        return np.asarray(
            self.store.lengths[self.traj_lo : self.traj_hi], dtype=np.int64
        )

    def max_sigma(self) -> float:
        if len(self) == 0 or self.total_snapshots() == 0:
            raise ValueError("empty dataset has no sigmas")
        stats = self.store.stats
        if self.is_full_span and stats.get("max_sigma") is not None:
            return float(stats["max_sigma"])
        return float(self.all_sigmas().max())

    def bounding_box(self, n_sigmas: float = 0.0) -> BoundingBox:
        if len(self) == 0 or self.total_snapshots() == 0:
            raise ValueError("empty dataset has no bounding box")
        stats = self.store.stats
        if self.is_full_span and stats.get("min_x") is not None:
            box = BoundingBox(
                float(stats["min_x"]),
                float(stats["min_y"]),
                float(stats["max_x"]),
                float(stats["max_y"]),
            )
        else:
            means = self.all_means()
            box = BoundingBox.of_points(means)
        if n_sigmas > 0:
            box = box.expand(n_sigmas * self.max_sigma())
        return box
