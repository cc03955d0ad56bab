"""Vectorised dataset-wide evaluation of the match / NM measures.

The TrajPattern miner evaluates the NM of thousands of candidate patterns
per iteration; doing that with the scalar reference functions would be
hopeless in Python.  :class:`NMEngine` makes a pattern evaluation a handful
of numpy operations over the whole dataset:

1. **Sparse index** (built once): for every snapshot of every trajectory,
   the exact ``log Prob(l, sigma, cell, delta)`` is computed for every grid
   cell whose probability exceeds the floor ``min_prob``; everything else
   *is* the floor.  Entries are stored CSR by cell: the active cells, each
   cell's entry range, and per entry an ``int32`` global row and a
   ``float64`` value -- 12 bytes per entry -- where global rows
   concatenate all trajectories along the time axis.

2. **Pattern evaluation** (:meth:`NMEngine.nm_batch` /
   :meth:`NMEngine.match_batch`): the window score of pattern ``(p_1..p_m)``
   at global row ``r`` is ``sum_j log Prob(p_j)[r + j]``, and Eq. 4 takes
   its maximum over each trajectory's windows.  A whole candidate frontier
   is scored in one pass without materialising a per-cell column.  Every
   window sum decomposes as ``n_specified * floor`` plus the *deviations*
   ``value - floor`` of the index entries the window touches, and those
   deviations are strictly positive (entries exist only above
   ``min_prob``).  So per length group the engine gathers the touched
   ``(pattern, window)`` pairs straight from the sparse index with one
   shifted lookup per position, sums duplicates, reduces segment maxima
   per ``(pattern, trajectory)``, and takes ``max(0, best deviation)`` --
   untouched windows contribute the all-floor baseline.  Work is
   proportional to the touched index entries, not to ``n_patterns *
   n_windows``, and a batch runs in chunks whose scratch matrix fits
   ``_BATCH_SCORE_BUDGET``.  This is the engine's one scorer: the miner,
   both baselines, the single-pattern :meth:`NMEngine.nm` /
   :meth:`NMEngine.match` and the extension tables all evaluate through
   it.

The index itself is built fully vectorised, straight into its CSR arrays.
A capacity pass first counts each cell's (snapshot, cell) pairs from the
snapshots' neighbourhood boxes
(:meth:`~repro.geometry.grid.Grid.cells_near_counts`, which lists no
pair), and the rows and values are allocated at that capacity, one run
per cell.  Then all snapshot neighbourhoods of a row chunk are listed
with one :meth:`~repro.geometry.grid.Grid.cells_near_many` call, as
``int32`` cells and owners (8 bytes per pair), and the kernel backend's
``place_pairs`` evaluates ``Prob`` of every listed pair, keeps those above
the floor (at most ``max_cells_per_snapshot`` per snapshot) and writes
each kept probability into its cell's run in ascending row order.  On the
compiled backend that is one C pass over the pairs, which allocates
nothing per pair and reuses each box axis mass along a snapshot's
row-major cell block; the numpy reference gathers, evaluates, masks,
caps and scatters.  Moving the runs left closes the gaps the rejected
pairs leave, both arrays shrink in place to the entry count, one
``np.log`` turns the probabilities into log-probabilities, and the
backend segments the index at every (cell, trajectory) change.  Every
backend installs exactly the same index arrays from the same entries.
An index is built (:func:`build_csr`, for a cold engine and for an
incremental fold's delta), folded, adopted, written and read as these
same four CSR arrays (:meth:`NMEngine.index_csr`): the index cache
stores them as they are, a warm load installs them as a cold build
does, and the incremental folds and engines that share an index take
them without a copy.

Exactness: with the default auto radius the index stores every cell whose
probability can exceed ``min_prob`` (the enumeration radius is derived from
the normal quantile of ``min_prob``), so the engine agrees with the scalar
reference implementation (:mod:`repro.core.measures`) to floating-point
accuracy -- the test suite checks this property directly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core import index_cache, kernels
from repro.core.kernels import ScratchArena
from repro.obs import logs, metrics, tracing
from repro.core.pattern import (
    WILDCARD,
    PatternLike,
    TrajectoryPattern,
    pattern_cells,
)
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.uncertainty.gaussian import ProbModel, prob_within

#: Snapshots listed per vectorised index-build round.  It bounds the
#: in-flight (snapshot, cell) pair arrays -- ``int32`` neighbourhood cells
#: and owners, 8 bytes per pair on the compiled backend (the numpy
#: reference adds its gathers and probabilities, ~60 bytes per pair) --
#: which are the build's largest transient after the 12-byte-per-pair
#: capacity the rows and values are filled into (see TestBuildMemory).
#: On the serve-score benchmark herd (compiled backend), 1024 rows lower
#: the traced build peak by 0.9 MiB (2.9 MiB at ~60 bytes per pair) at
#: 10-20 ms more build time, and 4096 rows raise it by 1.8 MiB for ~6 ms
#: less.
_INDEX_ROW_CHUNK = 2048
#: Matrix cells of one batched-evaluation scratch matrix (1 MiB of
#: float64).  Batches are evaluated in chunks of patterns: nm/match chunks
#: so their ``n_patterns * n_trajectories`` maxima matrix, and window-score
#: chunks so their ``n_patterns * n_windows`` matrix, stay within it (a
#: chunk holds at least one pattern).  Every row is computed and reduced
#: on its own, so where a batch splits moves no bit.  Chosen from a sweep
#: (docs/ARCHITECTURE.md): above ~2^18 cells a mine's peak RSS climbs,
#: because the process heap keeps freed multi-MiB blocks resident; below
#: it evaluation time does not change.
_BATCH_SCORE_BUDGET = 1 << 17

_log = logs.get_logger("engine")


def _chunks(n: int, width: int):
    """Row slices covering ``range(n)`` whose ``rows * width`` fits the budget."""
    step = max(1, _BATCH_SCORE_BUDGET // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row sums whose values do not depend on the number of rows.

    ``matrix.sum(axis=1)`` picks a pairwise-summation blocking that varies
    with the outer dimension, so the same row can total to ULP-different
    values depending on how many patterns share the batch.  Candidate
    measures must be batch-composition-invariant -- warm-started mining
    re-evaluates lone frontier seeds and has to land on exactly the floats
    the cold run's wider batches produced -- so each row is reduced
    independently: ``np.add.reduceat`` reduces every segment on its own
    (its first element plus numpy's pairwise sum of the rest), whatever
    the number of segments.
    """
    n, width = matrix.shape
    flat = np.ascontiguousarray(matrix).reshape(-1)
    return np.add.reduceat(flat, np.arange(0, n * width, width))


def _fill_csr(backend, capacity: np.ndarray, chunks, **pairs) -> tuple[np.ndarray, ...]:
    """A CSR index ``(cell_ids, cell_bounds, rows, vals)`` built from listed pairs.

    ``capacity`` bounds each grid cell's entry count (``int64``, one per
    cell).  ``chunks`` yields the ``(cells, owners, row0, means, sigmas)``
    arguments of the backend's ``place_pairs`` in ascending row order, and
    ``pairs`` holds its other arguments (``centres``, ``delta``, ``model``,
    ``min_prob``, ``cap``).  Rows and values are allocated at
    ``capacity.sum()``, one run per cell; ``place_pairs`` writes each
    chunk's kept probabilities into their cells' runs and, once all are
    placed, the backend moves the runs left to close the gaps.  Both arrays
    then shrink in place to the entry count (a ``realloc``: nothing holds a
    view of them yet), and one ``np.log`` over the values, element by
    element as a per-chunk log would be, makes them log-probabilities.
    """
    bounds = np.zeros(len(capacity) + 1, dtype=np.int64)
    np.cumsum(capacity, out=bounds[1:])
    rows = np.empty(int(bounds[-1]), dtype=np.int32)
    vals = np.empty(int(bounds[-1]), dtype=np.float64)
    cursor = bounds[:-1].copy()
    for cells, owners, row0, means, sigmas in chunks:
        backend.place_pairs(
            cells, owners, row0, means, sigmas, bounds=bounds, cursor=cursor,
            out_rows=rows, out_vals=vals, **pairs,
        )  # fmt: skip
        del cells, owners  # freed before the next chunk lists its pairs
    n = backend.compact_entries(bounds, cursor, rows, vals)
    rows.resize(n, refcheck=False)
    vals.resize(n, refcheck=False)
    np.log(vals, out=vals)
    counts = np.subtract(cursor, bounds[:-1], out=cursor)
    cell_ids = np.flatnonzero(counts)
    cell_bounds = np.zeros(len(cell_ids) + 1, dtype=np.int64)
    np.cumsum(counts[cell_ids], out=cell_bounds[1:])
    return cell_ids.astype(np.int32), cell_bounds, rows, vals


def build_csr(
    dataset: TrajectoryDataset,
    grid: Grid,
    config: EngineConfig,
    backend: kernels.KernelBackend,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], int]:
    """The above-floor index of ``dataset`` as CSR by cell, and its pair count.

    Returns ``((cell_ids, cell_bounds, rows, vals), n_pairs)``: the cells
    with entries (``int32``, ascending), their entry ranges (``int64``),
    the entries' ``int32`` rows and ``float64`` log-probabilities in
    (cell, row) order, and the (snapshot, cell) pairs enumerated.  A cold
    :class:`NMEngine` build and an incremental fold's delta both run it.

    Rows are read ``_INDEX_ROW_CHUNK`` at a time: views of an eager
    dataset's dense columns, or decoded on demand from a store-backed
    one, so an out-of-core build never materialises the full span -- peak
    RSS stays O(_INDEX_ROW_CHUNK + entries).  A first pass counts each
    cell's pairs from the snapshots' neighbourhood boxes, listing none; a
    second lists each chunk's pairs with one
    :meth:`~repro.geometry.grid.Grid.cells_near_many` call, and the
    backend's ``place_pairs`` writes the kept ones into an index allocated
    at that capacity (:func:`_fill_csr`).
    """
    n_rows = int(dataset.lengths().sum())
    radius_sigmas = config.effective_radius_sigmas()
    row_columns = getattr(dataset, "row_columns", None)
    if row_columns is None:
        all_means = dataset.all_means()
        all_sigmas = dataset.all_sigmas()

        def row_columns(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            return all_means[lo:hi], all_sigmas[lo:hi]

    def row_chunks():  # (lo, means, sigmas, neighbourhood box half-widths)
        for lo in range(0, n_rows, _INDEX_ROW_CHUNK):
            means, sigmas = row_columns(lo, min(lo + _INDEX_ROW_CHUNK, n_rows))
            yield lo, means, sigmas, radius_sigmas * sigmas + config.delta

    capacity = grid.cells_near_counts(
        (means, radii) for _, means, _, radii in row_chunks()
    )
    csr = _fill_csr(
        backend,
        capacity,
        (
            (*grid.cells_near_many(means, radii), lo, means, sigmas)
            for lo, means, sigmas, radii in row_chunks()
        ),
        centres=grid.cell_centers(),
        delta=config.delta,
        model=config.prob_model,
        min_prob=config.min_prob,
        cap=config.max_cells_per_snapshot,
    )
    return csr, int(capacity.sum())


def _positive_int(value) -> bool:
    """Whether ``value`` is an integer above zero (``bool`` is not)."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value > 0


def _check_index_shape(n_rows: int) -> None:
    """Reject a row count whose ids overflow ``int32``.

    The index stores rows as ``int32`` (see :meth:`NMEngine._install_csr`);
    checking the count up front keeps a cast from ever wrapping a row.
    Cell ids cannot overflow: :class:`~repro.geometry.grid.Grid` refuses a
    grid with more cells than ``int32`` holds.
    """
    limit = np.iinfo(np.int32).max
    if n_rows > limit:
        raise ValueError(
            f"{n_rows} snapshots exceed the index's int32 ids (at most {limit})"
        )


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of the sparse probability index.

    Parameters
    ----------
    delta:
        The indifference distance of section 3.3 (positive and finite).
    prob_model:
        Box (default) or disk geometry for ``Prob``.
    min_prob:
        Per-position probability floor; cells below it collapse onto the
        floor.  Larger values shrink the index and speed up construction at
        the cost of flattening the tail of the measure.
    radius_sigmas:
        Half-width (in sigmas, plus ``delta``) of the neighbourhood
        enumerated around each snapshot mean (positive and finite).
        ``None`` (default) derives the radius from ``min_prob`` so no
        above-floor cell is missed.
    max_cells_per_snapshot:
        Memory guard: keep at most this many highest-probability cells per
        snapshot (a positive int).  The default is high enough to be
        inactive in ordinary configurations.
    backend:
        Kernel backend for the hot loops (:mod:`repro.core.kernels`):
        ``"numpy"`` (default -- the reference implementation), ``"compiled"``
        (the native C library; falls back to numpy with a warning
        when no C compiler is available) or ``"auto"`` (compiled when
        available, else numpy, silently).  Excluded from the index cache
        key except through the Prob-kernel tag: compiled box-``Prob``
        builds use libm ``erf`` and are keyed separately (see
        :func:`repro.core.kernels.prob_kernel_tag`).
    cache_dir:
        Directory for the persistent on-disk index cache
        (:mod:`repro.core.index_cache`).  When set, engine construction
        first tries to load the built index from
        ``cache_dir/index-<key>.npz`` and falls back to a fresh build
        (persisting the result) on a miss.  ``None`` disables caching.
        Excluded from the cache key itself.
    """

    delta: float
    prob_model: ProbModel = ProbModel.BOX
    min_prob: float = 1e-9
    radius_sigmas: float | None = None
    max_cells_per_snapshot: int = 4096
    backend: str = "numpy"
    cache_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if not isinstance(self.prob_model, ProbModel):
            raise ValueError(
                f"prob_model must be one of {', '.join(map(str, ProbModel))}, "
                f"got {self.prob_model!r}"
            )
        if not 0.0 < self.min_prob < 1.0:
            raise ValueError("min_prob must be in (0, 1)")
        if self.radius_sigmas is not None and not (
            math.isfinite(self.radius_sigmas) and self.radius_sigmas > 0
        ):
            raise ValueError(
                f"radius_sigmas must be positive and finite, got {self.radius_sigmas!r}"
            )
        if not _positive_int(self.max_cells_per_snapshot):
            raise ValueError(
                "max_cells_per_snapshot must be a positive int, "
                f"got {self.max_cells_per_snapshot!r}"
            )
        if self.backend not in kernels.BACKEND_CHOICES:
            raise ValueError(
                f"backend must be one of {kernels.BACKEND_CHOICES}, "
                f"got {self.backend!r}"
            )

    @property
    def min_log_prob(self) -> float:
        """The log-space floor."""
        return float(np.log(self.min_prob))

    def effective_radius_sigmas(self) -> float:
        """Enumeration radius in sigmas: explicit, or the ``min_prob`` quantile."""
        if self.radius_sigmas is not None:
            return self.radius_sigmas
        # P(|X - c| <= delta) <= Phi(-(R - delta)/sigma); force it <= min_prob.
        # The stdlib quantile is within 1 ULP of scipy's ndtri here and
        # yields the same index, without importing scipy.special.
        return -statistics.NormalDist().inv_cdf(self.min_prob)


@dataclass(frozen=True)
class ExtensionTables:
    """Single-cell extension tables of one prefix, with their floor base.

    ``nm_by_cell`` / ``match_by_cell`` map every *active* cell ``c`` to the
    NM / match of ``prefix + (c,)`` over the engine's dataset.
    ``nm_base_total`` / ``match_base_total`` are the values an *inactive*
    extension cell would score (the new position at the floor everywhere)
    -- exactly the contribution a dataset shard adds for a cell that has no
    entries in that shard, which is what makes the sharded merge an exact
    reduction (see :mod:`repro.core.parallel`).
    """

    nm_by_cell: dict[int, float]
    match_by_cell: dict[int, float]
    nm_base_total: float
    match_base_total: float


class NMEngine:
    """Evaluates NM / match of patterns over a whole dataset (see module docs).

    An engine is a value: its dataset and index are fixed at construction.
    A live stream that changes the dataset builds a new engine over the
    folded index (:mod:`repro.core.incremental`), so a miner or a reader
    holding an engine never sees it change.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        grid: Grid,
        config: EngineConfig,
        *,
        csr: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
        cache_key: str | None = None,
    ) -> None:
        """Build (or adopt) the sparse index over ``dataset``.

        ``csr`` adopts another engine's CSR index (:meth:`index_csr`) as it
        is, without a copy, and skips the expensive probability
        enumeration: no engine writes into installed index arrays, so
        engines can share them.  The caller is responsible for matching
        ``(dataset, grid, config)``.

        ``cache_key`` names the index-cache entry to load and save when
        ``config.cache_dir`` is set; by default it is the whole-dataset key.
        Span engines of :class:`~repro.core.parallel.ParallelNMEngine` pass
        the key of their span of the parent dataset.
        """
        if len(dataset) == 0:
            raise ValueError("cannot build an engine over an empty dataset")
        self.grid = grid
        self.config = config
        self._floor = config.min_log_prob
        self._kernels = kernels.resolve_backend(config.backend)
        self._arena = ScratchArena()

        # The dataset's row layout: lengths, starts, row owners.
        lengths = dataset.lengths()
        self._total_rows = int(lengths.sum())
        _check_index_shape(self._total_rows)
        self.dataset = dataset
        self._lengths = lengths
        self._starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        self._row_traj = np.repeat(
            np.arange(len(dataset), dtype=np.int64), lengths
        )

        # Derived from the index on first use; they live as long as the
        # engine, whose index never changes.
        self._valid_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._seg_max: np.ndarray | None = None
        self._entry_bounds: tuple[np.ndarray, np.ndarray] | None = None
        self.n_evaluations = 0  # instrumentation for the scalability benches
        self.n_batches = 0  # batched-evaluation rounds (see nm_batch)
        self.index_cache_hit = False  # True when the index came from disk
        # (snapshot, cell) pairs the cold build enumerated -- its capacity;
        # 0 when the index was adopted or loaded.
        self.n_index_pairs = 0
        self._cache_key = cache_key

        adopted = csr is not None
        with tracing.span(
            "index.build", prebuilt=adopted
        ) as span, metrics.timer("engine.index_build_ns"):
            if adopted:
                self._install_csr(*csr)
            else:
                self._build_index()
            span.set_attr("n_entries", self.n_index_entries)
            span.set_attr("n_pairs", self.n_index_pairs)
            span.set_attr("cache_hit", self.index_cache_hit)
        metrics.counter(f"engine.backend.{self._kernels.name}").inc()
        _log.debug(
            "engine index ready",
            extra={
                "n_entries": self.n_index_entries,
                "n_trajectories": len(dataset),
                "n_snapshots": self._total_rows,
                "cache_hit": self.index_cache_hit,
                "prebuilt": adopted,
                "backend": self._kernels.name,
            },
        )

    # -- public metadata -------------------------------------------------------

    @property
    def active_cells(self) -> list[int]:
        """Cells with at least one above-floor entry, ascending.

        These are the only cells that can beat an inactive cell's NM; the
        miner seeds its singular patterns from them.
        """
        return [int(c) for c in self._cell_ids]

    @property
    def floor_log_prob(self) -> float:
        """The log-space probability floor."""
        return self._floor

    @property
    def n_index_entries(self) -> int:
        """Number of stored (snapshot, cell) probability entries."""
        return int(len(self._flat_rows))

    @property
    def index_nbytes(self) -> int:
        """Bytes the installed index holds: its CSR and segment arrays."""
        arrays = (
            self._cell_ids, self._cell_bounds, self._flat_rows, self._flat_vals,
            self._seg_starts, self._seg_traj, self._cell_seg_starts,
        )  # fmt: skip
        return int(sum(a.nbytes for a in arrays))

    @property
    def backend_name(self) -> str:
        """The kernel implementation actually running ("numpy"/"cnative")."""
        return str(self._kernels.name)

    @property
    def kernel_backend(self) -> kernels.KernelBackend:
        """The kernel backend this engine resolved and evaluates on."""
        return self._kernels

    # -- index construction ------------------------------------------------------

    def _collect_index_entries_scalar(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Reference per-snapshot collection loop, as the same CSR.

        Kept as the oracle the vectorised path is tested against and as the
        baseline the index-build benchmarks compare to.
        """
        cfg = self.config
        radius_sigmas = cfg.effective_radius_sigmas()
        cells_acc: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        rows_acc: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        vals_acc: list[np.ndarray] = [np.empty(0)]

        row = 0
        for traj in self.dataset:
            for mean, sigma in zip(traj.means, traj.sigmas):
                radius = radius_sigmas * sigma + cfg.delta
                cells = self.grid.cells_near(float(mean[0]), float(mean[1]), radius)
                if len(cells):
                    centers = self.grid.cell_centers(cells)
                    probs = prob_within(
                        mean, np.asarray(sigma), centers, cfg.delta, model=cfg.prob_model
                    )
                    keep = probs > cfg.min_prob
                    cells, probs = cells[keep], probs[keep]
                    if len(cells) > cfg.max_cells_per_snapshot:
                        top = np.argpartition(probs, -cfg.max_cells_per_snapshot)[
                            -cfg.max_cells_per_snapshot :
                        ]
                        cells, probs = cells[top], probs[top]
                    cells_acc.append(cells)
                    rows_acc.append(np.full(len(cells), row, dtype=np.int64))
                    vals_acc.append(np.log(probs))
                row += 1
        cells, rows, vals = (
            np.concatenate(acc) for acc in (cells_acc, rows_acc, vals_acc)
        )
        order = np.lexsort((rows, cells))
        cells, rows, vals = cells[order], rows[order], vals[order]
        cell_ids, firsts = np.unique(cells, return_index=True)
        return (
            cell_ids.astype(np.int32),
            np.append(firsts, len(cells)).astype(np.int64),
            rows.astype(np.int32),
            vals,
        )

    def _build_index(self) -> None:
        """Compute above-floor log-probabilities for every (snapshot, cell).

        With ``config.cache_dir`` set, a content-hashed on-disk copy of the
        CSR index is tried first and, when it loads, installed exactly as a
        cold build's CSR is; a fresh build persists its result so the next
        construction over the same (dataset, grid, config) is a pure load.
        """
        cache_dir = self.config.cache_dir
        key = None
        if cache_dir is not None:
            key = self._cache_key or index_cache.dataset_key(
                self.dataset, self.grid, self.config
            )
            loaded = index_cache.load_index(
                cache_dir,
                key,
                n_rows=self._total_rows,
                n_cells=self.grid.n_cells,
                floor=self._floor,
            )
            if loaded is not None:
                self.index_cache_hit = True
                self._install_csr(*loaded)
                return
        csr, self.n_index_pairs = build_csr(
            self.dataset, self.grid, self.config, self._kernels
        )
        self._install_csr(*csr)
        if key is not None:
            index_cache.save_index(cache_dir, key, *self.index_csr())

    def index_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The engine's own CSR index ``(cell_ids, cell_bounds, rows, vals)``.

        No copy: the arrays are never written after install (folds build
        fresh ones), so another engine may adopt them through the ``csr``
        constructor argument, and the incremental folds read them.
        """
        return self._cell_ids, self._cell_bounds, self._flat_rows, self._flat_vals

    def _install_csr(
        self,
        cell_ids: np.ndarray,
        cell_bounds: np.ndarray,
        rows: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Install the engine's CSR index and its segmentation, once.

        Active cell ``cell_ids[i]`` owns entries ``cell_bounds[i]:
        cell_bounds[i + 1]`` of the ``int32`` rows and ``float64`` values,
        rows ascending within a cell -- 12 bytes per entry.  Per-cell
        lookup is O(log C) by searchsorted, and install stays pure array
        work (which is what makes warm cache loads fast).
        """
        if not len(rows) == len(vals) == cell_bounds[-1]:
            raise ValueError("CSR index arrays disagree in length")
        if len(cell_ids) and (cell_ids[0] < 0 or cell_ids[-1] >= self.grid.n_cells):
            raise ValueError(f"index entry cell outside [0, {self.grid.n_cells})")
        self._cell_ids = cell_ids
        self._cell_bounds = cell_bounds
        self._flat_rows = rows
        self._flat_vals = vals
        # Flat segment index for the vectorised bulk-extension path: entries
        # segmented at every (cell, trajectory) change.  Pattern-independent,
        # built once.
        self._seg_starts, self._seg_traj, self._cell_seg_starts = (
            self._kernels.index_segments(cell_bounds, rows, self._row_traj)
        )

    # -- window plumbing -----------------------------------------------------------

    def _window_plumbing(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-length cached (validity mask, reduceat bounds, eligible trajs)."""
        cached = self._valid_cache.get(m)
        if cached is not None:
            return cached
        n_windows = self._total_rows - m + 1
        if n_windows <= 0:
            plumbing = (
                np.empty(0, dtype=bool),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        else:
            valid = self._row_traj[:n_windows] == self._row_traj[m - 1 :]
            eligible = np.nonzero(self._lengths >= m)[0]
            bounds = self._starts[eligible]
            plumbing = (valid, bounds, eligible)
        self._valid_cache[m] = plumbing
        return plumbing

    def _entry_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(start, count)`` arrays locating each cell's flat entries.

        ``start[cell]`` / ``count[cell]`` delimit the cell's run inside
        ``self._flat_rows`` / ``self._flat_vals`` (which are sorted by cell,
        then row); inactive cells have count 0.  Built lazily once -- this
        is what lets the batched paths gather arbitrary cell subsets with
        pure array indexing instead of dict lookups or dense columns.
        """
        if self._entry_bounds is None:
            n_cells = self.grid.n_cells
            start = np.zeros(n_cells, dtype=np.int64)
            count = np.zeros(n_cells, dtype=np.int64)
            start[self._cell_ids] = self._cell_bounds[:-1]
            count[self._cell_ids] = np.diff(self._cell_bounds)
            self._entry_bounds = (start, count)
        return self._entry_bounds

    def _stacked_window_scores(
        self,
        patterns: Sequence[TrajectoryPattern],
        n_windows: int,
    ) -> np.ndarray:
        """Unmasked window log-sums of equal-length patterns, stacked.

        Row ``i`` holds the window sums of ``patterns[i]`` over the first
        ``n_windows`` global window starts.  Each row starts at its
        pattern's all-floor baseline and the sparse entry deviations are
        scattered on top through the kernel backend -- no dense per-cell
        columns are materialised, so the cost is proportional to the index
        entries the batch actually touches.

        The result is an arena-backed scratch matrix: it is only valid
        until the next stacked call on this engine, so callers that let
        rows escape must copy them.
        """
        cells_matrix = self._cells_matrix(patterns)
        n_spec = (cells_matrix != WILDCARD).sum(axis=1)
        start, count = self._entry_lookup()
        scores = self._arena.get("stacked.out", (len(patterns), n_windows))
        self._kernels.stacked_scores(
            cells_matrix,
            n_spec,
            start,
            count,
            self._flat_rows,
            self._flat_vals,
            self._floor,
            n_windows,
            scores,
        )
        return scores

    def _cells_matrix(self, patterns: Sequence[PatternLike]) -> np.ndarray:
        """The ``int64`` cell matrix of equal-length patterns, one row each.

        Cell ids index the per-cell entry lookup, so an id outside the grid
        is refused here rather than read past it by a kernel.
        """
        cells = np.array([pattern_cells(p) for p in patterns], dtype=np.int64)
        if cells.size and cells.max() >= self.grid.n_cells:
            raise ValueError(
                f"pattern cell {int(cells.max())} outside the grid's "
                f"{self.grid.n_cells} cells"
            )
        return cells

    def _group_by_length(
        self, patterns: Sequence[TrajectoryPattern]
    ) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {}
        for i, pattern in enumerate(patterns):
            groups.setdefault(len(pattern), []).append(i)
        return groups

    # -- batched evaluation --------------------------------------------------------

    def _batch_window_maxima(
        self,
        cells_matrix: np.ndarray,
        n_spec: np.ndarray,
        n_windows: int,
        valid: np.ndarray,
        eligible: np.ndarray,
    ) -> np.ndarray:
        """Best window log-sum per ``(pattern, eligible trajectory)`` of a chunk.

        A window's score is its pattern's all-floor baseline ``floor *
        n_spec`` plus the (all strictly positive) deviations of the index
        entries it touches, so the per-trajectory best window is the
        baseline plus ``max(0, best summed deviation over the trajectory's
        valid windows)``.  The deviation reduction lives behind the kernel
        backend (:mod:`repro.core.kernels`); nothing of size ``n_patterns *
        n_windows`` is ever materialised.

        The result is an arena-backed scratch matrix, valid until the next
        batched call on this engine.  The baseline is added in place on the
        kernel's output, so a chunk costs one matrix; the eligible columns
        are gathered into a second one only when some trajectory is shorter
        than the patterns.
        """
        n_patterns, n_traj = cells_matrix.shape[0], len(self.dataset)
        start, count = self._entry_lookup()
        dev_max = self._arena.get("devmax.out", (n_patterns, n_traj), zero=True)
        self._kernels.batch_devmax(
            cells_matrix,
            start,
            count,
            self._flat_rows,
            self._flat_vals,
            self._floor,
            valid,
            n_windows,
            self._row_traj,
            self._arena,
            dev_max,
        )
        if len(eligible) < n_traj:
            # mode="clip": the default "raise" buffers ``out`` in a copy.
            dev_max = np.take(
                dev_max,
                eligible,
                axis=1,
                mode="clip",
                out=self._arena.get("devmax.eligible", (n_patterns, len(eligible))),
            )
        dev_max += (self._floor * n_spec)[:, None]
        return dev_max

    def _batch_reduce(self, patterns: Sequence[PatternLike], kind: str) -> np.ndarray:
        """Shared driver of :meth:`nm_batch` / :meth:`match_batch`.

        Groups patterns by length and reduces each group through the sparse
        deviation gather (:meth:`_batch_window_maxima`), in chunks whose
        ``(n_patterns, n_trajectories)`` maxima matrix fits the batch
        budget; each chunk is reduced in place on its arena matrix.
        """
        out = np.empty(len(patterns))
        n_traj = len(self.dataset)
        floor = self._floor
        for m, idxs in self._group_by_length(patterns).items():
            valid, _, eligible = self._window_plumbing(m)
            cells_all = self._cells_matrix([patterns[i] for i in idxs])
            n_spec = (cells_all != WILDCARD).sum(axis=1).astype(float)
            if len(eligible) == 0:
                # Every trajectory is shorter than the pattern: floor terms only.
                if kind == "nm":
                    out[idxs] = floor * n_traj
                else:
                    out[idxs] = n_traj * np.exp(floor * n_spec)
                continue
            n_windows = self._total_rows - m + 1
            n_short = n_traj - len(eligible)
            for rows in _chunks(len(idxs), n_traj):
                sub, spec = idxs[rows], n_spec[rows]
                maxes = self._batch_window_maxima(
                    cells_all[rows], spec, n_windows, valid, eligible
                )
                if kind == "nm":
                    totals = _row_sums(maxes)
                    normalised = np.divide(
                        totals, spec, out=np.zeros(len(sub)), where=spec > 0
                    )
                    out[sub] = normalised + floor * n_short
                else:
                    out[sub] = (
                        _row_sums(np.exp(maxes, out=maxes))
                        + np.exp(floor * spec) * n_short
                    )
                self.n_batches += 1
        self.n_evaluations += len(patterns)
        return out

    def nm_batch(self, patterns: Sequence[PatternLike]) -> np.ndarray:
        """``NM(P)`` of a whole candidate batch, in order.

        Evaluated through the sparse deviation gather (see module docs,
        step 2) -- the miner's per-iteration frontier goes through here, as
        plain cell tuples (:func:`pattern_cells`).  Each value is
        independent of the rest of the batch, bit for bit.
        """
        if not len(patterns):
            return np.empty(0)
        with tracing.span("engine.nm_batch", n_patterns=len(patterns)), (
            metrics.timer("engine.nm_batch_ns")
        ):
            out = self._batch_reduce(patterns, "nm")
        metrics.counter("engine.evaluations").inc(len(patterns))
        metrics.histogram("engine.batch_size").observe(len(patterns))
        return out

    def match_batch(self, patterns: Sequence[PatternLike]) -> np.ndarray:
        """Dataset match of a whole candidate batch, in order."""
        if not len(patterns):
            return np.empty(0)
        with tracing.span("engine.match_batch", n_patterns=len(patterns)), (
            metrics.timer("engine.match_batch_ns")
        ):
            out = self._batch_reduce(patterns, "match")
        metrics.counter("engine.evaluations").inc(len(patterns))
        metrics.histogram("engine.batch_size").observe(len(patterns))
        return out

    def nm(self, pattern: PatternLike) -> float:
        """``NM(P)`` over the dataset (section 3.3): a one-pattern batch."""
        return float(self.nm_batch([pattern])[0])

    def match(self, pattern: PatternLike) -> float:
        """Dataset match of ``pattern``: a one-pattern batch."""
        return float(self.match_batch([pattern])[0])

    def window_scores_batch(
        self, patterns: Sequence[TrajectoryPattern]
    ) -> list[np.ndarray]:
        """Raw global window log-sums of each pattern (no boundary mask).

        Entry ``i`` has one score per global window start of length
        ``len(patterns[i])``; windows that cross a trajectory boundary are
        *not* masked.  Consumers that slice per-trajectory ranges (the
        wildcard gap DP) use this to share the batched scorer.
        """
        patterns = list(patterns)
        out: list[np.ndarray] = [np.empty(0)] * len(patterns)
        for m, idxs in self._group_by_length(patterns).items():
            n_windows = self._total_rows - m + 1
            if n_windows <= 0:
                continue
            for rows in _chunks(len(idxs), n_windows):
                sub = idxs[rows]
                scores = self._stacked_window_scores(
                    [patterns[i] for i in sub], n_windows
                )
                for row, i in enumerate(sub):
                    # Copy out of the arena-backed scratch: these rows
                    # outlive the next batch.
                    out[i] = scores[row].copy()
        return out

    # -- bulk singular evaluation ---------------------------------------------------------

    def _segment_maxima(self) -> np.ndarray:
        """Max stored entry of every (cell, trajectory) segment, cached.

        Segments follow the flat index order (sorted by cell, then
        trajectory); ``self._cell_seg_starts`` delimits each cell's run and
        ``self._cell_ids`` names the cells.  Both singular tables
        derive from this one ``np.maximum.reduceat`` sweep.
        """
        if self._seg_max is None:
            self._seg_max = self._kernels.segment_maxima(
                self._flat_vals, self._seg_starts
            )
        return self._seg_max

    def singular_nm_table(self) -> dict[int, float]:
        """``NM`` of every active singular pattern, straight from the index.

        For length-1 patterns the per-trajectory max is just the max stored
        entry (or the floor when a trajectory never touches the cell), so
        the whole table comes straight out of the index: each touched
        trajectory swaps its floor term for its max entry (always an
        improvement -- entries are above ``min_prob`` by construction).
        """
        base = self._floor * len(self.dataset)
        seg_max = self._segment_maxima()
        if not seg_max.size:
            return {}
        gains = np.add.reduceat(seg_max - self._floor, self._cell_seg_starts)
        return {
            int(cell): base + float(gain)
            for cell, gain in zip(self._cell_ids, gains)
        }

    def singular_match_table(self) -> dict[int, float]:
        """Match of every active singular pattern (used by the match miner)."""
        n_traj = len(self.dataset)
        floor_p = np.exp(self._floor)
        seg_max = self._segment_maxima()
        if not seg_max.size:
            return {}
        sums = np.add.reduceat(np.exp(seg_max), self._cell_seg_starts)
        n_touched = np.diff(np.append(self._cell_seg_starts, len(seg_max)))
        return {
            int(cell): float(s) + floor_p * (n_traj - int(n))
            for cell, s, n in zip(self._cell_ids, sums, n_touched)
        }

    # -- bulk single-cell extensions --------------------------------------------------------

    def extension_tables_many(
        self, patterns: Sequence[TrajectoryPattern]
    ) -> list[ExtensionTables]:
        """NM and match of ``prefix + (c,)`` for every prefix and active cell ``c``.

        The level-wise miners (match/Apriori, PB) extend each frontier
        prefix by the whole alphabet; evaluating those extensions one by
        one costs ``G`` full passes per prefix.  Here the prefixes' window
        scores are built through the stacked batch scorer, and one pass
        over the flat index then scores every extension, so a prefix costs
        one window-score row plus ``O(index)``.  Each table carries the
        base totals an inactive extension cell scores (see
        :class:`ExtensionTables`).
        """
        patterns = list(patterns)
        with tracing.span("engine.ext_tables", n_prefixes=len(patterns)), (
            metrics.timer("engine.ext_tables_ns")
        ):
            return self._extension_tables_many(patterns)

    def _extension_tables_many(
        self, patterns: list[TrajectoryPattern]
    ) -> list[ExtensionTables]:
        out: list[ExtensionTables | None] = [None] * len(patterns)
        for m, idxs in self._group_by_length(patterns).items():
            ext_len = m + 1
            valid, bounds, eligible = self._window_plumbing(ext_len)
            if len(eligible) == 0:
                for i in idxs:
                    out[i] = self._extension_floor_tables(
                        len(patterns[i].specified_positions())
                    )
                continue
            n_windows = self._total_rows - ext_len + 1
            for rows in _chunks(len(idxs), n_windows):
                sub = idxs[rows]
                scores = self._stacked_window_scores(
                    [patterns[i] for i in sub], n_windows
                )
                for row, i in enumerate(sub):
                    out[i] = self._extension_tables_from_scores(
                        m,
                        len(patterns[i].specified_positions()),
                        scores[row],
                        valid,
                        bounds,
                        eligible,
                    )
        return out  # type: ignore[return-value]

    def _extension_floor_tables(self, n_spec: int) -> ExtensionTables:
        """Extension tables when no trajectory fits the extended length."""
        n_traj = len(self.dataset)
        nm_total = self._floor * n_traj
        match_total = n_traj * float(np.exp(self._floor * (n_spec + 1)))
        return ExtensionTables(
            dict.fromkeys(self.active_cells, nm_total),
            dict.fromkeys(self.active_cells, match_total),
            nm_total,
            match_total,
        )

    def _extension_tables_from_scores(
        self,
        m: int,
        n_spec: int,
        prefix_scores: np.ndarray,
        valid: np.ndarray,
        bounds: np.ndarray,
        eligible: np.ndarray,
    ) -> ExtensionTables:
        """The flat-index extension pass over one prefix's window scores."""
        n_traj = len(self.dataset)
        floor = self._floor
        nm_default = np.full(n_traj, floor)
        match_default = np.full(n_traj, np.exp(floor * (n_spec + 1)))

        # Base case: the new position scores the floor everywhere.
        base = prefix_scores + floor
        base_masked = np.where(valid, base, -np.inf)
        base_max = np.maximum.reduceat(base_masked, bounds)  # per eligible traj

        nm_base = nm_default.copy()
        nm_base[eligible] = base_max / (n_spec + 1)
        match_base = match_default.copy()
        match_base[eligible] = np.exp(base_max)
        nm_base_total = float(nm_base.sum())
        match_base_total = float(match_base.sum())

        if self._seg_starts.size == 0:
            # Empty flat index: no entry can improve on the base totals, so
            # every extension scores exactly the base (mirrors the
            # no-eligible-trajectory branch instead of dropping the totals).
            return ExtensionTables(
                dict.fromkeys(self.active_cells, nm_base_total),
                dict.fromkeys(self.active_cells, match_base_total),
                nm_base_total,
                match_base_total,
            )

        # Per-trajectory best base, aligned for comparison with entries.
        best_base_by_traj = np.full(n_traj, -np.inf)
        best_base_by_traj[eligible] = base_max

        # Fully vectorised over the flat segment index: one masked score per
        # entry, one max per (cell, trajectory) segment, one sum per cell.
        starts = self._flat_rows - m
        entry_valid = starts >= 0
        safe_starts = np.where(entry_valid, starts, 0)
        entry_valid &= self._row_traj[safe_starts] == self._row_traj[self._flat_rows]
        scores = np.where(
            entry_valid, prefix_scores[safe_starts] + self._flat_vals, -np.inf
        )
        seg_max = np.maximum.reduceat(scores, self._seg_starts)
        old = best_base_by_traj[self._seg_traj]
        improved = seg_max > old
        # Masked subtraction: unimproved segments may hold -inf on both
        # sides, and (-inf) - (-inf) would poison a plain np.where.
        nm_delta_seg = np.zeros(len(seg_max))
        np.subtract(seg_max, old, out=nm_delta_seg, where=improved)
        match_delta_seg = np.zeros(len(seg_max))
        np.subtract(
            np.exp(seg_max), np.exp(old), out=match_delta_seg, where=improved
        )
        nm_delta = np.add.reduceat(nm_delta_seg, self._cell_seg_starts) / (n_spec + 1)
        match_delta = np.add.reduceat(match_delta_seg, self._cell_seg_starts)

        nm_by_cell = {
            int(cell): nm_base_total + float(d)
            for cell, d in zip(self._cell_ids, nm_delta)
        }
        match_by_cell = {
            int(cell): match_base_total + float(d)
            for cell, d in zip(self._cell_ids, match_delta)
        }
        self.n_evaluations += len(self._cell_ids)
        return ExtensionTables(
            nm_by_cell, match_by_cell, nm_base_total, match_base_total
        )


def build_engine(
    dataset: TrajectoryDataset,
    cell_size: float,
    delta: float | None = None,
    jobs: int = 1,
    **config_kwargs,
):
    """Convenience constructor: grid covering the dataset + engine in one call.

    ``delta`` defaults to ``cell_size`` (the paper sets ``g_x = g_y = delta``).
    With ``jobs > 1`` the returned engine is a
    :class:`~repro.core.parallel.ParallelNMEngine` over ``jobs`` spans (same
    evaluation surface, sharded across worker processes); close it -- or
    use it as a context manager -- to release the workers.
    """
    grid = dataset.make_grid(cell_size)
    config = EngineConfig(delta=delta if delta is not None else cell_size, **config_kwargs)
    if jobs > 1:
        from repro.core.parallel import ParallelNMEngine

        return ParallelNMEngine(dataset, grid, config, jobs=jobs)
    return NMEngine(dataset, grid, config)

