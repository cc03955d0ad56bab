"""One span coordinator: sharded NM/match evaluation over three pool kinds.

NM and match are *sums of per-trajectory terms* (Eq. 4 summed over the
dataset): per trajectory a window maximum, then one dataset sum.  Any
partition of the dataset along the trajectory axis therefore evaluates
independently, and the partition results combine by plain addition -- an
**exact reduction**, not an approximation.  It is also the paper's
section 4.4 space argument: "we only need a portion of the data set at a
time for computing the NM".

:class:`ParallelNMEngine` exploits the sum in four steps:

1. :func:`shard_dataset` cuts the trajectory axis into contiguous spans
   balanced by snapshot count;
2. each span is handed (round-robin) to a **pool**:

   * ``"inline"`` -- one span at a time in this process.  The span engine
     is built, or loaded from the span cache, per op and then dropped, so
     one span index is resident at a time: the O(kMG) bound of section
     4.4, and what ``repro score`` runs;
   * ``"local"`` -- fork workers, one per span.  The child receives its
     span as a lazy ``StoreDataset`` span or an in-RAM
     :class:`TrajectoryDataset` slice through the ``Process`` arguments;
     under fork those are inherited copy-on-write and never pickled;
   * ``"host:port"`` -- a ``repro worker --listen`` pool
     (:class:`repro.dist.pool.RemotePool`), imported lazily so importing
     ``repro`` or forking workers never loads socket or wire code;

3. every pool evaluates a span through one op table, :func:`span_op`;
4. the per-span results are folded in **global span order** through the
   ``merge_*`` functions below.

Failover: a pool that dies (broken pipe, lost socket, op timeout) hands
its spans to the surviving pools, which re-open them and re-run the op for
just those spans.  The fold order is a pure function of the partition, so
the answer is bit-identical whoever computed a span.  When no pool
survives the engine closes itself and raises :class:`WorkerCrashError`.

Span cache: with ``config.cache_dir`` set, every span's index is stored
under :func:`~repro.core.index_cache.span_cache_key` (dataset fingerprint
plus span bounds).  Whoever builds a span loads and saves its own entry,
so the parent never merges or holds the full index.  A one-span engine
uses the whole-dataset key, which a serial :class:`NMEngine` shares.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import index_cache, kernels
from repro.core.engine import EngineConfig, ExtensionTables, NMEngine, _positive_int
from repro.core.pattern import PatternLike, TrajectoryPattern, pattern_cells
from repro.geometry.grid import Grid
from repro.obs import logs, metrics, tracing
from repro.testkit import faults
from repro.trajectory.dataset import TrajectoryDataset

_log = logs.get_logger("parallel")


class WorkerCrashError(RuntimeError):
    """Span workers died and no pool survives to take over their spans.

    Raised instead of a bare ``EOFError``/``BrokenPipeError`` or socket
    error.  By the time the caller sees it the engine has torn itself
    down: every pool is closed and every worker reaped -- a lost span means
    every later reduction would be silently wrong, so the only safe state
    is "loudly unusable".
    """


class PoolFailure(Exception):
    """Internal: one pool is dead (connection loss, crash, op timeout).

    The coordinator's cue to fail over.  An explicit error *reply* raises
    ``RuntimeError`` instead: the pool is alive and the request itself is
    wrong, so retrying elsewhere would fail identically.
    """

    def __init__(self, pool, cause: str) -> None:
        super().__init__(f"pool {pool.name!r} failed: {cause}")
        self.pool = pool
        self.cause = cause


# -- sharding ----------------------------------------------------------------------


def shard_dataset(dataset: TrajectoryDataset, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous trajectory spans ``[lo, hi)`` balanced by snapshot count.

    Degenerate inputs shrink the plan instead of producing unusable spans:
    ``n_shards`` is capped at the trajectory count (no shard is ever empty
    -- the engine refuses empty datasets), and a span that would hold only
    zero-length trajectories is merged into its neighbour, so every
    returned span contains at least one snapshot whenever the dataset has
    any.  A dataset of *only* empty trajectories collapses to the single
    span ``[(0, n)]``.  The result may therefore have fewer than
    ``n_shards`` entries.  Spans stay contiguous and ordered, so
    concatenating per-shard per-trajectory results reproduces dataset
    order.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot shard an empty dataset")
    n_shards = max(1, min(n_shards, n))
    cum = np.cumsum(dataset.lengths())
    total = int(cum[-1])
    if total == 0:
        return [(0, n)]
    bounds = [0]
    for s in range(1, n_shards):
        cut = int(np.searchsorted(cum, total * s / n_shards))
        cut = max(cut, bounds[-1] + 1)  # at least one trajectory per shard
        cut = min(cut, n - (n_shards - s))  # leave one for each later shard
        bounds.append(cut)
    bounds.append(n)
    spans = [(bounds[i], bounds[i + 1]) for i in range(n_shards)]

    def _snapshots(lo: int, hi: int) -> int:
        return int(cum[hi - 1] - (cum[lo - 1] if lo else 0))

    merged: list[tuple[int, int]] = []
    carry_lo: int | None = None  # leading all-empty spans extend the next one
    for lo, hi in spans:
        start = lo if carry_lo is None else carry_lo
        if _snapshots(lo, hi) == 0:
            if merged:
                merged[-1] = (merged[-1][0], hi)
            else:
                carry_lo = start
            continue
        merged.append((start, hi))
        carry_lo = None
    return merged


def _skew(values: Sequence[float]) -> float:
    """Imbalance ratio ``max / mean`` of per-span quantities.

    ``1.0`` is perfectly balanced; spans are balanced by *snapshot count*,
    so skewed cell density shows up here as index-entry (and therefore
    work) skew even though the spans look fair.
    """
    if not len(values):
        return 1.0
    mean = sum(values) / len(values)
    return float(max(values) / mean) if mean > 0 else 1.0


def span_dataset(dataset: TrajectoryDataset, lo: int, hi: int) -> TrajectoryDataset:
    """Trajectories ``[lo, hi)`` of ``dataset`` as a dataset, without copies.

    A store-backed dataset yields a lazy span of the same store; an
    in-RAM dataset yields a slice sharing its trajectory objects.
    """
    store = getattr(dataset, "store", None)
    if store is not None:
        base = dataset.traj_lo
        return store.span(base + lo, base + hi)
    return TrajectoryDataset(dataset.trajectories[lo:hi])


# -- exact merges -------------------------------------------------------------------
#
# Determinism contract: every function folds its inputs **in the order
# given**, and the coordinator passes per-span results in global span
# order (ascending ``lo``).  Floating-point addition is order-sensitive, so
# the coordinator always performs one flat merge over per-span results --
# never merges partial merges -- and then *which pool computed a span*
# (inline, fork worker, remote pool, or a survivor after a re-dispatch)
# cannot change a single bit of the reduction.


def merge_batch_sums(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise left-fold sum of per-span ``nm_batch``/``match_batch`` rows.

    ``parts`` must be ordered by span.  The fold is a plain sequential
    ``out += part`` so the reduction order is a pure function of the span
    partition, independent of arrival order or worker placement.
    """
    arrays = [np.asarray(p) for p in parts]
    out = arrays[0].copy()
    for part in arrays[1:]:
        out += part
    return out


def merge_scalar_sums(parts: Sequence[float]) -> float:
    """Left-fold sum of per-span scalar totals (gap-pattern NM)."""
    total = 0.0
    for part in parts:
        total += float(part)
    return total


def merge_singular_tables(
    tables: Sequence[dict[int, float]],
    span_sizes: Sequence[int],
    floor: float,
    n_total: int,
) -> dict[int, float]:
    """Merge per-span singular tables with floor completion.

    A span where a cell is inactive contributes the floor once per span
    trajectory.  ``floor`` is ``min_log_prob`` for NM tables and
    ``exp(min_log_prob)`` for match tables; ``tables`` and ``span_sizes``
    must be in span order.
    """
    totals: dict[int, float] = {}
    counted: dict[int, int] = {}
    for table, n_span in zip(tables, span_sizes):
        for cell, value in table.items():
            totals[cell] = totals.get(cell, 0.0) + value
            counted[cell] = counted.get(cell, 0) + n_span
    return {
        cell: total + floor * (n_total - counted[cell])
        for cell, total in totals.items()
    }


def merge_extension_tables(span_tables: Sequence[ExtensionTables]) -> ExtensionTables:
    """Merge one prefix's per-span extension tables into full-dataset ones.

    Each span reports its extension tables *plus* the base totals an
    inactive cell would score there; a cell missing from a span's table
    contributes that span's base -- making the merged table exactly the
    full-dataset one.  The merged base totals are the sums of the span
    bases.  ``span_tables`` must be in span order.
    """
    nm_merged: dict[int, float] = {}
    match_merged: dict[int, float] = {}
    active: set[int] = set()
    for t in span_tables:
        active.update(t.nm_by_cell)
    for cell in active:
        nm_merged[cell] = sum(
            t.nm_by_cell.get(cell, t.nm_base_total) for t in span_tables
        )
        match_merged[cell] = sum(
            t.match_by_cell.get(cell, t.match_base_total) for t in span_tables
        )
    return ExtensionTables(
        nm_merged,
        match_merged,
        sum(t.nm_base_total for t in span_tables),
        sum(t.match_base_total for t in span_tables),
    )


# -- the span op table ----------------------------------------------------------------


def _patterns(cells_list) -> list[TrajectoryPattern]:
    return [TrajectoryPattern(tuple(cells)) for cells in cells_list]


def _gap_nm(engine, pattern) -> float:
    from repro.core.wildcards import nm_gap_pattern  # deferred: wildcards imports us

    return float(nm_gap_pattern(engine, pattern))


def _obs(engine, _payload) -> dict:
    return {
        "backend": engine.backend_name,
        "n_entries": int(engine.n_index_entries),
        "n_evaluations": int(engine.n_evaluations),
        "n_batches": int(engine.n_batches),
        "metrics": metrics.get_registry().snapshot(),
    }


#: The one table of what a span can be asked.  Payloads are plain python
#: (cell tuples or a gap pattern), so the fork pipe carries them as they
#: are and the dist wire only encodes and decodes them
#: (:mod:`repro.dist.wire`, whose op list derives from this table).
SPAN_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "nm_batch": lambda e, p: e.nm_batch(_patterns(p)),
    "match_batch": lambda e, p: e.match_batch(_patterns(p)),
    "singular_nm": lambda e, p: e.singular_nm_table(),
    "singular_match": lambda e, p: e.singular_match_table(),
    "ext_tables": lambda e, p: e.extension_tables_many(_patterns(p)),
    "gap_nm": _gap_nm,
    "obs_snapshot": _obs,
}


def span_op(engine, op: str, payload):
    """Evaluate one op against one span engine (every pool kind calls this)."""
    try:
        fn = SPAN_OPS[op]
    except KeyError:
        raise ValueError(f"unknown span op {op!r}") from None
    return fn(engine, payload)


def span_meta(engine: NMEngine) -> dict:
    """What a pool reports about a span engine it just opened."""
    return {
        "n_entries": int(engine.n_index_entries),
        "active_cells": engine.active_cells,
        "backend": engine.backend_name,
        "cache_hit": bool(engine.index_cache_hit),
    }


@dataclass(frozen=True)
class _SpanTask:
    """Everything needed to build one span's engine, in any process."""

    index: int  # span ordinal in global span order
    dataset: TrajectoryDataset  # the span's trajectories (lazy for stores)
    grid: Grid
    config: EngineConfig
    cache_key: str | None  # span cache entry (None: no cache_dir)
    trace: tracing.SpanContext | None = None  # parent trace propagation
    metrics_enabled: bool = False  # mirror the parent registry's state

    def build(self) -> NMEngine:
        return NMEngine(self.dataset, self.grid, self.config, cache_key=self.cache_key)


# -- pools ---------------------------------------------------------------------------
#
# Every pool exposes the same small surface to the coordinator: ``open``
# takes span ordinals (building their engines and reporting each one's
# meta through ``owner._opened``), ``dispatch`` sends one op for a subset
# of its spans without waiting, ``collect`` gathers the per-span results,
# ``drain_trace_records`` pulls buffered worker spans and ``close``
# releases everything.  Pool death surfaces as PoolFailure; any other
# error is the op's own and propagates to the caller once every pending
# reply has been read.


class InlinePool:
    """Spans evaluated one at a time in this process; nothing stays resident.

    Opening a span builds nothing: every op builds the span's engine (or
    loads it from the span cache), evaluates and drops it, so a cold run
    scans each span once per op.  A span's meta comes from its first scan;
    :meth:`scan` runs one early when a meta is read before any op.
    """

    def __init__(self, name: str, owner: "ParallelNMEngine") -> None:
        self.name = name
        self.owner = owner
        self.spans: list[int] = []
        self._tallies: dict[int, _Tally] = {}
        self._pending: tuple[str, Any, list[int]] | None = None

    def scan(self, i: int) -> NMEngine:
        """Build span ``i``'s engine and report it to the owner."""
        engine = self.owner._task(i).build()
        meta = span_meta(engine)
        self.owner._opened(i, meta)
        tally = self._tallies[i]
        tally.backend_name = meta["backend"]
        tally.n_index_entries = meta["n_entries"]
        return engine

    def open(self, indices: Sequence[int]) -> None:
        for i in indices:
            self._tallies.setdefault(i, _Tally())
            if i not in self.spans:
                self.spans.append(i)

    def dispatch(self, op: str, payload, indices: Sequence[int]) -> None:
        self._pending = (op, payload, list(indices))

    def collect(self) -> dict[int, Any]:
        op, payload, indices = self._pending
        self._pending = None
        out = {}
        for i in indices:
            tally = self._tallies[i]
            if op == "obs_snapshot":
                if not tally.backend_name:
                    self.scan(i)  # never scanned: its entry count is not known yet
                out[i] = span_op(tally, op, payload)
                continue
            engine = self.scan(i)
            out[i] = span_op(engine, op, payload)
            tally.n_evaluations += engine.n_evaluations
            tally.n_batches += engine.n_batches
        return out

    def drain_trace_records(self) -> list:
        return []  # span engines traced straight into this process's tracer

    def close(self) -> None:
        self.spans = []
        self._pending = None


@dataclass
class _Tally:
    """Counters of an inline span, whose engines do not outlive an op."""

    backend_name: str = ""  # set by the span's first scan
    n_index_entries: int = 0
    n_evaluations: int = 0
    n_batches: int = 0


def _worker_main(conn, task: _SpanTask) -> None:
    """Fork worker loop: build one span engine, then serve span ops."""
    # Fresh per-process observability: forget (never close -- the file
    # handle is shared under fork) any inherited tracer, trace into a
    # local buffer the parent drains over the pipe, and reset the metrics
    # registry so counters are per-span.
    tracing.forget_tracer()
    trace_sink: tracing.BufferSink | None = None
    if task.trace is not None:
        trace_sink = tracing.BufferSink()
        tracing.configure_tracing(
            sink=trace_sink,
            trace_id=task.trace.trace_id,
            ambient_parent=task.trace.span_id,
            base_attrs={"shard": task.index},
        )
    registry = metrics.get_registry()
    registry.reset()
    registry.enabled = task.metrics_enabled
    try:
        faults.fire("parallel.worker.start", shard=task.index)
        engine = task.build()
        conn.send(("ok", span_meta(engine)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass  # parent already gone; exit quietly
        conn.close()
        return
    try:
        while True:
            try:
                op, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "close":
                break
            try:
                faults.fire("parallel.worker.op", shard=task.index, op=op)
                if op == "obs_drain":
                    result = trace_sink.drain() if trace_sink is not None else []
                else:
                    result = span_op(engine, op, payload)
                conn.send(("ok", result))
            except BaseException:
                try:
                    conn.send(("error", traceback.format_exc()))
                except (OSError, ValueError):
                    break  # parent is gone: nothing to report to
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ForkPool:
    """Fork workers on this machine, one per assigned span."""

    def __init__(self, name: str, owner: "ParallelNMEngine") -> None:
        self.name = name
        self.owner = owner
        self.spans: list[int] = []
        self._workers: dict[int, tuple[Any, Any]] = {}  # span -> (conn, proc)
        self._pending: list[int] = []
        self._ctx = mp.get_context("fork")

    def open(self, indices: Sequence[int]) -> None:
        for i in indices:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn, self.owner._task(i)), daemon=True
            )
            proc.start()
            child_conn.close()
            self._workers[i] = (parent_conn, proc)
            self.spans.append(i)
            metrics.counter("parallel.workers_started").inc()
        # Workers build concurrently; the metas are read afterwards.
        self._pending = list(indices)
        metas = self.collect()
        for i in indices:
            self.owner._opened(i, metas[i])

    def dispatch(self, op: str, payload, indices: Sequence[int]) -> None:
        self._pending = list(indices)
        for i in self._pending:
            conn, _proc = self._workers[i]
            try:
                conn.send((op, payload))
            except (OSError, ValueError) as exc:
                raise PoolFailure(self, self._death(i, exc)) from exc

    def collect(self) -> dict[int, Any]:
        pending, self._pending = self._pending, []
        out: dict[int, Any] = {}
        error: str | None = None
        for i in pending:
            conn, _proc = self._workers[i]
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise PoolFailure(self, self._death(i, exc)) from exc
            if status == "error":
                error = error or f"span worker {i} failed:\n{payload}"
            else:
                out[i] = payload
        if error is not None:
            raise RuntimeError(error)
        return out

    def _death(self, i: int, cause: BaseException) -> str:
        _conn, proc = self._workers[i]
        proc.join(timeout=5)
        metrics.counter("parallel.worker_crash").inc()
        return f"span worker {i} died (exitcode {proc.exitcode}): {type(cause).__name__}"

    def drain_trace_records(self) -> list:
        records: list = []
        for conn, _proc in self._workers.values():
            try:
                conn.send(("obs_drain", None))
                if not conn.poll(5):
                    continue
                status, payload = conn.recv()
            except (EOFError, OSError, ValueError):
                continue
            if status == "ok":
                records.extend(payload)
        return records

    def close(self) -> None:
        for conn, _proc in self._workers.values():
            try:
                conn.send(("close", None))
            except (OSError, ValueError):
                pass
        for conn, proc in self._workers.values():
            try:
                conn.close()
            except OSError:
                pass
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self._workers.clear()
        self.spans = []
        self._pending = []


def parse_pool_spec(spec: str) -> tuple[str, tuple[str, int] | None]:
    """Parse one pool spec: ``"inline"``, ``"local"`` or ``"host:port"``."""
    if spec in ("inline", "local"):
        return spec, None
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"pool spec {spec!r} must be 'inline', 'local' or 'host:port'")
    try:
        return "remote", (host, int(port))
    except ValueError as exc:
        raise ValueError(f"pool spec {spec!r}: bad port") from exc


# -- the coordinator ------------------------------------------------------------------


class ParallelNMEngine:
    """Span-sharded NM/match evaluation with the :class:`NMEngine` surface.

    Parameters
    ----------
    dataset, grid, config:
        Exactly as for :class:`~repro.core.engine.NMEngine`.
        ``config.cache_dir`` enables the per-span index cache.
    jobs:
        Number of spans to cut (a positive int, capped at the trajectory
        count).
    pools:
        Pool specs, assigned spans round-robin: ``"inline"``, ``"local"``
        (fork workers, the default) or ``"host:port"`` (a ``repro worker``
        whose local copy of the dataset's ``.tjc`` store hashes
        identically; remote pools need a store-backed dataset).

    The instance owns worker processes and sockets; call :meth:`close` (or
    use it as a context manager) to release them.  Results equal the
    single-process engine to floating-point accuracy, and are
    bit-identical across pool kinds for one span partition.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        grid: Grid,
        config: EngineConfig,
        jobs: int,
        *,
        pools: Sequence[str] = ("local",),
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot build an engine over an empty dataset")
        if not _positive_int(jobs):
            raise ValueError(f"jobs must be a positive int, got {jobs!r}")
        if not pools:
            raise ValueError("at least one pool is required")
        specs = [parse_pool_spec(spec) for spec in pools]
        if any(kind == "remote" for kind, _ in specs) and not hasattr(dataset, "store"):
            raise ValueError(
                "remote pools need a store-backed dataset: they are shipped "
                "(store_hash, lo, hi) spans, never data -- convert with "
                "`repro convert` and reopen via repro.storage"
            )
        self.dataset = dataset
        self.grid = grid
        self.config = config
        self.spans = shard_dataset(dataset, jobs)
        self.n_spans = len(self.spans)
        self._closed = False
        self._fingerprint = (
            index_cache.dataset_fingerprint(dataset)
            if config.cache_dir is not None
            else None
        )
        self._trace_ctx = tracing.current_context()
        self._metrics_enabled = metrics.get_registry().enabled
        self._opens = [0] * self.n_spans
        self._cache_hits = [0] * self.n_spans
        self._metas: dict[int, dict] = {}  # span -> meta of its first open
        self._active_cells: list[int] | None = None
        self._assignment: dict[int, Any] = {}
        self._pools: list = []
        for i, (kind, address) in enumerate(specs):
            name = f"{kind}-{i}"
            if kind == "inline":
                self._pools.append(InlinePool(name, self))
            elif kind == "local":
                self._pools.append(ForkPool(name, self))
            else:
                from repro.dist.pool import RemotePool  # deferred: socket/wire code

                self._pools.append(RemotePool(name, address, self))
        self._live = list(self._pools)
        try:
            self._start()
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # -- startup ---------------------------------------------------------------

    def _start(self) -> None:
        for i in range(self.n_spans):
            self._assignment[i] = self._live[i % len(self._live)]
        self._open(range(self.n_spans))
        metrics.gauge("parallel.pools_live").set(len(self._live))
        _log.info(
            "span pools ready",
            extra={
                "pools": self.pool_names,
                "spans": self.spans,
            },
        )

    def _task(self, i: int) -> _SpanTask:
        """The build recipe of span ``i`` (pools call this to open a span)."""
        lo, hi = self.spans[i]
        key = None
        if self._fingerprint is not None:
            key = index_cache.span_cache_key(
                self._fingerprint,
                lo,
                hi,
                self.grid,
                self.config,
                kernel_tag=kernels.prob_kernel_tag(self.config),
            )
        return _SpanTask(
            index=i,
            dataset=span_dataset(self.dataset, lo, hi),
            grid=self.grid,
            config=self.config,
            cache_key=key,
            trace=self._trace_ctx,
            metrics_enabled=self._metrics_enabled,
        )

    def _opened(self, i: int, meta: dict) -> None:
        """Count one span engine construction (pools call this)."""
        self._opens[i] += 1
        self._cache_hits[i] += int(bool(meta["cache_hit"]))
        self._metas.setdefault(i, meta)

    def _span_metas(self) -> list[dict]:
        """Every span's meta in span order.

        Fork and remote pools report metas when they open a span; an inline
        span reports its meta on its first scan, so one read before any op
        is scanned here.
        """
        for i in range(self.n_spans):
            if i not in self._metas:
                if self._closed:
                    raise RuntimeError("ParallelNMEngine is closed")
                self._assignment[i].scan(i)
        return [self._metas[i] for i in range(self.n_spans)]

    # -- dispatch with failover ----------------------------------------------

    def _by_pool(self, indices) -> dict[Any, list[int]]:
        by_pool: dict[Any, list[int]] = {}
        for i in indices:
            by_pool.setdefault(self._assignment[i], []).append(i)
        return by_pool

    def _open(self, indices) -> None:
        """Open spans on their assigned pools, failing over pools that die."""
        for pool, pool_spans in self._by_pool(indices).items():
            missing = [i for i in pool_spans if i not in pool.spans]
            if not missing:
                continue
            try:
                pool.open(missing)
            except PoolFailure as exc:
                self._fail_pool(pool, exc.cause)
                self._open(pool_spans)

    def _fail_pool(self, pool, cause: str) -> None:
        """Retire a dead pool and hand its spans to the survivors."""
        if pool not in self._live:
            return
        self._live.remove(pool)
        metrics.counter("parallel.pool_failover").inc()
        metrics.gauge("parallel.pools_live").set(len(self._live))
        orphaned = [i for i, p in self._assignment.items() if p is pool]
        _log.warning(
            "pool failed; re-dispatching spans",
            extra={
                "pool": pool.name,
                "cause": cause,
                "orphaned_spans": orphaned,
                "survivors": self.pool_names,
            },
        )
        try:
            pool.close()
        except Exception:  # noqa: BLE001 - teardown of a dead pool
            pass
        if not self._live:
            self._abort()
            raise WorkerCrashError(
                f"{cause}; pool {pool.name!r} failed and no pool survives; "
                "engine closed"
            )
        metrics.counter("parallel.spans_redispatched").inc(len(orphaned))
        for n, i in enumerate(orphaned):
            self._assignment[i] = self._live[n % len(self._live)]

    def _recv(self, pool) -> dict[int, Any]:
        """Wait for one pool's per-span results of the op in flight.

        The coordinator's only wait point, for every pool kind; the
        benchmark's layer tracing wraps it as ``parallel.wait``.
        """
        return pool.collect()

    def _run(self, op: str, payload=None) -> dict[int, Any]:
        """Run one op over every span, surviving pool deaths.

        Results come back keyed by span ordinal; the callers fold them in
        global span order through the merge functions.
        """
        if self._closed:
            raise RuntimeError("ParallelNMEngine is closed")
        todo = list(range(self.n_spans))
        results: dict[int, Any] = {}
        while todo:
            dispatched = []
            for pool, pool_spans in self._by_pool(todo).items():
                try:
                    pool.dispatch(op, payload, pool_spans)
                    dispatched.append(pool)
                except PoolFailure as exc:
                    self._fail_pool(pool, exc.cause)
            # Every dispatched pool is collected before an error is raised,
            # so no pool is left holding a stale reply for the next op.
            error: Exception | None = None
            for pool in dispatched:
                try:
                    results.update(self._recv(pool))
                except PoolFailure as exc:
                    self._fail_pool(pool, exc.cause)
                except Exception as exc:  # noqa: BLE001 - the pool is alive
                    error = error or exc
            if error is not None:
                raise error
            todo = [i for i in todo if i not in results]
            if todo:
                self._open(todo)
        return results

    def _gather(self, op: str, payload=None) -> list:
        """One op over every span, results in global span order."""
        results = self._run(op, payload)
        return [results[i] for i in range(self.n_spans)]

    # -- metadata --------------------------------------------------------------

    @property
    def active_cells(self) -> list[int]:
        """Cells with at least one above-floor entry, ascending (union)."""
        if self._active_cells is None:
            cells: set[int] = set()
            for meta in self._span_metas():
                cells.update(int(c) for c in meta["active_cells"])
            self._active_cells = sorted(cells)
        return list(self._active_cells)

    @property
    def n_index_entries(self) -> int:
        """Stored (snapshot, cell) entries summed over the span indexes."""
        return int(sum(meta["n_entries"] for meta in self._span_metas()))

    @property
    def index_cache_hit(self) -> bool:
        """True when every span's first open loaded its index from the cache."""
        return all(meta["cache_hit"] for meta in self._span_metas())

    @property
    def shard_skew(self) -> float:
        """Max/mean of per-span index entries."""
        return _skew([meta["n_entries"] for meta in self._span_metas()])

    @property
    def floor_log_prob(self) -> float:
        """The log-space probability floor."""
        return self.config.min_log_prob

    @property
    def backend_name(self) -> str:
        """Kernel backend the span engines resolved to ("numpy", "cnative", ...).

        Workers resolve the backend in their own process, so a
        "compiled"/"auto" config may land differently there than in the
        parent; this reports what the spans actually run.
        """
        return str(self._span_metas()[0]["backend"])

    @property
    def pool_names(self) -> list[str]:
        """Names of the pools still alive, in spec order."""
        return [pool.name for pool in self._live]

    # -- observability ------------------------------------------------------------

    def obs_snapshot(self) -> dict:
        """Per-span counters plus imbalance gauges, for every pool kind.

        ``spans`` holds one entry per span in global order: its ordinal,
        trajectory range, owning pool, index entries, evaluations, batches,
        how often its engine was opened and how many of those opens loaded
        the span cache, and the metric snapshot of the process that serves
        it.  ``shard_skew`` (max/mean of per-span index entries) and
        ``eval_skew`` (max/mean of per-span evaluations) surface imbalance
        that snapshot-balanced spans over skewed cell density cause.
        ``span_opens`` / ``span_cache_hits`` total the open counts; for an
        inline pool an open is one span scan.
        """
        replies = self._gather("obs_snapshot")
        spans = [
            {
                "span": i,
                "trajectories": list(self.spans[i]),
                "pool": self._assignment[i].name,
                "opens": self._opens[i],
                "cache_hits": self._cache_hits[i],
                **reply,
            }
            for i, reply in enumerate(replies)
        ]
        entry_skew = _skew([s["n_entries"] for s in spans])
        eval_skew = _skew([s["n_evaluations"] for s in spans])
        metrics.gauge("parallel.shard_skew").set(entry_skew)
        metrics.gauge("parallel.eval_skew").set(eval_skew)
        return {
            "n_spans": self.n_spans,
            "pools": self.pool_names,
            "backend": spans[0]["backend"],
            "n_index_entries": sum(s["n_entries"] for s in spans),
            "n_evaluations": sum(s["n_evaluations"] for s in spans),
            "n_batches": sum(s["n_batches"] for s in spans),
            "span_opens": sum(self._opens),
            "span_cache_hits": sum(self._cache_hits),
            "shard_skew": entry_skew,
            "eval_skew": eval_skew,
            "spans": spans,
        }

    def drain_trace(self) -> int:
        """Pull buffered worker span records into the parent's trace sink.

        Fork workers and remote pools trace into in-memory buffers; this
        drains them and writes the records verbatim, so span-side
        ``index.build`` / ``engine.nm_batch`` spans land in the parent's
        JSONL file already parented to the span that was current when the
        engine was constructed.  Best-effort: dead workers are skipped.
        Returns the number of records written; called by :meth:`close`.
        """
        if self._trace_ctx is None or tracing.get_tracer() is None or self._closed:
            return 0
        total = 0
        for pool in list(self._live):
            records = pool.drain_trace_records()
            if records:
                tracing.emit_foreign(records)
                total += len(records)
        return total

    # -- batched measures --------------------------------------------------------

    def nm_batch(self, patterns: Sequence[PatternLike]) -> np.ndarray:
        """``NM(P)`` of a whole candidate batch: sum of per-span NM sums."""
        if not len(patterns):
            return np.empty(0)
        cells_list = [pattern_cells(p) for p in patterns]
        return merge_batch_sums(self._gather("nm_batch", cells_list))

    def match_batch(self, patterns: Sequence[PatternLike]) -> np.ndarray:
        """Dataset match of a whole candidate batch, in order."""
        if not len(patterns):
            return np.empty(0)
        cells_list = [pattern_cells(p) for p in patterns]
        return merge_batch_sums(self._gather("match_batch", cells_list))

    def nm(self, pattern: PatternLike) -> float:
        """``NM(P)`` over the dataset: a one-pattern batch."""
        return float(self.nm_batch([pattern])[0])

    def match(self, pattern: PatternLike) -> float:
        """Dataset match of ``pattern``: a one-pattern batch."""
        return float(self.match_batch([pattern])[0])

    # -- singular tables -----------------------------------------------------------

    def _span_sizes(self) -> list[int]:
        return [hi - lo for lo, hi in self.spans]

    def singular_nm_table(self) -> dict[int, float]:
        """NM of every active singular pattern (exact span reduction)."""
        return merge_singular_tables(
            self._gather("singular_nm"),
            self._span_sizes(),
            self.config.min_log_prob,
            len(self.dataset),
        )

    def singular_match_table(self) -> dict[int, float]:
        """Match of every active singular pattern (exact span reduction)."""
        return merge_singular_tables(
            self._gather("singular_match"),
            self._span_sizes(),
            float(np.exp(self.config.min_log_prob)),
            len(self.dataset),
        )

    # -- extension tables ----------------------------------------------------------

    def extension_tables_many(
        self, patterns: Sequence[TrajectoryPattern]
    ) -> list[ExtensionTables]:
        """Span-sharded :meth:`NMEngine.extension_tables_many`."""
        patterns = list(patterns)
        if not patterns:
            return []
        cells_list = [p.cells for p in patterns]
        per_span: list[list[ExtensionTables]] = self._gather("ext_tables", cells_list)
        return [
            merge_extension_tables([tables[i] for tables in per_span])
            for i in range(len(patterns))
        ]

    # -- gap patterns ------------------------------------------------------------

    def nm_gap_pattern_total(self, pattern) -> float:
        """Dataset NM of a :class:`~repro.core.wildcards.GapPattern`.

        Each span runs the alignment DP; per-trajectory bests sum exactly.
        :func:`repro.core.wildcards.nm_gap_pattern` dispatches here.
        """
        return merge_scalar_sums(self._gather("gap_nm", pattern))

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Drain worker traces, then stop every pool.

        Idempotent; also registered with ``atexit`` and invoked by the
        context-manager exit and the finaliser.
        """
        if self._closed:
            return
        try:
            # Last chance to collect worker spans; tolerate dead workers
            # or an already-shut tracer (close may run from atexit).
            self.drain_trace()
        except Exception:  # noqa: BLE001 - close must never raise
            pass
        self._abort()

    def _abort(self) -> None:
        """Unconditional teardown: stop every pool, mark closed.

        Sets ``_closed`` *first*: any teardown step that indirectly
        re-enters messaging hits the closed guard instead of recursing.
        """
        if self._closed:
            return
        self._closed = True
        for pool in self._pools:
            try:
                pool.close()
            except Exception:  # noqa: BLE001
                pass
        self._live = []
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover
            pass

    def __enter__(self) -> "ParallelNMEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
