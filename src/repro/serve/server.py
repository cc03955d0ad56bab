"""The asyncio pattern-serving server (``repro serve``).

One process, one event loop, one evaluation thread.  Connections speak
the NDJSON protocol of :mod:`repro.serve.protocol`; every request line
becomes a task, so pipelined requests on one connection are processed
concurrently and the :class:`~repro.serve.batcher.MicroBatcher` can
coalesce them (responses correlate by ``id``, not order).

Threading model: all admission, batching and socket work stays on the
event loop; the numpy-heavy engine/library evaluation runs on a dedicated
single-worker thread pool.  One worker is deliberate -- the engine is
CPU-bound (more threads would just contend on the GIL between numpy
calls) and a single evaluation lane makes the batch service time that the
admission controller estimates actually meaningful.

Requests capture the current :class:`~repro.serve.snapshot.ServingSnapshot`
at admission and batches are keyed by *that object*, so an admin ``swap``
is atomic from the clients' perspective: in-flight requests finish against
the generation that admitted them, later requests see the new one, and no
batch ever mixes generations.

Overload behaviour differs by op on purpose: ``score`` sheds with an
explicit ``overloaded`` error (the client owns the retry policy), while
``predict`` *degrades* -- it answers from the dead-reckoning motion model
alone (``"degraded": true``), because a tracking client needs some answer
every tick and the motion model is exactly the paper's fallback when no
pattern confirms.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.prediction import PatternLibrary
from repro.core.engine import NMEngine
from repro.core.incremental import IncrementalIndexer
from repro.core.trajpattern import TrajPatternMiner
from repro.mobility.models import make_model
from repro.obs import logs, manifest, metrics, tracing
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, OverloadedError
from repro.serve.snapshot import ServingSnapshot, SnapshotStore
from repro.testkit import faults
from repro.trajectory.dataset import TrajectoryDataset

_log = logs.get_logger("serve.server")

#: Requests of one connection in flight at once.  Past it the connection's
#: reader takes no more lines until one of its requests is answered, so a
#: client that pipelines without reading its responses is held back by TCP
#: flow control instead of growing the server's tasks and pending
#: responses without bound.  It is twice ``ServeConfig.max_batch``'s
#: default, so one pipelining client can still fill a whole batch.
_MAX_INFLIGHT_PER_CONN = 128


@dataclass
class ServeConfig:
    """Server tuning knobs (defaults are sane for small datasets).

    ``port = 0`` asks the OS for a free port (the bound port is available
    as ``PatternServer.port`` after ``start()``).  ``max_delay_ms`` is the
    micro-batching window: the most latency an isolated request pays to
    wait for company.  ``default_timeout_ms`` is the per-request deadline
    when the client does not send ``timeout_ms``; ``None`` disables
    deadlines by default.  ``fallback_model`` names the dead-reckoning
    model (``lm`` / ``lkf`` / ``rmf``) answering degraded predictions.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    max_delay_ms: float = 2.0
    max_queue: int = 512
    default_timeout_ms: float | None = 1000.0
    fallback_model: str = "lm"
    allow_shutdown: bool = True
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")


@dataclass
class IngestConfig:
    """Live-stream ingestion knobs (the ``ingest`` op is off without one).

    ``remine_every`` is the republish cadence in ingest batches: every
    N-th batch triggers a warm-started re-mine and a snapshot swap (1 =
    republish on every batch).  ``window`` bounds resident trajectories --
    after each append the oldest beyond the window are evicted (sliding
    window over arrival order); ``None`` keeps everything.  ``k`` /
    ``min_length`` parameterise the top-k re-mine that feeds the published
    pattern library.
    """

    k: int = 8
    remine_every: int = 1
    window: int | None = None
    min_length: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.remine_every < 1:
            raise ValueError("remine_every must be positive")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be positive")
        if self.min_length < 1:
            raise ValueError("min_length must be at least 1")


class _LiveIngest:
    """The server's live mining state: an indexer and its current engine.

    Owns an :class:`IncrementalIndexer` seeded from the boot snapshot: an
    eager dataset copy, and the boot engine's CSR index arrays taken as
    they are.  Each fold replaces the indexer's engine with a new one and
    never writes into the arrays it read, so the boot engine and every
    published engine stay frozen.  Every engine here adopts a CSR, so
    ingest neither reads nor writes the on-disk index cache: no boot
    loads a grown dataset, so an entry for one would never be read.  A
    republish re-mines the indexer's engine and publishes that same
    engine; its pattern library keeps the boot snapshot's ``predict``
    settings (``confirm_threshold``, ``min_prefix``) and evaluates on the
    engine's kernel backend.  All methods run on the server's single
    evaluation thread; the event loop serialises ingest requests with a
    lock.
    """

    def __init__(self, snapshot: ServingSnapshot, config: IngestConfig) -> None:
        # An eager copy detaches the live dataset from a store-backed boot
        # snapshot, so retiring that generation can close its file handle.
        dataset = TrajectoryDataset(
            list(snapshot.dataset), metadata={"origin": snapshot.version}
        )
        engine = NMEngine(
            dataset,
            snapshot.grid,
            snapshot.engine.config,
            csr=snapshot.engine.index_csr(),
        )
        self.indexer = IncrementalIndexer(engine, window=config.window)
        self.config = config
        self.base_version = snapshot.version
        self.confirm_threshold = snapshot.confirm_threshold
        self.min_prefix = snapshot.min_prefix
        self.generation = 0
        self.batches = 0
        self.warm_state = None
        self.last_mine_iterations = 0
        self.last_mine_s = 0.0

    def fold(
        self, reports: list
    ) -> tuple[dict[str, Any], ServingSnapshot | None]:
        """Append one report batch; re-mine and build a snapshot on cadence."""
        stats = self.indexer.append(reports)
        self.batches += 1
        summary: dict[str, Any] = {
            "appended": stats["appended"],
            "evicted": stats["evicted"],
            "n_trajectories": stats["n_trajectories"],
            "total_snapshots": stats["total_snapshots"],
            "generation": self.generation,
            "republished": False,
        }
        if self.batches % self.config.remine_every != 0:
            return summary, None
        engine = self.indexer.engine
        miner = TrajPatternMiner(
            engine,
            k=self.config.k,
            min_length=self.config.min_length,
            warm_state=self.warm_state,
        )
        result = miner.mine()
        self.warm_state = result.warm_state
        self.last_mine_iterations = result.stats.iterations
        self.last_mine_s = result.stats.wall_time_s
        self.generation += 1
        library = PatternLibrary(
            result.patterns,
            engine.grid,
            delta=engine.config.delta,
            confirm_threshold=self.confirm_threshold,
            min_prefix=self.min_prefix,
            kernels=engine.kernel_backend,
        )
        snapshot = ServingSnapshot(
            f"{self.base_version}+g{self.generation}",
            engine.dataset,
            engine.grid,
            engine,
            library=library,
            source="<ingest>",
            confirm_threshold=self.confirm_threshold,
            min_prefix=self.min_prefix,
        )
        summary.update(
            republished=True,
            generation=self.generation,
            version=snapshot.version,
            mine_iterations=result.stats.iterations,
            omega=result.omega,
            top_k=[
                {"cells": [int(c) for c in p.cells], "nm": float(nm)}
                for p, nm in result.as_pairs()
            ],
        )
        return summary, snapshot

    def stats(self) -> dict[str, Any]:
        engine = self.indexer.engine
        return {
            "generation": self.generation,
            "batches": self.batches,
            "n_trajectories": len(engine.dataset),
            "total_snapshots": engine.dataset.total_snapshots(),
            "n_index_entries": engine.n_index_entries,
            "appends": self.indexer.appends,
            "evictions": self.indexer.evictions,
            "last_fold_s": self.indexer.last_fold_s,
            "last_mine_iterations": self.last_mine_iterations,
            "last_mine_s": self.last_mine_s,
        }


class PatternServer:
    """Serve scoring / prediction / admin queries for a snapshot store."""

    def __init__(
        self,
        store: SnapshotStore,
        config: ServeConfig | None = None,
        ingest: IngestConfig | None = None,
    ) -> None:
        self.store = store
        self.config = config or ServeConfig()
        self.ingest_config = ingest
        self._ingest_state: _LiveIngest | None = None
        self._ingest_lock = asyncio.Lock()
        self._server: asyncio.base_events.Server | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-eval"
        )
        self._batcher = MicroBatcher(
            self._evaluate_batch,
            max_batch=self.config.max_batch,
            max_delay=self.config.max_delay_ms / 1000.0,
            max_queue=self.config.max_queue,
        )
        self._shutdown = asyncio.Event()
        self._started_at: float | None = None
        self._run_span = None
        self._run_ctx: tracing.SpanContext | None = None
        self.requests_served = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> tuple[str, int]:
        """Bind, spawn the batcher worker and accept connections."""
        self._run_span = tracing.span(
            "serve.run",
            version=self.store.current.version,
            host=self.config.host,
        )
        self._run_span.__enter__()
        self._run_ctx = self._run_span.context()
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._started_at = time.monotonic()
        host, port = self._server.sockets[0].getsockname()[:2]
        _log.info(
            "serving",
            extra={"host": host, "port": port, "version": self.store.current.version},
        )
        return host, port

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) arrives."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._batcher.close()
        self._executor.shutdown(wait=False)
        if self._run_span is not None:
            self._run_span.__exit__(None, None, None)
            self._run_span = None
            self._run_ctx = None

    # -- connection handling -----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics.counter("serve.connections").inc()
        write_lock = asyncio.Lock()
        inflight = asyncio.Semaphore(_MAX_INFLIGHT_PER_CONN)
        tasks: set[asyncio.Task] = set()
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(
                            code="bad_request", detail="request line too long"
                        ),
                    )
                    break
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # EOF mid-frame: the peer died (or was cut off) part-way
                    # through writing a request.  A torn frame is not a
                    # request -- executing it would act on a truncated JSON
                    # document that happens to parse (e.g. a shutdown whose
                    # arguments were lost), so it is dropped.
                    metrics.counter("serve.torn_frames").inc()
                    _log.debug("dropping torn frame at EOF", extra={"bytes": len(line)})
                    break
                if not line.strip():
                    continue
                await inflight.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock, inflight)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Server teardown cancels handler tasks blocked in readline;
            # swallow so the cancellation is a clean close, not log noise.
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        inflight: asyncio.Semaphore,
    ) -> None:
        t0 = time.monotonic_ns()
        rid = None
        op = "unknown"
        req_ctx: tracing.SpanContext | None = None
        try:
            try:
                request = protocol.decode_line(line)
                rid = protocol.request_id(request)
                op = request.get("op")
                if op not in protocol.OPS:
                    raise protocol.ProtocolError(
                        f"unknown op {op!r}", code="unknown_op"
                    )
                protocol.check_version(request)
                inbound = protocol.parse_trace(request)
                metrics.counter(f"serve.{op}.requests").inc()
                # The request span adopts the caller's wire context when one
                # was sent (joining the client's trace across the socket) and
                # otherwise hangs off the server's own run span.  Its context
                # flows into the batcher so queue/batch/eval become children.
                with tracing.span_at(
                    inbound if inbound is not None else self._run_ctx,
                    f"serve.{op}",
                ) as req_span:
                    req_ctx = req_span.context()
                    response = await self._dispatch(op, request, rid, req_ctx)
            except protocol.ProtocolError as exc:
                metrics.counter("serve.errors.bad_request").inc()
                response = protocol.error_response(
                    rid, exc.code, exc.detail, **exc.fields
                )
            except OverloadedError as exc:
                metrics.counter("serve.errors.overloaded").inc()
                response = protocol.error_response(
                    rid, "overloaded", reason=exc.reason
                )
            except Exception as exc:  # noqa: BLE001 - must answer the client
                _log.warning(
                    "internal error",
                    extra={"op": op, "error": type(exc).__name__},
                )
                metrics.counter("serve.errors.internal").inc()
                response = protocol.error_response(
                    rid, "internal", f"{type(exc).__name__}: {exc}"
                )
            self.requests_served += 1
            if req_ctx is not None:
                ts_ns = time.time_ns()
                send_t0 = time.perf_counter_ns()
                await self._send(writer, write_lock, response)
                tracing.record_span(
                    "serve.respond",
                    req_ctx,
                    ts_ns,
                    time.perf_counter_ns() - send_t0,
                )
            else:
                await self._send(writer, write_lock, response)
        finally:
            inflight.release()
            if isinstance(op, str) and op in protocol.OPS:
                metrics.sliding_quantile_histogram(
                    f"serve.{op}.latency_ns", unit="ns"
                ).observe(
                    time.monotonic_ns() - t0,
                    exemplar=req_ctx.trace_id if req_ctx is not None else None,
                )

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
    ) -> None:
        async with write_lock:
            try:
                writer.write(protocol.encode(response))
                await writer.drain()
            except (OSError, RuntimeError):
                # The client hung up with this response in flight.  Responses
                # are awaited by per-request tasks that share the batcher
                # pipeline with *other* connections, so a write failure here
                # must stay here: raising would poison the gather in
                # _on_connection and count as an internal error for work
                # that actually completed.  RuntimeError covers writes
                # racing transport/event-loop teardown; ConnectionError is
                # an OSError subclass.
                metrics.counter("serve.dropped_responses").inc()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(
        self, op: str, request: dict, rid: Any, ctx: tracing.SpanContext | None
    ) -> dict:
        if op == "hello":
            protocol.parse_hello(request)
            return protocol.ok_response(
                rid,
                version=protocol.PROTOCOL_VERSION,
                capabilities=list(protocol.CAPABILITIES),
                snapshot_version=self.store.current.version,
            )
        if op == "score":
            return await self._handle_score(request, rid, ctx)
        if op == "predict":
            return await self._handle_predict(request, rid, ctx)
        if op == "health":
            return protocol.ok_response(
                rid,
                status="ok",
                version=self.store.current.version,
                uptime_s=(
                    time.monotonic() - self._started_at
                    if self._started_at is not None
                    else 0.0
                ),
            )
        if op == "stats":
            return protocol.ok_response(rid, stats=self.stats())
        if op == "describe":
            snapshot = self.store.acquire()
            try:
                return protocol.ok_response(rid, **snapshot.describe())
            finally:
                self.store.release(snapshot)
        if op == "swap":
            return await self._handle_swap(request, rid)
        if op == "ingest":
            return await self._handle_ingest(request, rid)
        # op == "shutdown"
        if not self.config.allow_shutdown:
            raise protocol.ProtocolError(
                "shutdown is disabled on this server", code="forbidden"
            )
        self._shutdown.set()
        return protocol.ok_response(rid, stopping=True)

    def _deadline(self, request: dict) -> float | None:
        timeout_ms = protocol.parse_timeout_ms(
            request, self.config.default_timeout_ms
        )
        if timeout_ms is None:
            return None
        return time.monotonic() + timeout_ms / 1000.0

    async def _handle_score(
        self, request: dict, rid: Any, ctx: tracing.SpanContext | None
    ) -> dict:
        # Pin the admitted generation until evaluation finishes: a swap
        # landing mid-batch retires the old snapshot, and a store-backed one
        # closes its file handle the moment the last pin drops.
        snapshot = self.store.acquire()
        try:
            patterns, measure = protocol.parse_score(request, snapshot.grid.n_cells)
            values = await self._batcher.submit(
                (id(snapshot), measure),
                _ScoreWork(snapshot, measure, patterns),
                deadline=self._deadline(request),
                ctx=ctx,
            )
        finally:
            self.store.release(snapshot)
        return protocol.ok_response(
            rid,
            measure=measure,
            values=protocol.values_field(values),
            version=snapshot.version,
        )

    async def _handle_predict(
        self, request: dict, rid: Any, ctx: tracing.SpanContext | None
    ) -> dict:
        snapshot = self.store.acquire()
        try:
            recent, sigma = protocol.parse_predict(request)
            result = await self._batcher.submit(
                (id(snapshot), "predict"),
                _PredictWork(snapshot, recent, sigma),
                deadline=self._deadline(request),
                ctx=ctx,
            )
        except OverloadedError as exc:
            # Degrade, don't refuse: a tracking client needs an answer every
            # tick, and the motion model is the paper's own fallback.
            metrics.counter("serve.predict.degraded").inc()
            position = _motion_model_position(recent, self.config.fallback_model)
            return protocol.ok_response(
                rid,
                position=[float(position[0]), float(position[1])],
                source="model",
                degraded=True,
                reason=exc.reason,
                version=snapshot.version,
            )
        finally:
            self.store.release(snapshot)
        position, source = result
        return protocol.ok_response(
            rid,
            position=[float(position[0]), float(position[1])],
            source=source,
            degraded=False,
            version=snapshot.version,
        )

    async def _handle_swap(self, request: dict, rid: Any) -> dict:
        path = protocol.parse_swap(request)
        loop = asyncio.get_running_loop()
        try:
            snapshot = await loop.run_in_executor(
                None, lambda: ServingSnapshot.load(path, cache_dir=self.config.cache_dir)
            )
        except (OSError, ValueError) as exc:
            raise protocol.ProtocolError(f"cannot load snapshot: {exc}") from exc
        previous = self.store.swap(snapshot)
        metrics.counter("serve.swaps").inc()
        return protocol.ok_response(
            rid, version=snapshot.version, previous=previous.version
        )

    async def _handle_ingest(self, request: dict, rid: Any) -> dict:
        if self.ingest_config is None:
            raise protocol.ProtocolError(
                "ingest is not enabled on this server", code="forbidden"
            )
        reports = protocol.parse_ingest(request)
        loop = asyncio.get_running_loop()
        # One fold at a time: report batches are order-dependent (the
        # sliding window evicts in arrival order) and each fold starts from
        # the engine the previous one built.  The fold itself runs on the
        # evaluation thread, serialised with score/predict batches.
        async with self._ingest_lock:
            if self._ingest_state is None:
                boot = self.store.acquire()
                try:
                    self._ingest_state = await loop.run_in_executor(
                        self._executor, _LiveIngest, boot, self.ingest_config
                    )
                finally:
                    self.store.release(boot)
            summary, snapshot = await loop.run_in_executor(
                self._executor, self._ingest_state.fold, reports
            )
        if snapshot is not None:
            self.store.swap(snapshot)
            metrics.counter("serve.ingest.republished").inc()
        metrics.counter("serve.ingest.reports").inc(len(reports))
        return protocol.ok_response(rid, **summary)

    # -- evaluation --------------------------------------------------------

    async def _evaluate_batch(self, key: Any, payloads: list[Any]) -> list[Any]:
        faults.fire("serve.batch.handler", key=key, n_items=len(payloads))
        loop = asyncio.get_running_loop()
        # The batcher publishes the in-flight batch's span context; passing
        # it explicitly keeps the eval span parented correctly from inside
        # the executor thread (the ambient stack belongs to the loop thread).
        ctx = self._batcher.batch_context
        if isinstance(payloads[0], _ScoreWork):
            return await loop.run_in_executor(
                self._executor, _evaluate_score_batch, payloads, ctx
            )
        return await loop.run_in_executor(
            self._executor,
            _evaluate_predict_batch,
            payloads,
            self.config.fallback_model,
            ctx,
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        current = self.store.current
        return {
            "version": current.version,
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "requests_served": self.requests_served,
            "swaps": self.store.swaps,
            "queue_depth": self._batcher.queue_depth,
            "batcher": self._batcher.stats.as_dict(),
            "rss_peak_bytes": manifest.peak_rss_bytes(),
            **manifest.process_gauges(),
            # The served snapshot's index: entries and resident bytes.
            "index_entries": current.engine.n_index_entries,
            "index_bytes": current.engine.index_nbytes,
            "latency": self._latency_stats(),
            "ingest": (
                self._ingest_state.stats()
                if self._ingest_state is not None
                else None
            ),
        }

    def _latency_stats(self) -> dict:
        """Per-op latency quantiles from the metrics registry.

        Empty when metrics are disabled (the batcher counters above are
        always on, so ``repro top`` still has a dashboard without them).
        Each op reports all-time quantiles plus the last-60s rolling
        window, which decays after load stops -- unlike all-time p99,
        which remembers every spike forever.
        """
        registry = metrics.get_registry()
        out: dict = {}
        for op in protocol.OPS:
            hist = registry.find_histogram(f"serve.{op}.latency_ns")
            if hist is None or hist.count == 0:
                continue
            entry: dict = {
                "count": hist.count,
                "mean_ms": hist.mean / 1e6,
                "max_ms": hist.max / 1e6,
            }
            if isinstance(hist, metrics.QuantileHistogram):
                entry["all_time_ms"] = {
                    k: v / 1e6 for k, v in hist.quantiles().items()
                }
            if isinstance(hist, metrics.SlidingQuantileHistogram):
                window = hist.window_snapshot()
                entry["window"] = {
                    "window_s": window["window_s"],
                    "count": window["count"],
                    "rate_per_s": window["rate_per_s"],
                    "quantiles_ms": {
                        k: v / 1e6 for k, v in window["quantiles"].items()
                    },
                    "exemplars": window["exemplars"],
                }
            out[op] = entry
        return out


class _ScoreWork:
    __slots__ = ("snapshot", "measure", "patterns")

    def __init__(self, snapshot, measure, patterns) -> None:
        self.snapshot = snapshot
        self.measure = measure
        self.patterns = patterns


class _PredictWork:
    __slots__ = ("snapshot", "recent", "sigma")

    def __init__(self, snapshot, recent, sigma) -> None:
        self.snapshot = snapshot
        self.recent = recent
        self.sigma = sigma


def _evaluate_score_batch(
    works: list[_ScoreWork], ctx: tracing.SpanContext | None = None
) -> list[np.ndarray]:
    """One engine call for a whole batch: concatenate, evaluate, split.

    Every work item shares the batch key, hence the same snapshot and
    measure -- this is where micro-batching pays, because
    ``nm_batch(m patterns)`` costs far less than ``m`` calls of 1.
    """
    snapshot = works[0].snapshot
    engine = snapshot.engine
    flat = [p for work in works for p in work.patterns]
    with tracing.span_at(
        ctx, "serve.eval.score", n_requests=len(works), n_patterns=len(flat)
    ):
        if works[0].measure == "nm":
            values = engine.nm_batch(flat)
        else:
            values = engine.match_batch(flat)
    out: list[np.ndarray] = []
    offset = 0
    for work in works:
        out.append(values[offset : offset + len(work.patterns)])
        offset += len(work.patterns)
    return out


def _evaluate_predict_batch(
    works: list[_PredictWork],
    fallback_model: str,
    ctx: tracing.SpanContext | None = None,
) -> list[tuple[np.ndarray, str]]:
    """Pattern-confirmed next positions, motion-model fallback otherwise."""
    out: list[tuple[np.ndarray, str]] = []
    with tracing.span_at(ctx, "serve.eval.predict", n_requests=len(works)):
        for work in works:
            library = work.snapshot.library
            position = None
            if library is not None:
                # Velocity patterns confirm against the velocity history;
                # differencing doubles the variance, hence sqrt(2) sigma.
                velocities = np.diff(work.recent, axis=0)
                v_next = library.predict_next_velocity(
                    velocities, float(np.sqrt(2.0)) * work.sigma
                )
                if v_next is not None:
                    position = work.recent[-1] + v_next
            if position is not None:
                out.append((position, "pattern"))
            else:
                out.append(
                    (_motion_model_position(work.recent, fallback_model), "model")
                )
    return out


def _motion_model_position(recent: np.ndarray, model_name: str) -> np.ndarray:
    """Dead-reckoning prediction from the recent reports alone."""
    model = make_model(model_name)
    for t, point in enumerate(recent):
        model.observe(float(t), point)
    return np.asarray(model.predict(float(len(recent))), dtype=float)
