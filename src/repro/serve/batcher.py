"""Adaptive micro-batching with admission control and load shedding.

The engine's batched evaluation (:meth:`~repro.core.engine.NMEngine.nm_batch`)
amortises a large fixed per-call cost over a whole candidate frontier -- but
online requests arrive one at a time.  :class:`MicroBatcher` recreates the
frontier at the serving layer (continuous-batching style): concurrent
requests land in one bounded queue and a single worker coroutine drains
them into batches, closing each batch on whichever comes first --

* **size**: ``max_batch`` items collected;
* **delay**: ``max_delay`` elapsed since the *lead* item was enqueued (a
  backlogged queue therefore closes batches back-to-back with zero added
  latency -- the delay bound only ever waits when the queue is empty);
* **boundary**: the next queued item has a different *key* (batches are
  homogeneous in key; the server keys by (snapshot, operation), which is
  what lets a hot snapshot swap proceed without mixing generations).

Overload protection happens at two points, both producing *explicit*
:class:`OverloadedError` results rather than unbounded queueing:

* **admission** -- a full queue sheds immediately (``queue_full``), and a
  request whose deadline cannot plausibly be met given the current queue
  depth and the EMA batch service time is shed up-front (``deadline``) --
  better to refuse in microseconds than to time out after the fact;
* **dispatch** -- items whose deadline expired while queued are dropped
  from the batch before evaluation (``deadline_expired``).

Everything runs on one event loop; the handler itself is ``async`` and
typically hops to a worker thread for the numpy-heavy evaluation, keeping
the loop responsive for admission decisions while a batch is in flight.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Hashable

from repro.obs import logs, metrics, tracing

_log = logs.get_logger("serve.batcher")

#: EMA smoothing for the batch service-time estimate used at admission.
_EMA_ALPHA = 0.2

#: Idle gap, in units of max(max_delay, ema), after which the service-time
#: estimate starts decaying.  An EMA learned under load says nothing about
#: an idle server (caches cool, but queues are empty), so after a gap the
#: estimate halves once per further grace period instead of shedding the
#: first request of a quiet morning against last night's rush hour.
_EMA_IDLE_GRACE = 10.0


class OverloadedError(Exception):
    """Explicit load-shed: the request was refused, not processed.

    ``reason`` is one of ``queue_full``, ``deadline``, ``deadline_expired``
    or ``shutdown``.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class BatchStats:
    """Counters exposed through the admin ``stats`` op."""

    batches: int = 0
    items: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_expired: int = 0
    closed_size: int = 0
    closed_delay: int = 0
    closed_boundary: int = 0
    max_batch_size: int = 0
    ema_batch_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "items": self.items,
            "mean_batch_size": self.items / self.batches if self.batches else 0.0,
            "max_batch_size": self.max_batch_size,
            "shed": {
                "queue_full": self.shed_queue_full,
                "deadline": self.shed_deadline,
                "deadline_expired": self.shed_expired,
            },
            "closed_on": {
                "size": self.closed_size,
                "delay": self.closed_delay,
                "boundary": self.closed_boundary,
            },
            "ema_batch_s": self.ema_batch_s,
        }


class _Item:
    __slots__ = ("key", "payload", "deadline", "enqueued", "future", "ctx", "ts_ns")

    def __init__(self, key, payload, deadline, enqueued, future, ctx, ts_ns) -> None:
        self.key = key
        self.payload = payload
        self.deadline = deadline
        self.enqueued = enqueued
        self.future = future
        # Trace context of the submitting request (None when tracing is
        # off) and the wall-clock enqueue time backing the after-the-fact
        # ``serve.queue`` span.
        self.ctx = ctx
        self.ts_ns = ts_ns


class MicroBatcher:
    """Coalesces awaitable submissions into handler calls (see module docs).

    Parameters
    ----------
    handler:
        ``async (key, payloads) -> results`` with ``len(results) ==
        len(payloads)``; called once per closed batch.  An exception fails
        every item of the batch with that exception.
    max_batch:
        Size bound per batch.
    max_delay:
        Seconds the lead item of a batch may wait for company.
    max_queue:
        Bound on queued (admitted, not yet dispatched) items; admission
        beyond it sheds.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        handler: Callable[[Hashable, list[Any]], Awaitable[list[Any]]],
        *,
        max_batch: int = 64,
        max_delay: float = 0.002,
        max_queue: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self._handler = handler
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.max_queue = max_queue
        self._clock = clock
        self._queue: deque[_Item] = deque()
        self._event = asyncio.Event()
        self._worker: asyncio.Task | None = None
        self._closed = False
        self._last_batch_done: float | None = None
        self.stats = BatchStats()
        #: Trace context of the batch currently in the handler (None
        #: outside a handler call or when the batch is untraced).  There
        #: is exactly one worker coroutine, so at most one batch is in
        #: flight; the server's eval path reads this to parent its
        #: ``serve.eval.*`` spans under the batch span.
        self.batch_context: tracing.SpanContext | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker coroutine (idempotent)."""
        if self._worker is None:
            self._closed = False
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name="micro-batcher"
            )

    async def close(self) -> None:
        """Stop the worker and shed everything still queued."""
        self._closed = True
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        while self._queue:
            item = self._queue.popleft()
            if not item.future.done():
                item.future.set_exception(OverloadedError("shutdown"))
        metrics.gauge("serve.queue_depth").set(0)

    # -- admission ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def estimated_wait_s(self) -> float:
        """Rough queueing delay a new submission would see right now."""
        if self.stats.ema_batch_s <= 0.0:
            return 0.0
        batches_ahead = len(self._queue) / self.max_batch + 1.0
        return self.stats.ema_batch_s * batches_ahead

    def _decay_stale_ema(self, now: float) -> None:
        """Halve the service-time EMA once per grace period of idleness.

        The EMA is only updated when batches complete, so after an idle gap
        it describes a load regime that no longer exists; left alone it
        would shed the first requests after the gap (the cold-start bug).
        Decay is applied lazily at admission time and the idle anchor is
        advanced, so a long gap decays once by the whole elapsed multiple
        rather than compounding per call.
        """
        ema = self.stats.ema_batch_s
        if ema <= 0.0 or self._last_batch_done is None:
            return
        grace = _EMA_IDLE_GRACE * max(self.max_delay, ema)
        idle = now - self._last_batch_done
        if idle <= grace:
            return
        self.stats.ema_batch_s = ema * 0.5 ** (idle / grace)
        self._last_batch_done = now

    async def submit(
        self,
        key: Hashable,
        payload: Any,
        deadline: float | None = None,
        ctx: tracing.SpanContext | None = None,
    ) -> Any:
        """Enqueue one payload and await its result.

        ``deadline`` is an absolute clock() time; raises
        :class:`OverloadedError` instead of queueing when the queue is full
        or the deadline is hopeless.  Predictive shedding only applies when
        work is actually queued: an empty queue admits any live deadline,
        because the estimate is the only evidence of overload and an
        estimate (however stale) is not a queue.

        ``ctx`` (the submitting request's span context; pass only when
        tracing is on) makes the item's queue wait and batch visible as
        child spans of that request.
        """
        if self._closed or self._worker is None:
            raise OverloadedError("shutdown")
        if len(self._queue) >= self.max_queue:
            self.stats.shed_queue_full += 1
            metrics.counter("serve.shed.queue_full").inc()
            raise OverloadedError("queue_full")
        now = self._clock()
        self._decay_stale_ema(now)
        if deadline is not None:
            hopeless = self._queue and now + self.estimated_wait_s() > deadline
            if deadline <= now or hopeless:
                self.stats.shed_deadline += 1
                metrics.counter("serve.shed.deadline").inc()
                raise OverloadedError("deadline")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        ts_ns = time.time_ns() if ctx is not None else 0
        self._queue.append(_Item(key, payload, deadline, now, future, ctx, ts_ns))
        metrics.gauge("serve.queue_depth").set(len(self._queue))
        self._event.set()
        return await future

    # -- the worker --------------------------------------------------------

    async def _next_item(self) -> _Item:
        while not self._queue:
            self._event.clear()
            await self._event.wait()
        return self._queue.popleft()

    async def _run(self) -> None:
        while True:
            batch: list[_Item] = []
            try:
                lead = await self._next_item()
                batch = [lead]
                close_on = "size"
                deadline_close = lead.enqueued + self.max_delay
                while len(batch) < self.max_batch:
                    if self._queue:
                        if self._queue[0].key != lead.key:
                            close_on = "boundary"
                            break
                        batch.append(self._queue.popleft())
                        continue
                    remaining = deadline_close - self._clock()
                    if remaining <= 0:
                        close_on = "delay"
                        break
                    self._event.clear()
                    try:
                        await asyncio.wait_for(self._event.wait(), remaining)
                    except asyncio.TimeoutError:
                        close_on = "delay"
                        break
                metrics.gauge("serve.queue_depth").set(len(self._queue))
                await self._dispatch(lead.key, batch, close_on)
                # Drop the dispatched items before waiting for the next
                # one: their payloads pin the snapshot that admitted them,
                # which an idle worker would otherwise keep alive after a
                # swap retired it.
                lead = None
                batch = []
            except asyncio.CancelledError:
                # close() cancelled the worker after it had popped items
                # off the queue but before their futures resolved: shed
                # them explicitly, or their submitters hang forever.
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(OverloadedError("shutdown"))
                raise

    def _emit_queue_span(self, item: _Item, now: float, shed: str | None) -> None:
        """Record an item's queue wait as an after-the-fact child span."""
        attrs = {"depth": len(self._queue)}
        if shed is not None:
            attrs["shed"] = shed
        tracing.record_span(
            "serve.queue",
            item.ctx,
            item.ts_ns,
            int((now - item.enqueued) * 1e9),
            attrs,
        )

    async def _dispatch(self, key, batch: list[_Item], close_on: str) -> None:
        now = self._clock()
        live: list[_Item] = []
        for item in batch:
            if item.future.cancelled():
                continue
            if item.deadline is not None and item.deadline <= now:
                self.stats.shed_expired += 1
                metrics.counter("serve.shed.deadline_expired").inc()
                if item.ctx is not None:
                    self._emit_queue_span(item, now, shed="deadline_expired")
                item.future.set_exception(OverloadedError("deadline_expired"))
                continue
            if item.ctx is not None:
                self._emit_queue_span(item, now, shed=None)
            live.append(item)
        if not live:
            return
        setattr(self.stats, f"closed_{close_on}", getattr(self.stats, f"closed_{close_on}") + 1)
        self.stats.batches += 1
        self.stats.items += len(live)
        self.stats.max_batch_size = max(self.stats.max_batch_size, len(live))
        metrics.histogram("serve.batch_size").observe(len(live))
        metrics.counter(f"serve.batch.closed_{close_on}").inc()
        # The batch span is parented under the first traced item's request
        # span; the remaining items' requests still join the tree through
        # their own serve.queue spans and the shared trace file.
        lead_ctx = next((item.ctx for item in live if item.ctx is not None), None)
        batch_span = (
            tracing.begin(
                "serve.batch", ctx=lead_ctx, n_items=len(live), close_on=close_on
            )
            if lead_ctx is not None
            else tracing.NOOP_SPAN
        )
        self.batch_context = batch_span.context()
        t0 = self._clock()
        try:
            results = await self._handler(key, [item.payload for item in live])
        except asyncio.CancelledError:
            # close() cancelled the worker mid-handler: the batch's waiters
            # would otherwise hang forever on futures nobody resolves.
            for item in live:
                if not item.future.done():
                    item.future.set_exception(OverloadedError("shutdown"))
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            _log.warning(
                "batch handler failed",
                extra={"error": type(exc).__name__, "n_items": len(live)},
            )
            batch_span.finish(error=type(exc).__name__)
            for item in live:
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            return
        finally:
            self.batch_context = None
        done = self._clock()
        batch_span.finish()
        elapsed = done - t0
        ema = self.stats.ema_batch_s
        self.stats.ema_batch_s = (
            elapsed if ema == 0.0 else (1 - _EMA_ALPHA) * ema + _EMA_ALPHA * elapsed
        )
        self._last_batch_done = done
        metrics.histogram("serve.batch.eval_ns", unit="ns").observe(elapsed * 1e9)
        if len(results) != len(live):  # pragma: no cover - handler contract
            error = RuntimeError("batch handler returned wrong result count")
            for item in live:
                if not item.future.cancelled():
                    item.future.set_exception(error)
            return
        for item, result in zip(live, results):
            if not item.future.cancelled():
                item.future.set_result(result)
