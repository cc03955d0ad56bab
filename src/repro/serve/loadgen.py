"""Load generator for the serving layer (``repro loadgen``).

Two modes sharing one report shape:

* **closed loop** (default): ``concurrency`` workers, each with its own
  connection, each holding exactly one request in flight -- measures the
  server's throughput at a fixed concurrency level, which is what the
  micro-batching benchmark compares (batched vs per-request evaluation at
  concurrency 32).
* **open loop** (``qps`` set): requests are *scheduled* at the target
  rate regardless of completions, pipelined round-robin over the worker
  connections -- the honest way to measure overload behaviour, because a
  closed loop self-throttles exactly when the server slows down
  (coordinated omission).  Under deliberate over-driving, the report
  separates explicit ``overloaded`` responses from completed work and the
  latency percentiles cover the *admitted* requests only.

The generator first issues ``describe`` and synthesizes requests from the
answer (active cells for ``score``, grid geometry for ``predict``), so it
needs nothing but the address.  All randomness is seeded -- two runs
against the same snapshot issue the same request stream.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs import tracing
from repro.serve import protocol

#: The shape of synthesized requests is fixed, so every run against one
#: snapshot with one seed sends the same stream and recorded serving
#: numbers stay comparable across runs.  Cells per ``score`` pattern:
#: about the mean length of mined patterns (section 6.1 reports 3.2-4.2).
_PATTERN_LENGTH = 3

#: Position reports per ``predict`` request: five velocity steps, more
#: than the prediction library's default ``min_prefix`` of two, so a
#: pattern can confirm before the motion model has to answer.
_RECENT_POINTS = 6

#: How long a run waits for responses still in flight after its last send;
#: requests unanswered by then are reported as ``no_response``.
_DRAIN_TIMEOUT_S = 30.0


@dataclass
class LoadgenConfig:
    """What to send, where, and how hard.

    With ``trace=True`` (and a configured global tracer) the generator
    originates one trace: a ``loadgen.run`` root span, one
    ``client.request`` span per request, and the wire context attached to
    every request -- so the server's queue/batch/eval spans land in the
    *client's* trace and ``repro report`` renders the joined tree.
    """

    host: str = "127.0.0.1"
    port: int = 0
    requests: int = 200
    concurrency: int = 8
    qps: float | None = None  # None = closed loop
    op: str = "score"  # "score", "predict" or "mixed"
    measure: str = "nm"
    patterns_per_request: int = 1
    timeout_ms: float | None = None
    seed: int = 0
    trace: bool = False
    reconnect_backoff_s: float = 0.25
    reconnect_cap_s: float = 5.0
    reconnect_attempts: int = 5

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be at least 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.qps is not None and self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.op not in ("score", "predict", "mixed"):
            raise ValueError("op must be score, predict or mixed")


@dataclass
class _Tally:
    """Mutable counters shared by the workers.

    ``shed_reasons`` / ``degraded_reasons`` break the coarse counters
    down by the server's explicit reason (``queue_full`` / ``deadline`` /
    ``deadline_expired``), which is what the SLO availability math wants.
    ``records`` (per-request outcome + span id; populated only when
    tracing) is how client-side observations join against the server
    trace.
    """

    completed: int = 0
    ok: int = 0
    overloaded: int = 0
    degraded: int = 0
    errors: int = 0
    reconnects: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    shed_reasons: dict[str, int] = field(default_factory=dict)
    degraded_reasons: dict[str, int] = field(default_factory=dict)
    records: list[dict] | None = None

    def record(
        self,
        response: dict,
        latency_ns: int,
        op: str | None = None,
        span=None,
    ) -> None:
        self.completed += 1
        status = "ok"
        if response.get("ok"):
            self.ok += 1
            if response.get("degraded"):
                self.degraded += 1
                status = "degraded"
                reason = str(response.get("reason", "unknown"))
                self.degraded_reasons[reason] = self.degraded_reasons.get(reason, 0) + 1
            self.latencies_ns.append(latency_ns)
        elif response.get("error") == "overloaded":
            self.overloaded += 1
            status = "overloaded"
            reason = str(response.get("reason", "unknown"))
            self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        else:
            self.errors += 1
            status = str(response.get("error", "error"))
        if span is not None:
            span.finish(status=status)
        if self.records is not None:
            entry: dict = {
                "id": response.get("id"),
                "op": op,
                "status": status,
                "latency_ms": latency_ns / 1e6,
            }
            if span is not None:
                entry["span"] = span.span_id
            self.records.append(entry)


async def _request_once(reader, writer, request: dict) -> dict:
    writer.write(protocol.encode(request))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return protocol.decode_line(line)


async def _connect(config: "LoadgenConfig"):
    return await asyncio.open_connection(
        config.host, config.port, limit=protocol.MAX_LINE_BYTES
    )


async def _reconnect(config: "LoadgenConfig", tally: "_Tally"):
    """Re-establish one connection with capped exponential backoff.

    Returns the new ``(reader, writer)`` pair, or ``None`` after
    ``reconnect_attempts`` consecutive failures -- a restarting server
    is ridden out, a gone server is reported, not spun on forever.
    """
    backoff = config.reconnect_backoff_s
    for _ in range(config.reconnect_attempts):
        await asyncio.sleep(backoff)
        backoff = min(backoff * 2, config.reconnect_cap_s)
        try:
            pair = await _connect(config)
        except OSError:
            continue
        tally.reconnects += 1
        return pair
    return None


def _begin_request_span(request: dict, root_ctx) -> tuple[dict, Any]:
    """Start a client span for one request and attach its wire context.

    Returns a *copy* of the request -- the deterministic stream itself is
    never mutated, so traced and untraced runs send identical payloads
    (plus the ``trace`` field).
    """
    span = tracing.begin(
        "client.request", ctx=root_ctx, op=request["op"], req_id=request["id"]
    )
    traced = dict(request)
    traced["trace"] = span.context().to_wire()
    return traced, span


def _make_requests(config: LoadgenConfig, describe: dict) -> list[dict]:
    """The full (deterministic) request stream, ids assigned 0..n-1."""
    rng = np.random.default_rng(config.seed)
    cells = describe.get("sample_active_cells") or [0]
    grid = describe["grid"]
    sigma = float(describe.get("sigma_typical") or 0.01) or 0.01
    span_x = grid["max_x"] - grid["min_x"]
    span_y = grid["max_y"] - grid["min_y"]
    requests: list[dict] = []
    for i in range(config.requests):
        op = config.op
        if op == "mixed":
            op = "score" if i % 2 == 0 else "predict"
        if op == "score":
            request: dict[str, Any] = {
                "op": "score",
                "id": i,
                "measure": config.measure,
                "patterns": [
                    [int(c) for c in rng.choice(cells, size=_PATTERN_LENGTH)]
                    for _ in range(config.patterns_per_request)
                ],
            }
        else:
            start = np.array(
                [
                    grid["min_x"] + rng.random() * span_x,
                    grid["min_y"] + rng.random() * span_y,
                ]
            )
            step = rng.normal(scale=2.0 * sigma, size=(_RECENT_POINTS, 2))
            recent = start + np.cumsum(step, axis=0)
            request = {
                "op": "predict",
                "id": i,
                "recent": [[float(x), float(y)] for x, y in recent],
                "sigma": sigma,
            }
        if config.timeout_ms is not None:
            request["timeout_ms"] = config.timeout_ms
        requests.append(request)
    return requests


async def _closed_loop(
    config: LoadgenConfig, requests: list[dict], root_ctx=None
) -> _Tally:
    tally = _Tally()
    if root_ctx is not None:
        tally.records = []
    queue: asyncio.Queue = asyncio.Queue()
    for request in requests:
        queue.put_nowait(request)

    async def worker() -> None:
        reader, writer = await _connect(config)
        try:
            while True:
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                span = None
                if root_ctx is not None:
                    request, span = _begin_request_span(request, root_ctx)
                t0 = time.monotonic_ns()
                while True:
                    try:
                        response = await _request_once(reader, writer, request)
                        break
                    except (ConnectionError, OSError):
                        # Lost mid-request: reconnect and resend (every
                        # loadgen op is idempotent).
                        pair = await _reconnect(config, tally)
                        if pair is None:
                            response = {
                                "ok": False,
                                "error": "connection_lost",
                                "id": request.get("id"),
                            }
                            break
                        reader, writer = pair
                tally.record(
                    response, time.monotonic_ns() - t0, op=request["op"], span=span
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    await asyncio.gather(*(worker() for _ in range(config.concurrency)))
    return tally


async def _open_loop(
    config: LoadgenConfig, requests: list[dict], root_ctx=None
) -> _Tally:
    """Fire at the target rate, pipelined; correlate responses by id."""
    tally = _Tally()
    if root_ctx is not None:
        tally.records = []
    connections = []
    for _ in range(config.concurrency):
        connections.append(await _connect(config))
    pending: dict[int, tuple[int, str, Any]] = {}  # id -> (send_ns, op, span)
    done = asyncio.Event()

    async def read_responses(reader) -> None:
        while tally.completed < len(requests):
            line = await reader.readline()
            if not line:
                return
            response = protocol.decode_line(line)
            entry = pending.pop(response.get("id"), None)
            if entry is None:
                continue
            sent_at, op, span = entry
            tally.record(response, time.monotonic_ns() - sent_at, op=op, span=span)
            if tally.completed == len(requests):
                done.set()
                return

    readers = [
        asyncio.get_running_loop().create_task(read_responses(reader))
        for reader, _ in connections
    ]
    interval = 1.0 / config.qps
    start = time.monotonic()
    for i, request in enumerate(requests):
        target = start + i * interval
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        index = i % len(connections)
        _, writer = connections[index]
        span = None
        if root_ctx is not None:
            request, span = _begin_request_span(request, root_ctx)
        pending[request["id"]] = (time.monotonic_ns(), request["op"], span)
        try:
            writer.write(protocol.encode(request))
            await writer.drain()
        except (ConnectionError, OSError):
            # The connection died; its in-flight responses are lost (the
            # drain pass below accounts for them).  Reconnect this slot
            # and resend the current request on the fresh connection.
            pair = await _reconnect(config, tally)
            if pair is None:
                continue
            connections[index] = pair
            readers.append(
                asyncio.get_running_loop().create_task(read_responses(pair[0]))
            )
            try:
                pair[1].write(protocol.encode(request))
                await pair[1].drain()
            except (ConnectionError, OSError):
                continue
    try:
        await asyncio.wait_for(done.wait(), timeout=_DRAIN_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    # Requests the drain timeout abandoned still get their client span
    # closed -- an unanswered request is an observation, not a leak.
    for _, _, span in pending.values():
        if span is not None:
            span.finish(status="no_response")
    for _, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return tally


def _percentiles(latencies_ns: list[int]) -> dict:
    if not latencies_ns:
        return {"p50_ms": None, "p95_ms": None, "p99_ms": None, "mean_ms": None, "max_ms": None}
    arr = np.asarray(latencies_ns, dtype=float) / 1e6
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
        "max_ms": float(arr.max()),
    }


async def run_loadgen(config: LoadgenConfig) -> dict:
    """Run the configured load against a live server; returns the report."""
    reader, writer = await asyncio.open_connection(
        config.host, config.port, limit=protocol.MAX_LINE_BYTES
    )
    try:
        describe = await _request_once(reader, writer, {"op": "describe"})
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    if not describe.get("ok"):
        raise RuntimeError(f"describe failed: {describe}")

    requests = _make_requests(config, describe)
    root_span = None
    root_ctx = None
    if config.trace and tracing.get_tracer() is not None:
        root_span = tracing.begin(
            "loadgen.run",
            mode="closed" if config.qps is None else "open",
            op=config.op,
            requests=len(requests),
        )
        root_ctx = root_span.context()
    t0 = time.monotonic()
    if config.qps is None:
        tally = await _closed_loop(config, requests, root_ctx)
    else:
        tally = await _open_loop(config, requests, root_ctx)
    duration = time.monotonic() - t0
    if root_span is not None:
        root_span.finish(completed=tally.completed, ok=tally.ok)

    report = {
        "mode": "closed" if config.qps is None else "open",
        "op": config.op,
        "target_qps": config.qps,
        "concurrency": config.concurrency,
        "sent": len(requests),
        "completed": tally.completed,
        "ok": tally.ok,
        "overloaded": tally.overloaded,
        "degraded": tally.degraded,
        "errors": tally.errors,
        "reconnects": tally.reconnects,
        "duration_s": duration,
        "achieved_qps": tally.completed / duration if duration > 0 else 0.0,
        "latency": _percentiles(tally.latencies_ns),
        "shed_reasons": tally.shed_reasons,
        "degraded_reasons": tally.degraded_reasons,
        "server_version": describe.get("version"),
    }
    if root_ctx is not None:
        report["trace_id"] = root_ctx.trace_id
    if tally.records is not None:
        report["requests"] = tally.records
    return report
