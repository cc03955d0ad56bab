"""Span tracing: context-manager spans emitting a JSONL event log.

A *span* is a named, timed region of the run (``index.build``,
``miner.iteration``, ``engine.nm_batch``).  Spans nest: the tracer keeps a
stack, so a span opened inside another records the outer span's id as its
parent, and a whole run reconstructs into a tree from the flat JSONL file.
One record is emitted per span when it closes:

.. code-block:: json

    {"kind": "span", "trace": "…", "span": "1a2b.3", "parent": "1a2b.2",
     "name": "engine.nm_batch", "ts_ns": 1712…, "dur_ns": 48211,
     "pid": 4711, "attrs": {"n_patterns": 443, "shard": 1}}

``ts_ns`` is wall-clock (``time.time_ns``, comparable across processes);
``dur_ns`` is measured with ``time.perf_counter_ns``.

Cross-process propagation
-------------------------
:class:`~repro.core.parallel.ParallelNMEngine` workers trace into a
:class:`BufferSink` configured with the parent's trace id and the span
that was current when the engine was constructed as *ambient parent*
(:func:`current_context`).  The parent drains the buffers over the
existing pipe protocol and writes the records into its own sink
(:func:`emit_foreign`), so shard-side index builds and batch evaluations
appear in the one trace file as children of the parent run span.

Disabled fast path: with no tracer configured (the default)
:func:`span` returns a shared no-op context manager -- one global read
per call, no clock access, no allocation.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, NamedTuple

#: Keys every span record carries; ``repro report`` validates against this.
SPAN_RECORD_KEYS = ("kind", "trace", "span", "name", "ts_ns", "dur_ns", "pid")


class SpanContext(NamedTuple):
    """Portable (trace id, parent span id) pair for propagation.

    Originally fork-scoped (parent -> shard worker); :meth:`to_wire` /
    :meth:`from_wire` make it socket-transportable, so a serving client
    can attach its context to an NDJSON request and the server parents
    its spans under the caller's -- one trace across processes *and*
    machines.  A NamedTuple rather than a dataclass: one is built per
    traced request on the serving hot path.
    """

    trace_id: str
    span_id: str | None

    def to_wire(self) -> dict:
        """JSON-safe form for embedding in a protocol request."""
        wire: dict = {"id": self.trace_id}
        if self.span_id is not None:
            wire["span"] = self.span_id
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "SpanContext":
        """Inverse of :meth:`to_wire`; raises ``ValueError`` on bad shapes."""
        if not isinstance(wire, dict):
            raise ValueError("trace context must be an object")
        trace_id = wire.get("id")
        span_id = wire.get("span")
        if not isinstance(trace_id, str) or not trace_id:
            raise ValueError("trace context needs a non-empty string 'id'")
        if span_id is not None and not isinstance(span_id, str):
            raise ValueError("trace context 'span' must be a string")
        return cls(trace_id, span_id)


class FileSink:
    """Append-only JSONL writer (one record per line, flushed per emit)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - defensive
            pass


class BufferSink:
    """In-memory record list; workers drain it over the pipe protocol."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def drain(self) -> list[dict]:
        records, self.records = self.records, []
        return records

    def close(self) -> None:
        # Keep the records: closing must not lose spans that have not been
        # drained yet (tests and the worker exit path read them afterwards).
        pass


class Span:
    """One traced region; use as a context manager or via begin/finish.

    ``trace_id`` is normally ``None`` (the span belongs to its tracer's
    trace); a span adopted from a remote caller carries the caller's
    trace id instead, so the record joins the *caller's* tree.

    *Detached* spans (:meth:`Tracer.span_at`, :meth:`Tracer.begin`) skip
    the ambient parent stack: their parent is fixed explicitly, and they
    never become the ambient parent of concurrently running code -- the
    right behaviour for interleaved asyncio request handling, where the
    stack top is whichever request happened to enter last.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "attrs",
        "_tracer",
        "_detached",
        "_ts_ns",
        "_t0",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: str | None,
        attrs: dict,
        trace_id: str | None = None,
        detached: bool = False,
    ) -> None:
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attrs = attrs
        self._tracer = tracer
        self._detached = detached

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def context(self) -> SpanContext:
        """This span as a propagation parent (for children elsewhere)."""
        return SpanContext(self.trace_id or self._tracer.trace_id, self.span_id)

    def finish(self, **attrs: Any) -> None:
        """End a span started with :meth:`Tracer.begin` and emit its record."""
        if attrs:
            self.attrs.update(attrs)
        self._tracer._end(self, time.perf_counter_ns() - self._t0)

    def __enter__(self) -> "Span":
        self._ts_ns = time.time_ns()
        self._t0 = time.perf_counter_ns()
        if not self._detached:
            self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur_ns = time.perf_counter_ns() - self._t0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._end(self, dur_ns)


class _NoopSpan:
    """Shared do-nothing span returned when tracing is off."""

    __slots__ = ()
    span_id = None
    parent_id = None
    trace_id = None

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def context(self) -> None:
        return None

    def finish(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Emits span records to a sink; tracks the current span stack."""

    def __init__(
        self,
        sink,
        trace_id: str | None = None,
        ambient_parent: str | None = None,
        base_attrs: dict | None = None,
    ) -> None:
        self.sink = sink
        self.trace_id = trace_id or os.urandom(8).hex()
        self.ambient_parent = ambient_parent
        self.base_attrs = dict(base_attrs or {})
        self._stack: list[Span] = []
        # pid prefix keeps ids unique across forked shard workers.
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._id_prefix = f"{self._pid:x}."
        self._emit = sink.emit  # bound once: emit is per-span hot

    def _next_id(self) -> str:
        return self._id_prefix + str(next(self._ids))

    def span(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1].span_id if self._stack else self.ambient_parent
        return Span(self, name, parent, attrs)

    def span_at(self, ctx: SpanContext | None, name: str, **attrs: Any) -> Span:
        """A *detached* span parented at ``ctx`` instead of the ambient stack.

        With ``ctx=None`` this is :meth:`span` (ambient parenting).  The
        span adopts ``ctx.trace_id``, so a server handler called with a
        client's wire context emits records into the client's trace.
        """
        if ctx is None:
            return self.span(name, **attrs)
        return Span(self, name, ctx.span_id, attrs, trace_id=ctx.trace_id, detached=True)

    def begin(self, name: str, ctx: SpanContext | None = None, **attrs: Any) -> Span:
        """Start a detached span immediately; end it with :meth:`Span.finish`.

        For regions that cannot be a ``with`` block -- e.g. a client
        request whose response arrives in a different coroutine.
        """
        span = Span(
            self,
            name,
            ctx.span_id if ctx is not None else self.ambient_parent,
            attrs,
            trace_id=ctx.trace_id if ctx is not None else None,
            detached=True,
        )
        span._ts_ns = time.time_ns()
        span._t0 = time.perf_counter_ns()
        return span

    def record_span(
        self,
        name: str,
        ctx: SpanContext | None,
        ts_ns: int,
        dur_ns: int,
        attrs: dict | None = None,
    ) -> None:
        """Emit an already-elapsed region as a span record (after the fact).

        For durations measured before anyone knew a span was wanted --
        e.g. queue wait, timed from enqueue but only attributable once the
        item is dispatched.
        """
        record = {
            "kind": "span",
            "trace": ctx.trace_id if ctx is not None else self.trace_id,
            "span": self._next_id(),
            "parent": ctx.span_id if ctx is not None else self.ambient_parent,
            "name": name,
            "ts_ns": int(ts_ns),
            "dur_ns": int(dur_ns),
            "pid": self._pid,
        }
        merged = {**self.base_attrs, **(attrs or {})} if self.base_attrs else attrs
        if merged:
            record["attrs"] = merged
        self._emit(record)

    def _end(self, span: Span, dur_ns: int) -> None:
        if not span._detached:
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            elif span in self._stack:  # pragma: no cover - out-of-order exits
                self._stack.remove(span)
        record = {
            "kind": "span",
            "trace": span.trace_id or self.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "ts_ns": span._ts_ns,
            "dur_ns": int(dur_ns),
            "pid": self._pid,
        }
        attrs = {**self.base_attrs, **span.attrs} if self.base_attrs else span.attrs
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def current_context(self) -> SpanContext:
        """Propagation handle: the trace id plus the innermost open span."""
        span_id = self._stack[-1].span_id if self._stack else self.ambient_parent
        return SpanContext(self.trace_id, span_id)

    def emit_foreign(self, records: list[dict]) -> None:
        """Write already-formed records (drained worker buffers) verbatim."""
        for record in records:
            self.sink.emit(record)

    def close(self) -> None:
        self._stack.clear()
        self.sink.close()


#: Process-global tracer; ``None`` means tracing is off (the default).
_TRACER: Tracer | None = None


def configure_tracing(
    path: str | Path | None = None,
    sink=None,
    trace_id: str | None = None,
    ambient_parent: str | None = None,
    base_attrs: dict | None = None,
) -> Tracer:
    """Install the process-global tracer (replacing any previous one).

    Exactly one of ``path`` (JSONL file) or ``sink`` must be given.
    """
    global _TRACER
    if (path is None) == (sink is None):
        raise ValueError("exactly one of path or sink is required")
    if _TRACER is not None:
        _TRACER.close()
    if sink is None:
        sink = FileSink(path)
    _TRACER = Tracer(
        sink, trace_id=trace_id, ambient_parent=ambient_parent, base_attrs=base_attrs
    )
    return _TRACER


def disable_tracing() -> None:
    """Close and remove the process-global tracer (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def forget_tracer() -> None:
    """Drop the global tracer WITHOUT closing its sink.

    For forked worker processes that inherit the parent's tracer: the
    sink's file handle is shared with the parent, so the child must not
    flush or close it -- it just forgets the object and reconfigures.
    """
    global _TRACER
    _TRACER = None


def get_tracer() -> Tracer | None:
    return _TRACER


def span(name: str, **attrs: Any):
    """A span under the global tracer, or the shared no-op when off."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def span_at(ctx: SpanContext | None, name: str, **attrs: Any):
    """A detached span parented at ``ctx``, or the shared no-op when off."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span_at(ctx, name, **attrs)


def begin(name: str, ctx: SpanContext | None = None, **attrs: Any):
    """Start a detached span now (finish it later), or the no-op when off."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.begin(name, ctx, **attrs)


def record_span(
    name: str,
    ctx: SpanContext | None,
    ts_ns: int,
    dur_ns: int,
    attrs: dict | None = None,
) -> None:
    """Emit an after-the-fact span under the global tracer, if any."""
    tracer = _TRACER
    if tracer is not None:
        tracer.record_span(name, ctx, ts_ns, dur_ns, attrs)


def current_context() -> SpanContext | None:
    """Propagation context of the global tracer (``None`` when off)."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current_context()


def emit_foreign(records: list[dict]) -> None:
    """Write drained worker records into the global tracer, if any."""
    tracer = _TRACER
    if tracer is not None and records:
        tracer.emit_foreign(records)
