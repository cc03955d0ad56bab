"""Span recording from outside the program, for the traced benchmark run.

:func:`install` replaces the public entry points of each ``repro`` layer
with thin wrappers that record one span per call: layer name, start and
end on ``CLOCK_MONOTONIC`` (shared by every process on the host, so the
benchmark's client and the program's processes share one time axis), the
id of the enclosing span, and the time spent in wrapped calls made inside
it (so self time is ``end - start - child``).  Nothing under ``src/``
changes: ``launch.py`` installs the wrappers and then calls
``repro.cli.main``.

Spans live in memory and are written as JSON lines to
``<out_dir>/spans-<pid>.jsonl``.  The process that installed the wrappers
writes at exit.  Forked workers (the store-span pool of ``repro mine
--jobs N``) leave through ``os._exit``, which skips ``atexit``, so a
process that is not the installer writes after every top-level span.

A record is ``[id, parent, name, start_ns, end_ns, child_ns, key,
attrs]``.  ``key`` is the protocol request id for the ``protocol.*``
spans, used to join server time to the client's request log.  Spans of
coroutines (``batcher.submit``) have ``parent`` ``-1``: they measure
waiting, overlap other spans on the same thread, and take no part in
self-time accounting.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import itertools
import json
import os
import threading
import time

_now = time.monotonic_ns

#: Records buffered before an early write, bounding the recorder's memory.
_FLUSH_AT = 50_000


class Recorder:
    """Per-process span buffer; one instance per launched program."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._origin_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        atexit.register(self.flush)

    def _reset(self) -> None:
        # A forked child inherits the parent's open spans on its stack and
        # its unwritten records; both belong to the parent.
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list = []
        self._fh = None

    @property
    def in_child(self) -> bool:
        return self._pid != self._origin_pid

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, record: list) -> None:
        # The server records from its event-loop and evaluation threads.
        with self._lock:
            self._records.append(record)
            full = len(self._records) >= _FLUSH_AT
        if full:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            records, self._records = self._records, []
            if not records:
                return
            if self._fh is None:
                path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
                self._fh = open(path, "a", encoding="utf-8")
            self._fh.write(
                "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
            )
            self._fh.flush()


def record(recorder: Recorder, name: str, start: int, end: int, **attrs) -> None:
    """Add a span measured by the caller (process boot, import)."""
    recorder.add([recorder.next_id(), None, name, start, end, 0, None, attrs or None])


def _wrap_sync(recorder, fn, name, attrs_of, key_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        parent = stack[-1][0] if stack else None
        frame = [recorder.next_id(), 0]
        stack.append(frame)
        start = _now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _now()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            recorder.add(
                [
                    frame[0],
                    parent,
                    name,
                    start,
                    end,
                    frame[1],
                    key_of(args, result) if key_of else None,
                    attrs_of(args, kwargs, result) if attrs_of else None,
                ]
            )
            if not stack and recorder.in_child:
                recorder.flush()

    return wrapper


def _wrap_async(recorder, fn, name):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.add([recorder.next_id(), -1, name, start, _now(), 0, None, None])

    return wrapper


def wrap(recorder, owner, attr, name, attrs_of=None, key_of=None) -> None:
    """Replace ``owner.attr`` (function, method, class- or staticmethod)."""
    raw = inspect.getattr_static(owner, attr)
    binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if binder else raw
    if inspect.iscoroutinefunction(fn):
        wrapper = _wrap_async(recorder, fn, name)
    else:
        wrapper = _wrap_sync(recorder, fn, name, attrs_of, key_of)
    setattr(owner, attr, binder(wrapper) if binder else wrapper)


def _length(index):
    return lambda args, kwargs, result: {"n": len(args[index])}


def _rows(args, kwargs, result):
    return {"n": int(args[2]) - int(args[1])}


def _pairs(args, kwargs, result):
    return {"n": len(result[0])}


def _entries(args, kwargs, result):
    return {"n": args[0].n_index_entries}


def _skews(args, kwargs, result):
    return {"shard_skew": result["shard_skew"], "eval_skew": result["eval_skew"]}


def _miner_stats(args, kwargs, result):
    s = result.stats
    return {
        "iterations": s.iterations,
        "generated": s.candidates_generated,
        "evaluated": s.candidates_evaluated,
        "bound_pruned": s.candidates_bound_pruned,
        "pruned": s.patterns_pruned,
    }


def _decoded_id(args, result):
    return result.get("id") if isinstance(result, dict) else None


def _encoded_id(args, result):
    return args[0].get("id")


def install(recorder: Recorder) -> None:
    """Wrap every layer's entry points; call before ``repro.cli.main``."""
    import repro.storage
    from repro.apps.prediction import PatternLibrary
    from repro.core import incremental, parallel, results_io, trajpattern
    from repro.core.engine import NMEngine
    from repro.core.kernels.compiled import CompiledKernels
    from repro.core.kernels.numpy_ref import NumpyKernels
    from repro.geometry.grid import Grid
    from repro.serve import batcher, protocol, server, snapshot
    from repro.storage import columnar
    from repro.storage.dataset import StoreDataset

    def w(owner, attr, name, attrs_of=None, key_of=None):
        wrap(recorder, owner, attr, name, attrs_of, key_of)

    for module in (repro.storage, columnar):
        w(module, "open_store", "storage.open")
    w(StoreDataset, "row_columns", "storage.read", _rows)
    w(Grid, "cells_near_many", "grid.neighbourhood", _pairs)
    for kernels in (NumpyKernels, CompiledKernels):
        w(kernels, "prob_within", "kernels.prob", _length(1))
        w(kernels, "batch_devmax", "kernels.devmax")
        w(kernels, "segment_maxima", "kernels.segmax")
    w(NMEngine, "__init__", "engine.build", _entries)
    w(NMEngine, "nm_batch", "engine.nm_batch", _length(1))
    w(NMEngine, "singular_nm_table", "engine.singular")
    w(parallel.ParallelNMEngine, "__init__", "parallel.start")
    w(parallel.ParallelNMEngine, "nm_batch", "parallel.nm_batch", _length(1))
    w(parallel.ParallelNMEngine, "_recv", "parallel.wait")
    w(parallel.ParallelNMEngine, "close", "parallel.close")
    w(parallel.ParallelNMEngine, "obs_snapshot", "parallel.obs", _skews)
    for merge in ("merge_batch_sums", "merge_singular_tables", "merge_extension_tables"):
        w(parallel, merge, "parallel.merge")
    w(trajpattern.TrajPatternMiner, "mine", "miner.mine", _miner_stats)
    w(trajpattern, "discover_pattern_groups", "groups.discover")
    w(results_io, "save_mining_result", "results.save")
    w(snapshot.ServingSnapshot, "load", "snapshot.load")
    w(snapshot.SnapshotStore, "swap", "snapshot.swap")
    w(protocol, "decode_line", "protocol.decode", key_of=_decoded_id)
    w(protocol, "encode", "protocol.encode", key_of=_encoded_id)
    for parse in ("parse_score", "parse_predict"):
        w(protocol, parse, "protocol.parse")
    w(protocol, "parse_ingest", "ingest.parse")
    w(batcher.MicroBatcher, "submit", "batcher.submit")
    w(server, "_evaluate_score_batch", "serve.eval")
    w(server, "_evaluate_predict_batch", "serve.eval")
    w(PatternLibrary, "predict_next_velocity", "apps.predict")
    w(incremental.IncrementalIndexer, "append", "ingest.append")
    w(incremental.IncrementalIndexer, "evict", "ingest.evict")
