"""The remote pool kind of :class:`~repro.core.parallel.ParallelNMEngine`.

A pool spec ``"host:port"`` names a ``repro worker --listen`` process
(:mod:`repro.dist.worker`).  :class:`RemotePool` speaks
:mod:`repro.dist.wire` to it: ``hello`` pins the protocol version, the
store's content hash, grid, engine config and Prob-kernel tag (a worker
refuses any mismatch -- the silent bit-identity killers become loud
protocol errors), ``open`` builds one engine per span on the worker, and
each op then names the spans it covers.  Data never travels: spans are
``(lo, hi)`` coordinates into the worker's local copy of the ``.tjc``
store, and results come back through the wire's exact float64 codecs.

The coordinator imports this module only when a remote pool is asked
for, so single-box runs never load socket or wire code.
"""

from __future__ import annotations

import socket
from typing import Any, Sequence

from repro.core import kernels
from repro.core.parallel import PoolFailure
from repro.dist import wire

#: Per-op deadline.  Generous -- an op covers a whole span batch -- but
#: finite, so a hung pool becomes a failover instead of a hang.  (Fork
#: workers need none: their death closes the pipe.)
OP_TIMEOUT_S = 300.0
CONNECT_TIMEOUT_S = 10.0


class RemotePool:
    """A ``repro worker --listen`` pool reached over TCP."""

    def __init__(self, name: str, address: tuple[str, int], owner) -> None:
        self.name = name
        self.address = address
        self.owner = owner
        self.spans: list[int] = []
        # Spans travel as absolute store trajectory ranges.
        self._base = owner.dataset.traj_lo
        self._sock: socket.socket | None = None
        self._reader = None
        self._next_id = 0
        self._pending: list[int] | None = None
        self._pending_id: int | None = None
        self._pending_op: str | None = None

    # -- low-level round-trips --------------------------------------------

    def _send(self, request: dict, timeout: float) -> int:
        if self._sock is None:
            raise PoolFailure(self, "not connected")
        rid = self._next_id
        self._next_id += 1
        try:
            self._sock.settimeout(timeout)
            self._sock.sendall(wire.encode({"id": rid, **request}))
        except OSError as exc:
            raise PoolFailure(self, f"send failed: {exc}") from exc
        return rid

    def _recv(self, rid: int, timeout: float) -> dict:
        if self._sock is None:
            raise PoolFailure(self, "not connected")
        try:
            self._sock.settimeout(timeout)
            line = self._reader.readline(wire.MAX_LINE_BYTES + 1)
        except (OSError, ValueError) as exc:
            raise PoolFailure(self, f"recv failed: {exc}") from exc
        if not line:
            raise PoolFailure(self, "connection closed by worker")
        response = wire.decode_line(line)
        if response.get("id") != rid:
            raise PoolFailure(
                self, f"response id {response.get('id')!r} != request id {rid}"
            )
        if not response.get("ok"):
            detail = response.get("detail", response.get("error", "unknown error"))
            raise RuntimeError(f"pool {self.name!r}: {detail}")
        return response

    def _roundtrip(self, request: dict, timeout: float = OP_TIMEOUT_S) -> dict:
        return self._recv(self._send(request, timeout), timeout)

    def _wire_spans(self, indices: Sequence[int]) -> list[list[int]]:
        spans = self.owner.spans
        return wire.spans_to_wire(
            [(self._base + spans[i][0], self._base + spans[i][1]) for i in indices]
        )

    # -- pool surface ------------------------------------------------------

    def _hello(self) -> None:
        """Connect and pin protocol, store identity, grid and config."""
        owner = self.owner
        try:
            self._sock = socket.create_connection(self.address, timeout=CONNECT_TIMEOUT_S)
            self._reader = self._sock.makefile("rb")
        except OSError as exc:
            raise PoolFailure(self, f"cannot connect to {self.address}: {exc}") from exc
        request = {
            "op": "hello",
            "version": wire.DIST_PROTOCOL_VERSION,
            "store_hash": owner.dataset.store.content_hash,
            "grid": wire.grid_to_wire(owner.grid),
            "config": wire.config_to_wire(owner.config),
            "kernel_tag": kernels.prob_kernel_tag(owner.config),
            "metrics": owner._metrics_enabled,
        }
        if owner._trace_ctx is not None:
            request["trace"] = owner._trace_ctx.to_wire()
        reply = self._roundtrip(request, timeout=CONNECT_TIMEOUT_S)
        missing = [op for op in wire.DIST_OPS if op not in reply.get("capabilities", ())]
        if missing:
            raise RuntimeError(f"pool {self.name!r} lacks required ops: {missing}")

    def open(self, indices: Sequence[int]) -> None:
        if self._sock is None:
            self._hello()
        reply = self._roundtrip({"op": "open", "spans": self._wire_spans(indices)})
        for i, meta in zip(indices, reply["metas"]):
            self.owner._opened(i, meta)
            if i not in self.spans:
                self.spans.append(i)

    def dispatch(self, op: str, payload, indices: Sequence[int]) -> None:
        request = {
            "op": op,
            "spans": self._wire_spans(indices),
            **wire.payload_to_wire(op, payload),
        }
        self._pending = list(indices)
        self._pending_op = op
        self._pending_id = self._send(request, OP_TIMEOUT_S)

    def collect(self) -> dict[int, Any]:
        pending, op, rid = self._pending, self._pending_op, self._pending_id
        self._pending = self._pending_op = self._pending_id = None
        reply = self._recv(rid, OP_TIMEOUT_S)
        results = reply.get("results")
        if not isinstance(results, list) or len(results) != len(pending):
            raise PoolFailure(self, f"malformed results for op {op!r}")
        return {
            i: wire.result_from_wire(op, result)
            for i, result in zip(pending, results)
        }

    def drain_trace_records(self) -> list:
        try:
            reply = self._roundtrip({"op": "obs_drain"}, timeout=10.0)
        except (PoolFailure, RuntimeError):
            return []
        records = reply.get("records", [])
        return records if isinstance(records, list) else []

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._roundtrip({"op": "close"}, timeout=5.0)
            except (PoolFailure, RuntimeError):
                pass
            for closable in (self._reader, self._sock):
                try:
                    closable.close()
                except OSError:
                    pass
        self._sock = None
        self._reader = None
        self.spans = []
        self._pending = None
