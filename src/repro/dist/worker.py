"""The remote worker pool (``repro worker --listen``).

One process per pool, one TCP listener, one session per connection.  A
session begins with ``hello`` (protocol version, store identity, grid,
engine config, Prob-kernel tag -- all refused on mismatch, see
:mod:`repro.dist.wire`), then ``open`` builds one single-process
:class:`~repro.core.engine.NMEngine` per assigned trajectory span.  The
worker opens its **local** copy of the ``.tjc`` store and reads the span
from it -- the coordinator ships span coordinates, never data, so the
wire cost of a mine is the op stream, not the dataset.

Sessions are handled in their own threads, so a monitoring connection
can ``ping`` while a coordinator session computes (numpy releases the
GIL in the hot loops).  Session state -- engines, trace buffer -- dies
with the connection; a coordinator that reconnects after a network blip
simply replays ``hello`` + ``open``.

Observability mirrors the fork pool of :mod:`repro.core.parallel`:
when the ``hello`` carries a trace context the session traces into an
in-memory buffer drained by ``obs_drain``, so remote ``index.build`` /
``engine.nm_batch`` spans land in the coordinator's JSONL file parented
under the coordinator's span -- one ``repro report`` renders the whole
cluster's tree.
"""

from __future__ import annotations

import socket
import threading
import traceback
from dataclasses import dataclass, field

from repro.core import kernels
from repro.core.engine import NMEngine
from repro.core.parallel import span_meta, span_op
from repro.dist import wire
from repro.obs import logs, metrics, tracing
from repro.serve.protocol import ProtocolError
from repro.storage import open_store
from repro.testkit import faults

_log = logs.get_logger("dist.worker")


@dataclass
class WorkerPoolConfig:
    """Listener + store binding of one worker pool.

    ``port = 0`` asks the OS for a free port (available as
    :attr:`WorkerPoolServer.port` after :meth:`~WorkerPoolServer.start`).
    ``name`` labels the pool in logs and trace spans.
    """

    store_path: str
    host: str = "127.0.0.1"
    port: int = 0
    name: str = ""
    accept_timeout_s: float = 0.5
    extra_span_attrs: dict = field(default_factory=dict)


class WorkerPoolServer:
    """Serve the distributed worker op set for one local ``.tjc`` store."""

    def __init__(self, config: WorkerPoolConfig) -> None:
        self.config = config
        self.store = open_store(config.store_path)
        self._sock: socket.socket | None = None
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._sessions: set[socket.socket] = set()
        self._sessions_lock = threading.Lock()
        self.sessions_served = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._sock is None:
            raise RuntimeError("worker pool is not listening")
        return self._sock.getsockname()[1]

    def start(self) -> tuple[str, int]:
        """Bind the listener and start accepting coordinator sessions."""
        sock = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        sock.settimeout(self.config.accept_timeout_s)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-worker-accept", daemon=True
        )
        self._accept_thread.start()
        host, port = sock.getsockname()[:2]
        _log.info(
            "worker pool listening",
            extra={
                "host": host,
                "port": port,
                "store": str(self.config.store_path),
                "n_traj": self.store.n_trajectories,
                "store_hash": self.store.content_hash,
            },
        )
        return host, port

    def stop(self) -> None:
        """Stop accepting, drop every live session, close the listener."""
        self._stopping.set()
        with self._sessions_lock:
            sessions = list(self._sessions)
        for conn in sessions:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def serve_forever(self) -> None:
        """Blocking entry point for ``repro worker``."""
        if self._sock is None:
            self.start()
        try:
            while not self._stopping.is_set():
                self._stopping.wait(0.5)
        finally:
            self.stop()

    def __enter__(self) -> "WorkerPoolServer":
        if self._sock is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / session loops --------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._sessions_lock:
                self._sessions.add(conn)
            self.sessions_served += 1
            threading.Thread(
                target=self._session_loop,
                args=(conn, peer),
                name=f"dist-worker-session-{self.sessions_served}",
                daemon=True,
            ).start()

    def _session_loop(self, conn: socket.socket, peer) -> None:
        session = _Session(self)
        reader = conn.makefile("rb")
        try:
            while not self._stopping.is_set():
                line = reader.readline(wire.MAX_LINE_BYTES + 1)
                if not line:
                    break
                if len(line) > wire.MAX_LINE_BYTES:
                    conn.sendall(
                        wire.encode(
                            wire.error_response(
                                code="bad_request", detail="request line too long"
                            )
                        )
                    )
                    break
                if not line.strip():
                    continue
                response = session.handle_line(line)
                conn.sendall(wire.encode(response))
        except (OSError, ValueError):
            pass  # peer vanished mid-frame; session state dies with it
        finally:
            session.teardown()
            with self._sessions_lock:
                self._sessions.discard(conn)
            try:
                reader.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


class _Session:
    """Per-connection state: handshake, span engines, trace buffer."""

    def __init__(self, server: WorkerPoolServer) -> None:
        self.server = server
        self.store = server.store
        self.engines: dict[tuple[int, int], NMEngine] = {}
        self.greeted = False
        self.grid = None
        self.config = None
        self.trace_sink: tracing.BufferSink | None = None

    # -- dispatch ----------------------------------------------------------

    def handle_line(self, line: bytes) -> dict:
        rid = None
        op = "unknown"
        try:
            request = wire.decode_line(line)
            rid = request.get("id")
            op = request.get("op")
            if op not in wire.DIST_OPS:
                raise ProtocolError(f"unknown op {op!r}", code="unknown_op")
            faults.fire("dist.worker.op", op=op, pool=self.server.config.name)
            return self._dispatch(op, request, rid)
        except ProtocolError as exc:
            return wire.error_response(rid, exc.code, exc.detail, **exc.fields)
        except Exception as exc:  # noqa: BLE001 - must answer the coordinator
            _log.warning(
                "worker op failed",
                extra={"op": op, "error": type(exc).__name__},
            )
            return wire.error_response(
                rid,
                "internal",
                f"{type(exc).__name__}: {exc}",
                trace=traceback.format_exc(limit=8),
            )

    def _dispatch(self, op: str, request: dict, rid) -> dict:
        if op == "hello":
            return self._handle_hello(request, rid)
        if op == "ping":
            return wire.ok_response(rid, pong=True)
        if not self.greeted:
            raise ProtocolError(f"op {op!r} before hello")
        if op == "open":
            return self._handle_open(request, rid)
        if op == "close":
            self.engines.clear()
            return wire.ok_response(rid, closed=True)
        if op == "obs_drain":
            records = self.trace_sink.drain() if self.trace_sink is not None else []
            return wire.ok_response(rid, records=records)
        # Everything else is a span op, evaluated through the one op table.
        engines = self._span_engines(request)
        payload = wire.payload_from_wire(op, request)
        results = [
            wire.result_to_wire(op, span_op(engine, op, payload)) for engine in engines
        ]
        return wire.ok_response(rid, results=results)

    # -- handshake / span management ---------------------------------------

    def _handle_hello(self, request: dict, rid) -> dict:
        wire.check_dist_version(request)
        store_hash = request.get("store_hash")
        if store_hash != self.store.content_hash:
            raise ProtocolError(
                "store mismatch: coordinator and worker are not looking at "
                "the same dataset",
                coordinator_store_hash=store_hash,
                worker_store_hash=self.store.content_hash,
            )
        self.grid = wire.grid_from_wire(request.get("grid"))
        self.config = wire.config_from_wire(request.get("config"))
        kernel_tag = kernels.prob_kernel_tag(self.config)
        shipped_tag = request.get("kernel_tag")
        if shipped_tag is not None and shipped_tag != kernel_tag:
            raise ProtocolError(
                "Prob-kernel mismatch: the pool would build a different "
                "index than the coordinator expects",
                coordinator_kernel_tag=shipped_tag,
                worker_kernel_tag=kernel_tag,
            )
        trace = request.get("trace")
        if trace is not None:
            ctx = tracing.SpanContext.from_wire(trace)
            tracing.forget_tracer()
            self.trace_sink = tracing.BufferSink()
            tracing.configure_tracing(
                sink=self.trace_sink,
                trace_id=ctx.trace_id,
                ambient_parent=ctx.span_id,
                base_attrs={
                    "pool": self.server.config.name,
                    **self.server.config.extra_span_attrs,
                },
            )
        registry = metrics.get_registry()
        registry.enabled = bool(request.get("metrics", False))
        self.greeted = True
        self.engines.clear()
        return wire.ok_response(
            rid,
            version=wire.DIST_PROTOCOL_VERSION,
            capabilities=list(wire.DIST_OPS),
            store_hash=self.store.content_hash,
            n_trajectories=int(self.store.n_trajectories),
            kernel_tag=kernel_tag,
            pool=self.server.config.name,
        )

    def _handle_open(self, request: dict, rid) -> dict:
        spans = wire.spans_from_wire(request.get("spans"))
        n = int(self.store.n_trajectories)
        metas = []
        for lo, hi in spans:
            if hi > n:
                raise ProtocolError(f"span [{lo}, {hi}) outside store (n={n})")
            faults.fire(
                "dist.worker.open", span=(lo, hi), pool=self.server.config.name
            )
            if (lo, hi) not in self.engines:
                shard = self.store.span(lo, hi)
                self.engines[(lo, hi)] = NMEngine(shard, self.grid, self.config)
            metas.append(span_meta(self.engines[(lo, hi)]))
        return wire.ok_response(rid, metas=metas)

    def _span_engines(self, request: dict) -> list[NMEngine]:
        spans = wire.spans_from_wire(request.get("spans"))
        out = []
        for span in spans:
            engine = self.engines.get(span)
            if engine is None:
                raise ProtocolError(f"span {list(span)} was never opened")
            out.append(engine)
        return out

    def teardown(self) -> None:
        self.engines.clear()
        self.trace_sink = None


def run_worker(
    store_path: str, host: str = "127.0.0.1", port: int = 0, name: str = ""
) -> None:
    """``repro worker`` entry point: listen until interrupted."""
    server = WorkerPoolServer(
        WorkerPoolConfig(store_path=store_path, host=host, port=port, name=name)
    )
    bound_host, bound_port = server.start()
    print(f"worker pool listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
