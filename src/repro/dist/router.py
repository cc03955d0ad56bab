"""The replica router (``repro router``): one address, N pattern servers.

A thin asyncio tier speaking the same NDJSON protocol as
:class:`~repro.serve.server.PatternServer`.  Clients connect to the
router exactly as they would to a single server -- ``repro loadgen`` and
``repro top`` work unchanged -- and each request is forwarded to the
replica with the least load, measured as *local in-flight count plus the
replica's last-polled* ``stats.queue_depth`` (the router polls every
``stats_interval_s``, so a replica drowning in another client's traffic
is avoided even before our own requests pile up on it).

Routing policy by op:

* ``score`` / ``predict`` / ``health`` / ``describe`` -- least-loaded
  replica; on replica death the request is retried once on a survivor
  (every forwarded op is idempotent), counted in ``router.retries``;
* ``stats`` -- answered by the router: per-replica stats plus a
  ``router`` section (in-flight, forwarded, retries, replica health);
* ``swap`` -- **broadcast** to every replica and acknowledged only when
  all replicas land on the same snapshot version: one generation for the
  whole tier, never a mixed fleet (see :func:`publish_snapshot`);
* ``hello`` -- answered by the router (same protocol version and
  capabilities; the reply carries ``router: true``);
* ``shutdown`` -- refused (``forbidden``): stopping a whole tier is an
  operator action, not a protocol request.

Dead replicas reconnect in the background with capped exponential
backoff; a router with zero live replicas sheds with ``overloaded`` /
``no_replicas`` instead of queueing unboundedly.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import logs, metrics
from repro.serve import protocol
from repro.serve.snapshot import ServingSnapshot

_log = logs.get_logger("dist.router")

#: Ops the router forwards to one replica (everything else is handled or
#: refused by the router itself).
_FORWARD_OPS = ("score", "predict", "health", "describe")

#: Backoff schedule for replica reconnects: doubling, capped.
_RECONNECT_BASE_S = 0.25
_RECONNECT_CAP_S = 5.0

#: Bound on a replica connect and on a ``stats`` poll: a replica on the
#: same network answers either in milliseconds, so a silent one counts as
#: down (and is retried on the backoff above) instead of stalling the poll.
_CONNECT_TIMEOUT_S = 5.0

#: Bound on one replica's ``swap`` or ``ingest`` answer.  Both load, index
#: or re-mine a whole snapshot before they answer, which takes seconds on
#: a large one; past a minute the replica is reported as not landed.
_SWAP_TIMEOUT_S = 60.0


@dataclass
class RouterConfig:
    host: str = "127.0.0.1"
    port: int = 0
    replicas: tuple[tuple[str, int], ...] = ()
    stats_interval_s: float = 2.0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a router needs at least one replica address")


@dataclass
class _Replica:
    name: str
    address: tuple[str, int]
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    up: bool = False
    inflight: int = 0
    queue_depth: int = 0
    forwarded: int = 0
    reconnects: int = 0
    last_stats: dict = field(default_factory=dict)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    @property
    def load(self) -> int:
        return self.inflight + self.queue_depth


class _Pending:
    """One request in flight to a replica, correlated by rewritten id."""

    __slots__ = ("request", "original_id", "future", "retried")

    def __init__(self, request: dict, original_id) -> None:
        self.request = request
        self.original_id = original_id
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.retried = False


class PatternRouter:
    """Fan requests across replicas; keep the tier on one snapshot."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.replicas = [
            _Replica(name=f"replica-{i}", address=addr)
            for i, addr in enumerate(config.replicas)
        ]
        self._server: asyncio.base_events.Server | None = None
        self._rid = itertools.count(1)
        self._rr = itertools.count()
        self._pending: dict[str, tuple[_Replica, _Pending]] = {}
        self._tasks: list[asyncio.Task] = []
        self._stopping = asyncio.Event()
        self.requests_routed = 0
        self.retries = 0
        self.sheds = 0
        self._started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("router is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> tuple[str, int]:
        for replica in self.replicas:
            try:
                await self._connect_replica(replica)
            except OSError:
                replica.up = False  # background reconnect will keep trying
        if not any(r.up for r in self.replicas):
            raise ConnectionError(
                "no replica reachable at startup: "
                + ", ".join(f"{h}:{p}" for h, p in self.config.replicas)
            )
        self._server = await asyncio.start_server(
            self._on_client,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._started_at = time.monotonic()
        for replica in self.replicas:
            self._tasks.append(
                asyncio.get_running_loop().create_task(self._reconnect_loop(replica))
            )
        self._tasks.append(
            asyncio.get_running_loop().create_task(self._stats_loop())
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        _log.info(
            "router serving",
            extra={
                "host": host,
                "port": port,
                "replicas": [f"{h}:{p}" for h, p in self.config.replicas],
            },
        )
        return host, port

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks = []
        for replica in self.replicas:
            await self._drop_replica(replica, reconnect=False)

    async def serve_until_stopped(self) -> None:
        await self._stopping.wait()

    # -- replica connections -----------------------------------------------

    async def _connect_replica(self, replica: _Replica) -> None:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                *replica.address, limit=protocol.MAX_LINE_BYTES
            ),
            timeout=_CONNECT_TIMEOUT_S,
        )
        replica.reader = reader
        replica.writer = writer
        replica.up = True
        replica.inflight = 0
        self._tasks.append(
            asyncio.get_running_loop().create_task(self._replica_reader(replica))
        )
        _log.info(
            "replica connected",
            extra={"replica": replica.name, "address": replica.address},
        )

    async def _drop_replica(self, replica: _Replica, reconnect: bool = True) -> None:
        """Mark a replica down and retry (once) whatever it still owed us."""
        was_up = replica.up
        replica.up = False
        if replica.writer is not None:
            replica.writer.close()
            try:
                await replica.writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError, OSError):
                pass
        replica.reader = None
        replica.writer = None
        if not was_up:
            return
        metrics.counter("router.replica_drops").inc()
        orphans = [
            (rid, pending)
            for rid, (owner, pending) in list(self._pending.items())
            if owner is replica
        ]
        for rid, pending in orphans:
            del self._pending[rid]
            replica.inflight = max(0, replica.inflight - 1)
            if pending.retried or not reconnect:
                self._fail_pending(pending, "replica lost")
            else:
                pending.retried = True
                self.retries += 1
                metrics.counter("router.retries").inc()
                try:
                    await self._forward(pending)
                except ConnectionError:
                    self._fail_pending(pending, "no replica available for retry")

    def _fail_pending(self, pending: _Pending, detail: str) -> None:
        if not pending.future.done():
            pending.future.set_result(
                protocol.error_response(
                    pending.original_id, "overloaded", detail, reason="replica_lost"
                )
            )

    async def _replica_reader(self, replica: _Replica) -> None:
        try:
            while replica.up:
                line = await replica.reader.readline()
                if not line:
                    break
                try:
                    response = protocol.decode_line(line)
                except protocol.ProtocolError:
                    continue
                rid = response.get("id")
                entry = self._pending.pop(rid, None) if rid is not None else None
                if entry is None:
                    continue
                owner, pending = entry
                owner.inflight = max(0, owner.inflight - 1)
                if (
                    response.get("ok") is False
                    and response.get("reason") == "shutdown"
                    and pending.original_id is not None
                    and not pending.retried
                ):
                    # A draining replica sheds with reason=shutdown; that
                    # is a routing signal, not an answer.  Retry once on
                    # another replica.
                    pending.retried = True
                    self.retries += 1
                    metrics.counter("router.retries").inc()
                    try:
                        await self._forward(pending, exclude=owner)
                    except ConnectionError:
                        self._fail_pending(
                            pending, "no replica available for retry"
                        )
                    continue
                if pending.original_id is None:
                    response.pop("id", None)
                else:
                    response["id"] = pending.original_id
                if not pending.future.done():
                    pending.future.set_result(response)
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            await self._drop_replica(replica)

    async def _reconnect_loop(self, replica: _Replica) -> None:
        """Capped exponential backoff reconnects for a down replica."""
        backoff = _RECONNECT_BASE_S
        while not self._stopping.is_set():
            if replica.up:
                backoff = _RECONNECT_BASE_S
                await asyncio.sleep(0.2)
                continue
            try:
                await self._connect_replica(replica)
                replica.reconnects += 1
                metrics.counter("router.replica_reconnects").inc()
            except (OSError, asyncio.TimeoutError):
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _RECONNECT_CAP_S)

    async def _stats_loop(self) -> None:
        """Poll every live replica's ``stats`` for queue depths."""
        while not self._stopping.is_set():
            for replica in self.replicas:
                if not replica.up:
                    continue
                try:
                    response = await self._roundtrip(
                        replica, {"op": "stats"}, timeout=_CONNECT_TIMEOUT_S
                    )
                except (ConnectionError, asyncio.TimeoutError):
                    continue
                stats = response.get("stats")
                if isinstance(stats, dict):
                    replica.last_stats = stats
                    depth = stats.get("queue_depth")
                    if isinstance(depth, int):
                        replica.queue_depth = depth
            await asyncio.sleep(self.config.stats_interval_s)

    async def _roundtrip(
        self, replica: _Replica, request: dict, timeout: float
    ) -> dict:
        """One router-originated request to a specific replica."""
        pending = _Pending(dict(request), original_id=None)
        rid = f"router-{next(self._rid)}"
        pending.request["id"] = rid
        self._pending[rid] = (replica, pending)
        replica.inflight += 1
        try:
            async with replica.write_lock:
                if not replica.up:
                    raise ConnectionError(f"{replica.name} is down")
                replica.writer.write(protocol.encode(pending.request))
                await replica.writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            replica.inflight = max(0, replica.inflight - 1)
            raise ConnectionError(str(exc)) from exc
        return await asyncio.wait_for(pending.future, timeout=timeout)

    # -- request routing ---------------------------------------------------

    def _pick_replica(self, exclude: _Replica | None = None) -> _Replica:
        live = [
            (i, r)
            for i, r in enumerate(self.replicas)
            if r.up and r is not exclude
        ]
        if not live:
            raise ConnectionError("no live replicas")
        # Ties on load rotate round-robin; otherwise a sequential client
        # (zero concurrency, so load is always 0 at pick time) would pin
        # every request to the first replica.
        n = len(self.replicas)
        offset = next(self._rr) % n
        return min(live, key=lambda ir: (ir[1].load, (ir[0] - offset) % n))[1]

    async def _forward(
        self, pending: _Pending, exclude: _Replica | None = None
    ) -> None:
        """Send one client request to the least-loaded replica."""
        replica = self._pick_replica(exclude)
        rid = f"router-{next(self._rid)}"
        pending.request["id"] = rid
        self._pending[rid] = (replica, pending)
        replica.inflight += 1
        replica.forwarded += 1
        try:
            async with replica.write_lock:
                if not replica.up:
                    raise ConnectionError(f"{replica.name} is down")
                replica.writer.write(protocol.encode(pending.request))
                await replica.writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(rid, None)
            replica.inflight = max(0, replica.inflight - 1)
            if pending.retried:
                raise ConnectionError("retry failed")
            pending.retried = True
            self.retries += 1
            metrics.counter("router.retries").inc()
            await self._forward(pending)

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics.counter("router.connections").inc()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while not self._stopping.is_set():
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
                    break  # torn frame at EOF; never execute it
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError, OSError):
                pass

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        rid = None
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
                response = await self._route(op, request, rid)
            except protocol.ProtocolError as exc:
                response = protocol.error_response(
                    rid, exc.code, exc.detail, **exc.fields
                )
            except ConnectionError as exc:
                self.sheds += 1
                metrics.counter("router.sheds").inc()
                response = protocol.error_response(
                    rid, "overloaded", str(exc), reason="no_replicas"
                )
            except Exception as exc:  # noqa: BLE001 - must answer the client
                response = protocol.error_response(
                    rid, "internal", f"{type(exc).__name__}: {exc}"
                )
            await self._send(writer, write_lock, response)
        finally:
            self.requests_routed += 1

    async def _route(self, op: str, request: dict, rid) -> dict:
        if op == "hello":
            protocol.parse_hello(request)
            return protocol.ok_response(
                rid,
                version=protocol.PROTOCOL_VERSION,
                capabilities=list(protocol.CAPABILITIES),
                router=True,
                replicas=[r.up for r in self.replicas],
            )
        if op == "stats":
            return protocol.ok_response(rid, stats=self.stats())
        if op == "swap":
            return await self._broadcast_swap(request, rid)
        if op == "ingest":
            return await self._broadcast_ingest(request, rid)
        if op == "shutdown":
            raise protocol.ProtocolError(
                "shutdown via the router is disabled; stop replicas directly",
                code="forbidden",
            )
        # score / predict / health / describe: forward to one replica.
        pending = _Pending(dict(request), original_id=rid)
        await self._forward(pending)
        return await pending.future

    async def _broadcast_swap(self, request: dict, rid) -> dict:
        """Swap every replica to one snapshot generation, atomically-ish.

        All replicas must acknowledge with the *same* version; a partial
        fleet (some replicas swapped, some not, or versions disagreeing)
        is reported as an error naming the per-replica outcome, so the
        operator never unknowingly serves mixed generations.
        """
        path = protocol.parse_swap(request)
        outcomes: dict[str, dict] = {}
        for replica in self.replicas:
            if not replica.up:
                outcomes[replica.name] = {"ok": False, "detail": "replica down"}
                continue
            try:
                response = await self._roundtrip(
                    replica,
                    {"op": "swap", "path": path},
                    timeout=_SWAP_TIMEOUT_S,
                )
                outcomes[replica.name] = response
            except (ConnectionError, asyncio.TimeoutError) as exc:
                outcomes[replica.name] = {"ok": False, "detail": str(exc)}
        versions = {
            o.get("version") for o in outcomes.values() if o.get("ok")
        }
        all_ok = all(o.get("ok") for o in outcomes.values())
        if all_ok and len(versions) == 1:
            metrics.counter("router.swaps").inc()
            return protocol.ok_response(
                rid,
                version=versions.pop(),
                replicas={
                    name: o.get("version") for name, o in outcomes.items()
                },
            )
        return protocol.error_response(
            rid,
            "internal",
            "swap did not land on every replica",
            replicas={
                name: (o.get("version") if o.get("ok") else o.get("detail"))
                for name, o in outcomes.items()
            },
        )

    async def _broadcast_ingest(self, request: dict, rid) -> dict:
        """Fold one report batch into every replica's live index.

        Ingest is a *mutation*, so like ``swap`` it goes to the whole fleet
        rather than one replica: each replica folds the same batch into its
        own incremental engine and -- because folds are deterministic and
        batches arrive in router order -- republishes the same generation.
        Generation agreement is checked the way swap checks versions; a
        partial fold is reported per replica so the operator never serves a
        fleet with diverged live state.
        """
        protocol.parse_ingest(request)  # reject garbage before touching the fleet
        outcomes: dict[str, dict] = {}
        for replica in self.replicas:
            if not replica.up:
                outcomes[replica.name] = {"ok": False, "detail": "replica down"}
                continue
            try:
                response = await self._roundtrip(
                    replica,
                    {"op": "ingest", "reports": request.get("reports")},
                    timeout=_SWAP_TIMEOUT_S,
                )
                outcomes[replica.name] = response
            except (ConnectionError, asyncio.TimeoutError) as exc:
                outcomes[replica.name] = {"ok": False, "detail": str(exc)}
        generations = {
            o.get("generation") for o in outcomes.values() if o.get("ok")
        }
        all_ok = all(o.get("ok") for o in outcomes.values())
        if all_ok and len(generations) == 1:
            metrics.counter("router.ingests").inc()
            first_ok = next(o for o in outcomes.values() if o.get("ok"))
            return protocol.ok_response(
                rid,
                appended=first_ok.get("appended"),
                evicted=first_ok.get("evicted"),
                republished=first_ok.get("republished"),
                generation=generations.pop(),
                version=first_ok.get("version"),
                replicas={
                    name: o.get("generation") for name, o in outcomes.items()
                },
            )
        return protocol.error_response(
            rid,
            "internal",
            "ingest did not land on every replica",
            replicas={
                name: (o.get("generation") if o.get("ok") else o.get("detail"))
                for name, o in outcomes.items()
            },
        )

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
    ) -> None:
        async with write_lock:
            try:
                writer.write(protocol.encode(response))
                await writer.drain()
            except (OSError, RuntimeError):
                metrics.counter("router.dropped_responses").inc()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "router": {
                "uptime_s": (
                    time.monotonic() - self._started_at
                    if self._started_at is not None
                    else 0.0
                ),
                "requests_routed": self.requests_routed,
                "retries": self.retries,
                "sheds": self.sheds,
                "replicas_up": sum(1 for r in self.replicas if r.up),
                "replicas": {
                    r.name: {
                        "address": list(r.address),
                        "up": r.up,
                        "inflight": r.inflight,
                        "queue_depth": r.queue_depth,
                        "forwarded": r.forwarded,
                        "reconnects": r.reconnects,
                    }
                    for r in self.replicas
                },
            },
            # Aggregates a dashboard can read like a single server's stats.
            "version": self._fleet_version(),
            "queue_depth": sum(r.queue_depth for r in self.replicas if r.up),
            "requests_served": self.requests_routed,
        }

    def _fleet_version(self) -> str:
        versions = {
            r.last_stats.get("version")
            for r in self.replicas
            if r.up and r.last_stats.get("version")
        }
        if not versions:
            return "unknown"
        if len(versions) == 1:
            return versions.pop()
        return "mixed:" + ",".join(sorted(versions))


# -- snapshot distribution ----------------------------------------------------------


def publish_snapshot(
    source: str | Path,
    dest_root: str | Path,
    generation: str,
    *,
    cache_dir: str | Path | None = None,
) -> Path:
    """Stage one snapshot directory as a generation for the replica tier.

    Copies ``source`` (a snapshot directory: dataset + ``patterns.json``
    + ``serve.json``) to ``dest_root/gen-<generation>/`` and pins the
    generation into the snapshot's ``version`` -- every replica that
    swaps to the returned path reports the identical version string, so
    "is the whole fleet on one generation?" is a string comparison.

    When ``cache_dir`` is given the snapshot is loaded once here, which
    persists its ``.npz`` index through the shared index cache: replicas
    started with the same ``--cache-dir`` then warm-load the pushed
    generation instead of re-enumerating probabilities.

    Returns the staged directory (hand it to the router's ``swap``).
    """
    source = Path(source)
    dest = Path(dest_root) / f"gen-{generation}"
    if dest.exists():
        raise FileExistsError(f"generation already published: {dest}")
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(source, dest)
    config_path = dest / "serve.json"
    raw = {}
    if config_path.is_file():
        raw = json.loads(config_path.read_text())
    base = raw.get("version") or "snapshot"
    raw["version"] = f"{base}+gen-{generation}"
    config_path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    if cache_dir is not None:
        ServingSnapshot.load(str(dest), cache_dir=str(cache_dir))
    _log.info(
        "published snapshot generation",
        extra={"source": str(source), "dest": str(dest), "version": raw["version"]},
    )
    return dest


async def run_router(config: RouterConfig) -> None:
    """``repro router`` entry point: serve until interrupted."""
    router = PatternRouter(config)
    host, port = await router.start()
    print(f"router serving on {host}:{port}", flush=True)
    try:
        await router.serve_until_stopped()
    finally:
        await router.stop()
