"""Cross-machine mining and serving (``repro.dist``).

The span coordinator (:class:`~repro.core.parallel.ParallelNMEngine`) and
one :class:`~repro.serve.server.PatternServer` replica are single-box.
This package promotes both boundaries onto sockets:

* :mod:`repro.dist.wire` -- the worker wire protocol: the NDJSON framing
  of :mod:`repro.serve.protocol` carrying the span op table, plus exact
  JSON codecs for grids, engine configs, extension tables and gap
  patterns (JSON round-trips float64 bit-exactly, which is what lets a
  socket hop preserve the 0-ULP merge contract);
* :mod:`repro.dist.worker` -- ``repro worker --listen``: a worker-pool
  process that opens its assigned ``.tjc`` spans *locally* (the
  coordinator ships ``(store_hash, lo, hi)`` + grid/config/kernel tag,
  never data) and answers pipelined ops;
* :mod:`repro.dist.pool` -- :class:`RemotePool`, the ``"host:port"`` pool
  kind of the coordinator; a crashed or timed-out pool's spans are
  re-dispatched to survivors with bit-identical results;
* :mod:`repro.dist.router` -- ``repro router``: a serving tier that fans
  client requests across N ``PatternServer`` replicas by least queue
  depth, broadcasts ``swap`` so every replica serves the same snapshot
  generation, and aggregates ``stats``.

See ``docs/DISTRIBUTED.md`` for the op catalogue and failure model.
"""

from repro.dist.pool import RemotePool
from repro.dist.router import RouterConfig, PatternRouter, publish_snapshot
from repro.dist.wire import DIST_OPS, DIST_PROTOCOL_VERSION
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer

__all__ = [
    "DIST_OPS",
    "DIST_PROTOCOL_VERSION",
    "PatternRouter",
    "RemotePool",
    "RouterConfig",
    "WorkerPoolConfig",
    "WorkerPoolServer",
    "publish_snapshot",
]
