"""The distributed-mining wire protocol: worker ops over NDJSON/TCP.

This is the :data:`repro.core.parallel.SPAN_OPS` table carried over the
same newline-delimited-JSON framing :mod:`repro.serve.protocol` already
proves out.  The wire only encodes and decodes: a worker evaluates every
span op through :func:`repro.core.parallel.span_op`, exactly like the
inline and fork pools.  One request per line, one response per line, correlated by
``id``; a request may address several store spans at once and the
response carries one result per span, in request order.

Exactness over the wire
-----------------------
Every numeric payload is float64 and travels as JSON numbers.  Python's
``json`` emits ``repr``-shortest floats and parses them back to the same
IEEE-754 double, so a socket hop is *bit-exact* -- the distributed merge
inherits the 0-ULP contract of the in-process one.  Integer-keyed tables
(singular tables, extension tables) are encoded as ``[cell, value]``
pair lists because JSON object keys are strings.

Handshake
---------
``hello`` pins :data:`DIST_PROTOCOL_VERSION`, names the coordinator's
store identity (``store_hash``), grid, engine config and Prob-kernel tag.
The worker refuses mismatches with a structured ``bad_request``: a
version skew names both versions, a store mismatch names both hashes, a
kernel-tag skew names both tags -- each would otherwise break
bit-identity *silently*, which is the one failure mode this protocol is
designed never to have.

Requests
--------
``{"op": ..., "id": ...}`` plus per-op fields; span-scoped ops carry
``"spans": [[lo, hi], ...]`` (trajectory ranges previously opened):

* ``hello`` -- ``version``, ``store_hash``, ``grid``, ``config``,
  ``kernel_tag``, optional ``trace`` + ``metrics``;
* ``open`` -- build one engine per span (the worker reads its local
  ``.tjc`` copy; no dataset bytes ever travel);
* ``nm_batch`` / ``match_batch`` -- ``patterns`` (cell-id lists);
* ``singular_nm`` / ``singular_match`` -- no fields;
* ``ext_tables`` -- ``patterns``;
* ``gap_nm`` -- ``pattern`` (see :func:`gap_pattern_to_wire`);
* ``obs_snapshot`` / ``obs_drain`` -- no fields;
* ``ping`` -- heartbeat, answered immediately;
* ``close`` -- drop the session's engines.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Any, Sequence

import numpy as np

from repro.core.engine import EngineConfig, ExtensionTables
from repro.core.parallel import SPAN_OPS
from repro.core.wildcards import Gap, GapPattern
from repro.core.pattern import TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.serve.protocol import (  # noqa: F401  (re-exported framing)
    MAX_LINE_BYTES,
    ProtocolError,
    checked_float,
    checked_int,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from repro.uncertainty.gaussian import ProbModel

#: Version of the worker wire protocol.  Bumped on any change to op
#: semantics or codecs; coordinator and worker refuse to talk across
#: versions (bit-identity cannot be audited across protocol revisions).
DIST_PROTOCOL_VERSION = 3

#: Ops a worker session answers itself, beside the span ops.
SESSION_OPS = ("hello", "open", "ping", "obs_drain", "close")

#: Every op a worker pool answers: the session ops plus every span op of
#: :data:`repro.core.parallel.SPAN_OPS`.  Advertised in the ``hello``
#: reply as the capability list, so a newer coordinator can detect a
#: worker that predates an op instead of discovering it via ``unknown_op``
#: mid-mine.
DIST_OPS = SESSION_OPS + tuple(SPAN_OPS)


# -- geometry / config codecs -------------------------------------------------------


def grid_to_wire(grid: Grid) -> dict:
    """JSON-safe grid identity (bbox corners + cell counts)."""
    return {
        "min_x": grid.bbox.min_x,
        "min_y": grid.bbox.min_y,
        "max_x": grid.bbox.max_x,
        "max_y": grid.bbox.max_y,
        "nx": grid.nx,
        "ny": grid.ny,
    }


def grid_from_wire(obj: Any) -> Grid:
    if not isinstance(obj, dict):
        raise ProtocolError("grid must be an object")
    try:
        corners = ("min_x", "min_y", "max_x", "max_y")
        bbox = BoundingBox(*(checked_float(obj[k], f"grid {k}") for k in corners))
        nx, ny = (checked_int(obj[k], f"grid {k}") for k in ("nx", "ny"))
        return Grid(bbox, nx, ny)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed grid: {exc}") from exc


def config_to_wire(config: EngineConfig) -> dict:
    """JSON-safe engine config for shipping to a worker pool.

    The worker-irrelevant ``cache_dir`` is normalised away first (a pool
    writes no cache files of its own), so two coordinators with different
    local paths ship identical configs.
    """
    shipped = replace(config, cache_dir=None)
    out: dict = {}
    for field in dataclass_fields(EngineConfig):
        value = getattr(shipped, field.name)
        if isinstance(value, ProbModel):
            value = value.value
        out[field.name] = value
    return out


def config_from_wire(obj: Any) -> EngineConfig:
    if not isinstance(obj, dict):
        raise ProtocolError("config must be an object")
    known = {f.name for f in dataclass_fields(EngineConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ProtocolError(f"unknown config fields: {sorted(unknown)}")
    kwargs = dict(obj)
    try:
        if "prob_model" in kwargs:
            kwargs["prob_model"] = ProbModel(kwargs["prob_model"])
        return EngineConfig(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed config: {exc}") from exc


# -- span / pattern codecs ----------------------------------------------------------


def spans_to_wire(spans: Sequence[tuple[int, int]]) -> list[list[int]]:
    return [[int(lo), int(hi)] for lo, hi in spans]


def spans_from_wire(obj: Any) -> list[tuple[int, int]]:
    if not isinstance(obj, list) or not obj:
        raise ProtocolError("spans must be a non-empty list of [lo, hi]")
    out: list[tuple[int, int]] = []
    for item in obj:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            or item[0] < 0
            or item[1] <= item[0]
        ):
            raise ProtocolError(f"malformed span {item!r}")
        out.append((item[0], item[1]))
    return out


def patterns_to_wire(cells_list: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[int(c) for c in cells] for cells in cells_list]


def patterns_from_wire(obj: Any) -> list[tuple[int, ...]]:
    if not isinstance(obj, list):
        raise ProtocolError("patterns must be a list of cell-id lists")
    out: list[tuple[int, ...]] = []
    for i, cells in enumerate(obj):
        if not isinstance(cells, list) or not cells:
            raise ProtocolError(f"patterns[{i}] must be a non-empty list")
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in cells):
            raise ProtocolError(f"patterns[{i}]: cell ids must be integers")
        out.append(tuple(cells))
    return out


def gap_pattern_to_wire(pattern: GapPattern) -> dict:
    return {
        "segments": [list(seg.cells) for seg in pattern.segments],
        "gaps": [[g.min_length, g.max_length] for g in pattern.gaps],
    }


def gap_pattern_from_wire(obj: Any) -> GapPattern:
    if not isinstance(obj, dict):
        raise ProtocolError("pattern must be an object")
    try:
        segments = tuple(
            TrajectoryPattern(tuple(checked_int(c, "segment cell") for c in seg))
            for seg in obj["segments"]
        )
        gaps = tuple(
            Gap(checked_int(lo, "gap length"), checked_int(hi, "gap length"))
            for lo, hi in obj["gaps"]
        )
        return GapPattern(segments, gaps)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed gap pattern: {exc}") from exc


# -- result codecs ------------------------------------------------------------------
#
# Int-keyed float tables travel as [cell, value] pair lists (JSON object
# keys are strings); ndarray results travel as plain float lists.  Both
# directions preserve every bit: values are float64 end to end.  Decoded
# numbers go through the protocol's checked conversions, so a value no
# double holds is a ProtocolError; non-finite values pass, as encoded.


def _result_float(value: Any) -> float:
    return checked_float(value, "result value", finite=False)


def array_to_wire(values: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=np.float64)]


def array_from_wire(obj: Any) -> np.ndarray:
    if not isinstance(obj, list):
        raise ProtocolError("expected a list of numbers")
    return np.array([_result_float(v) for v in obj], dtype=np.float64)


def table_to_wire(table: dict[int, float]) -> list[list]:
    return [[int(cell), float(value)] for cell, value in sorted(table.items())]


def table_from_wire(obj: Any) -> dict[int, float]:
    if not isinstance(obj, list):
        raise ProtocolError("expected a [cell, value] pair list")
    try:
        return {
            checked_int(cell, "table cell"): _result_float(value) for cell, value in obj
        }
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed table: {exc}") from exc


def ext_tables_to_wire(tables: ExtensionTables) -> dict:
    return {
        "nm": table_to_wire(tables.nm_by_cell),
        "match": table_to_wire(tables.match_by_cell),
        "nm_base": float(tables.nm_base_total),
        "match_base": float(tables.match_base_total),
    }


def ext_tables_from_wire(obj: Any) -> ExtensionTables:
    if not isinstance(obj, dict):
        raise ProtocolError("extension tables must be an object")
    try:
        return ExtensionTables(
            nm_by_cell=table_from_wire(obj["nm"]),
            match_by_cell=table_from_wire(obj["match"]),
            nm_base_total=_result_float(obj["nm_base"]),
            match_base_total=_result_float(obj["match_base"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed extension tables: {exc}") from exc


# -- per-op payload / result codecs ------------------------------------------------
#
# Span-op payloads are the plain python values :func:`repro.core.parallel.
# span_op` takes; results are what it returns.  These tables map each op
# onto its JSON form in both directions.

_PATTERN_OPS = ("nm_batch", "match_batch", "ext_tables")


def payload_to_wire(op: str, payload) -> dict:
    """Request fields carrying ``payload`` of span op ``op``."""
    if op in _PATTERN_OPS:
        return {"patterns": patterns_to_wire(payload)}
    if op == "gap_nm":
        return {"pattern": gap_pattern_to_wire(payload)}
    return {}


def payload_from_wire(op: str, request: dict):
    """The span-op payload a request carries (inverse of :func:`payload_to_wire`)."""
    if op in _PATTERN_OPS:
        return patterns_from_wire(request.get("patterns"))
    if op == "gap_nm":
        return gap_pattern_from_wire(request.get("pattern"))
    return None


def _identity(value):
    return value


#: ``op -> (to_wire, from_wire)`` for span-op results: one entry per
#: :data:`~repro.core.parallel.SPAN_OPS` key.
_RESULT_CODECS = {
    "nm_batch": (array_to_wire, array_from_wire),
    "match_batch": (array_to_wire, array_from_wire),
    "singular_nm": (table_to_wire, table_from_wire),
    "singular_match": (table_to_wire, table_from_wire),
    "ext_tables": (
        lambda tables: [ext_tables_to_wire(t) for t in tables],
        lambda obj: [ext_tables_from_wire(t) for t in obj],
    ),
    "gap_nm": (float, _result_float),
    "obs_snapshot": (_identity, _identity),
}


def result_to_wire(op: str, result):
    return _RESULT_CODECS[op][0](result)


def result_from_wire(op: str, obj):
    return _RESULT_CODECS[op][1](obj)


# -- handshake helpers --------------------------------------------------------------


def check_dist_version(request: dict) -> None:
    """Refuse a coordinator speaking a different protocol revision."""
    version = request.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError("hello must carry an integer version")
    if version != DIST_PROTOCOL_VERSION:
        raise ProtocolError(
            f"dist protocol version mismatch: coordinator v{version}, "
            f"worker v{DIST_PROTOCOL_VERSION}",
            client_version=version,
            server_version=DIST_PROTOCOL_VERSION,
        )
