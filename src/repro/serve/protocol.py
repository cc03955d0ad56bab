"""The serving wire protocol: newline-delimited JSON over TCP.

One request per line, one response per line, both UTF-8 JSON objects.
Responses carry the request's ``id`` (when one was sent) and are *not*
guaranteed to arrive in request order -- the server processes pipelined
requests concurrently so the micro-batcher can coalesce them; clients that
pipeline must correlate by ``id``.

Requests
--------
``{"op": ..., "id": ...?, "timeout_ms": ...?, "trace": ...?}`` plus
per-op fields.  ``trace`` is an optional ``{"id": <trace-id>,
"span": <parent-span-id>?}`` object (:meth:`SpanContext.to_wire`): when
present *and* the server has tracing enabled, the server parents its
spans for this request under the caller's span, so one ``repro report``
renders the joined client+server tree.  Any request may carry ``v``, a
protocol version pin checked by :func:`check_version`.  Per-op fields:

* ``hello`` -- ``version`` (protocol version pin, default the server's
  own) and ``require`` (list of capability names); the reply advertises
  ``version`` + ``capabilities`` and mismatches are structured
  ``bad_request`` errors carrying ``client_version``/``server_version``
  or ``missing``;
* ``score`` -- ``patterns`` (list of cell-id lists; ``-1`` is the wildcard),
  ``measure`` (``"nm"`` default, or ``"match"``);
* ``predict`` -- ``recent`` (list of ``[x, y]`` position reports, oldest
  first), ``sigma`` (per-report standard deviation);
* ``health`` / ``stats`` / ``describe`` -- no fields;
* ``swap`` -- ``path`` (snapshot directory or dataset file on the server's
  filesystem);
* ``shutdown`` -- no fields (honoured only when the server allows it).

Responses
---------
``{"ok": true, "id": ...?, ...}`` on success.  On failure
``{"ok": false, "error": <code>, "detail": ...?}`` where ``error`` is one
of ``bad_request``, ``unknown_op``, ``overloaded`` (explicit load-shed;
``reason`` says why: ``queue_full``, ``deadline``, ``deadline_expired`` or
``shutdown``), ``forbidden`` or ``internal``.

Untrusted input: every field is validated here before it reaches the
engine, every number through a checked conversion (:func:`checked_float`,
:func:`checked_int`) so that no value -- an integer too large for a
double included -- escapes as anything but :class:`ProtocolError`;
oversized lines are bounded by :data:`MAX_LINE_BYTES` at the socket
layer.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np

from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.obs.tracing import SpanContext

#: Upper bound on one request/response line (enforced by the stream reader).
MAX_LINE_BYTES = 4 << 20

#: Hard caps keeping one request's work bounded no matter what arrives.
MAX_PATTERNS_PER_REQUEST = 1024
MAX_PATTERN_LENGTH = 64
MAX_RECENT_POINTS = 4096
MAX_TRACE_ID_CHARS = 128
MAX_REPORTS_PER_BATCH = 256
MAX_REPORT_POINTS = 4096
MAX_OBJECT_ID_CHARS = 256

#: The ops a client may send.
OPS = (
    "hello",
    "score",
    "predict",
    "health",
    "stats",
    "describe",
    "swap",
    "ingest",
    "shutdown",
)

MEASURES = ("nm", "match")

#: Version of this wire protocol.  A ``hello`` carrying a different
#: ``version`` -- or any request carrying a different ``v`` field -- is
#: rejected with a structured ``bad_request`` naming both sides, so a
#: stale client learns *what* to upgrade instead of chasing op-level
#: validation errors.
PROTOCOL_VERSION = 1

#: What this protocol revision can do: every op, plus the cross-cutting
#: request features.  Clients list required capabilities in ``hello``;
#: anything the server lacks is named in the rejection.
CAPABILITIES = OPS + ("trace", "deadline", "pipelining")


class ProtocolError(Exception):
    """A malformed or disallowed request; maps onto an error response.

    ``fields`` are extra structured keys merged into the error response
    (e.g. ``server_version`` on a version mismatch) so machine clients
    do not have to parse ``detail`` prose.
    """

    def __init__(
        self, detail: str, code: str = "bad_request", **fields: Any
    ) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.fields = fields


def checked_float(value: Any, what: str, *, finite: bool = True) -> float:
    """``value`` as a float, when it is a JSON number a double can hold.

    A bool, a non-number or an integer too large for a double (which
    ``float()`` refuses with ``OverflowError``) raises
    :class:`ProtocolError`, and so does ``NaN`` or an infinity unless
    ``finite`` is false.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ProtocolError(f"{what} is outside the float range") from None
    if finite and not math.isfinite(number):
        raise ProtocolError(f"{what} must be finite")
    return number


def checked_int(value: Any, what: str) -> int:
    """``value`` when it is a JSON integer (not a bool), else
    :class:`ProtocolError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{what} must be an integer")
    return value


def _finite_points(raw: list, what: str) -> np.ndarray:
    """Type-checked ``[x, y]`` number pairs as a finite float64 array."""
    try:
        points = np.asarray(raw, dtype=float)
    except OverflowError:
        raise ProtocolError(
            f"{what} contain a number outside the float range"
        ) from None
    if not np.all(np.isfinite(points)):
        raise ProtocolError(f"{what} contain non-finite coordinates")
    return points


def encode(obj: dict) -> bytes:
    """One protocol line: compact JSON + newline, UTF-8."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one request line; raises :class:`ProtocolError` on any garbage.

    ``json`` parses nested arrays and objects recursively, so a line
    nested deeper than the interpreter's recursion limit raises
    ``RecursionError``; that is garbage too.
    """
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"not a JSON object: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def ok_response(request_id: Any = None, **fields: Any) -> dict:
    response: dict = {"ok": True}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response


def error_response(
    request_id: Any = None, code: str = "bad_request", detail: str | None = None, **fields: Any
) -> dict:
    response: dict = {"ok": False, "error": code}
    if request_id is not None:
        response["id"] = request_id
    if detail is not None:
        response["detail"] = detail
    response.update(fields)
    return response


def check_version(request: dict) -> None:
    """Reject a request pinned to a different protocol revision.

    The ``v`` field is optional -- absent means "whatever the server
    speaks", which keeps old clients working -- but when present it must
    match :data:`PROTOCOL_VERSION` exactly.
    """
    raw = request.get("v")
    if raw is None:
        return
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ProtocolError("v must be an integer protocol version")
    if raw != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client v{raw}, server "
            f"v{PROTOCOL_VERSION}",
            client_version=raw,
            server_version=PROTOCOL_VERSION,
        )


def parse_hello(request: dict) -> tuple[int, tuple[str, ...]]:
    """Validate a ``hello`` handshake: version pin + required capabilities.

    Returns ``(client_version, required_capabilities)``.  A version other
    than :data:`PROTOCOL_VERSION`, or a required capability this server
    does not advertise, raises a structured ``bad_request`` naming the
    mismatch (``client_version``/``server_version`` or ``missing``).
    """
    version = request.get("version", PROTOCOL_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError("version must be an integer")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client v{version}, server "
            f"v{PROTOCOL_VERSION}",
            client_version=version,
            server_version=PROTOCOL_VERSION,
        )
    raw = request.get("require", [])
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ProtocolError("require must be a list of capability names")
    missing = tuple(c for c in raw if c not in CAPABILITIES)
    if missing:
        raise ProtocolError(
            f"unsupported capabilities: {', '.join(missing)}",
            missing=list(missing),
            capabilities=list(CAPABILITIES),
        )
    return version, tuple(raw)


def request_id(request: dict) -> Any:
    """The correlation id of a request, if the client sent one (JSON scalar)."""
    rid = request.get("id")
    if rid is None or isinstance(rid, (str, int, float, bool)):
        return rid
    raise ProtocolError("id must be a JSON scalar")


def parse_timeout_ms(request: dict, default_ms: float | None) -> float | None:
    """Per-request deadline budget in milliseconds (``None`` = no deadline)."""
    raw = request.get("timeout_ms", default_ms)
    if raw is None:
        return None
    timeout = checked_float(raw, "timeout_ms")
    if timeout <= 0:
        raise ProtocolError("timeout_ms must be a positive number")
    return timeout


def parse_score(request: dict, n_cells: int) -> tuple[list[TrajectoryPattern], str]:
    """Validate a ``score`` request against the current grid's alphabet."""
    measure = request.get("measure", "nm")
    if measure not in MEASURES:
        raise ProtocolError(f"measure must be one of {MEASURES}")
    raw = request.get("patterns")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("patterns must be a non-empty list of cell-id lists")
    if len(raw) > MAX_PATTERNS_PER_REQUEST:
        raise ProtocolError(
            f"at most {MAX_PATTERNS_PER_REQUEST} patterns per request"
        )
    patterns: list[TrajectoryPattern] = []
    for i, cells in enumerate(raw):
        if not isinstance(cells, list) or not cells:
            raise ProtocolError(f"patterns[{i}] must be a non-empty list")
        if len(cells) > MAX_PATTERN_LENGTH:
            raise ProtocolError(
                f"patterns[{i}]: at most {MAX_PATTERN_LENGTH} positions"
            )
        checked: list[int] = []
        for c in cells:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ProtocolError(f"patterns[{i}]: cell ids must be integers")
            if c != WILDCARD and not 0 <= c < n_cells:
                raise ProtocolError(
                    f"patterns[{i}]: cell {c} outside grid (0..{n_cells - 1})"
                )
            checked.append(c)
        patterns.append(TrajectoryPattern(tuple(checked)))
    return patterns, measure


def parse_predict(request: dict) -> tuple[np.ndarray, float]:
    """Validate a ``predict`` request: recent position reports + sigma."""
    raw = request.get("recent")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ProtocolError("recent must be a list of at least 2 [x, y] points")
    if len(raw) > MAX_RECENT_POINTS:
        raise ProtocolError(f"at most {MAX_RECENT_POINTS} recent points")
    for i, point in enumerate(raw):
        if (
            not isinstance(point, list)
            or len(point) != 2
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in point
            )
        ):
            raise ProtocolError(f"recent[{i}] must be [x, y] numbers")
    recent = _finite_points(raw, "recent points")
    sigma = checked_float(request.get("sigma"), "sigma")
    if sigma <= 0:
        raise ProtocolError("sigma must be a positive finite number")
    return recent, sigma


def parse_trace(request: dict) -> SpanContext | None:
    """The caller's trace context, if the request carries one.

    Absent field costs one dict lookup -- the common (untraced) path
    stays free.  Present fields are validated like any other untrusted
    input: bounded string lengths, no surprise types.
    """
    raw = request.get("trace")
    if raw is None:
        return None
    try:
        ctx = SpanContext.from_wire(raw)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    if len(ctx.trace_id) > MAX_TRACE_ID_CHARS:
        raise ProtocolError(f"trace id longer than {MAX_TRACE_ID_CHARS} chars")
    if ctx.span_id is not None and len(ctx.span_id) > MAX_TRACE_ID_CHARS:
        raise ProtocolError(f"trace span id longer than {MAX_TRACE_ID_CHARS} chars")
    return ctx


def parse_swap(request: dict) -> str:
    path = request.get("path")
    if not isinstance(path, str) or not path:
        raise ProtocolError("path must be a non-empty string")
    return path


def parse_ingest(request: dict) -> list:
    """Validate an ``ingest`` request: a batch of trajectory reports.

    ``reports`` is a non-empty list of ``{"points": [[x, y], ...],
    "sigma": <number or per-point list>, "object_id"?: str}`` objects --
    exactly what :meth:`repro.mobility.reporting.TrackingLog.to_report`
    emits.  Returns fully-constructed
    :class:`~repro.trajectory.trajectory.UncertainTrajectory` instances;
    any malformed report raises :class:`ProtocolError` (``bad_request``)
    before the server touches the live index.
    """
    from repro.trajectory.trajectory import UncertainTrajectory

    raw = request.get("reports")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("reports must be a non-empty list of report objects")
    if len(raw) > MAX_REPORTS_PER_BATCH:
        raise ProtocolError(f"at most {MAX_REPORTS_PER_BATCH} reports per batch")
    trajectories = []
    for i, report in enumerate(raw):
        if not isinstance(report, dict):
            raise ProtocolError(f"reports[{i}] must be an object")
        points = report.get("points")
        if not isinstance(points, list) or not points:
            raise ProtocolError(
                f"reports[{i}].points must be a non-empty list of [x, y]"
            )
        if len(points) > MAX_REPORT_POINTS:
            raise ProtocolError(
                f"reports[{i}]: at most {MAX_REPORT_POINTS} points per report"
            )
        for j, point in enumerate(points):
            if (
                not isinstance(point, list)
                or len(point) != 2
                or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in point
                )
            ):
                raise ProtocolError(f"reports[{i}].points[{j}] must be [x, y] numbers")
        means = _finite_points(points, f"reports[{i}].points")
        sigma = report.get("sigma")
        if isinstance(sigma, list):
            if len(sigma) != len(points):
                raise ProtocolError(
                    f"reports[{i}].sigma list must match the number of points"
                )
            sigmas = np.array([checked_float(v, f"reports[{i}].sigma") for v in sigma])
            if not np.all(sigmas > 0):
                raise ProtocolError(
                    f"reports[{i}].sigma values must be positive finite numbers"
                )
        else:
            sigmas = checked_float(sigma, f"reports[{i}].sigma")
            if sigmas <= 0:
                raise ProtocolError(
                    f"reports[{i}].sigma must be a positive finite number or list"
                )
        object_id = report.get("object_id", "")
        if not isinstance(object_id, str):
            raise ProtocolError(f"reports[{i}].object_id must be a string")
        if len(object_id) > MAX_OBJECT_ID_CHARS:
            raise ProtocolError(
                f"reports[{i}].object_id longer than {MAX_OBJECT_ID_CHARS} chars"
            )
        try:
            trajectories.append(
                UncertainTrajectory(means, sigmas, object_id=object_id)
            )
        except ValueError as exc:
            raise ProtocolError(f"reports[{i}]: {exc}") from exc
    return trajectories


def values_field(values: Sequence[float]) -> list[float]:
    """JSON-safe measure values (floats, never numpy scalars)."""
    return [float(v) for v in values]
