"""Fuzzing of the decoders that read untrusted bytes.

A server answers every :class:`~repro.serve.protocol.ProtocolError` as a
structured error response (``bad_request`` unless the error names another
code) and any other exception as ``internal``; a dist worker does the
same.  So each decoder below, fed arbitrary input, must return a value or
raise ``ProtocolError``, never anything else.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.parallel import SPAN_OPS
from repro.dist import wire
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

_FUZZ = settings(deadline=None)

_numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
_scalars = st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=12))
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=8), inner, max_size=6),
    ),
    max_leaves=24,
)
_points = st.lists(st.lists(_numbers, min_size=2, max_size=2), max_size=6)


def _request(fields: dict) -> st.SearchStrategy:
    """Requests that may carry each of ``fields`` (a value from its
    strategy or any JSON value) among arbitrary other keys."""
    present = {key: st.one_of(value, _json) for key, value in fields.items()}
    return st.fixed_dictionaries({}, optional=present).flatmap(
        lambda known: st.dictionaries(st.text(max_size=8), _json, max_size=3).map(
            lambda extra: {**extra, **known}
        )
    )


def _refuses_cleanly(decode, *args) -> None:
    """``decode(*args)`` returns, or raises ``ProtocolError``."""
    try:
        decode(*args)
    except ProtocolError as exc:
        assert isinstance(exc.detail, str)


# -- the serve protocol ---------------------------------------------------------


@_FUZZ
@given(st.one_of(st.binary(max_size=256), _json.map(lambda v: json.dumps(v).encode())))
@example(b"[" * 100_000)
@example(b'{"a":' * 100_000)
@example(b"\xff\xfe{\x00}\x00")
@example(b'{"id": 1' + b"0" * 5000 + b"}")
def test_decode_line(line):
    _refuses_cleanly(protocol.decode_line, line)


_SCORE = _request(
    {
        "measure": st.sampled_from(protocol.MEASURES),
        "patterns": st.lists(st.lists(_numbers, max_size=4), max_size=4),
    }
)
_PREDICT = _request({"recent": _points, "sigma": _numbers})
_REPORT = _request(
    {
        "points": _points,
        "sigma": st.one_of(_numbers, st.lists(_numbers, max_size=6)),
        "object_id": st.text(max_size=12),
    }
)
_INGEST = _request({"reports": st.lists(_REPORT, max_size=3)})
_HELLO = _request(
    {
        "version": st.integers(0, 4),
        "require": st.lists(st.sampled_from(protocol.CAPABILITIES), max_size=3),
    }
)
_TRACE = _request(
    {
        "trace": st.fixed_dictionaries(
            {}, optional={"id": st.text(max_size=80), "span": st.text(max_size=80)}
        )
    }
)


@_FUZZ
@given(_SCORE)
def test_parse_score(request):
    _refuses_cleanly(protocol.parse_score, request, 50)


@_FUZZ
@given(_PREDICT)
def test_parse_predict(request):
    _refuses_cleanly(protocol.parse_predict, request)


@_FUZZ
@given(_INGEST)
def test_parse_ingest(request):
    _refuses_cleanly(protocol.parse_ingest, request)


@_FUZZ
@given(_HELLO)
def test_parse_hello(request):
    _refuses_cleanly(protocol.parse_hello, request)


@_FUZZ
@given(_request({"timeout_ms": _numbers}), st.one_of(st.none(), _numbers))
def test_parse_timeout_ms(request, default_ms):
    _refuses_cleanly(protocol.parse_timeout_ms, request, default_ms)


@_FUZZ
@given(_TRACE)
def test_parse_trace(request):
    _refuses_cleanly(protocol.parse_trace, request)


# -- the dist wire ----------------------------------------------------------------


_GRID = st.fixed_dictionaries(
    {},
    optional={
        **{key: _numbers for key in ("min_x", "min_y", "max_x", "max_y")},
        "nx": st.integers(-2, 50_000),
        "ny": st.integers(-2, 50_000),
    },
)
_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "delta": _numbers,
        "prob_model": st.sampled_from(["box", "disk", "ring"]),
        "min_prob": _numbers,
        "radius_sigmas": st.one_of(st.none(), _numbers),
        "max_cells_per_snapshot": _numbers,
        "backend": st.sampled_from(["numpy", "compiled", "auto", "gpu"]),
        "cache_dir": st.one_of(st.none(), st.text(max_size=8)),
    },
)
_SPANS = st.lists(st.lists(_numbers, max_size=3), max_size=4)
_PATTERNS = st.lists(st.lists(_numbers, max_size=4), max_size=4)
_GAP_PATTERN = st.fixed_dictionaries(
    {},
    optional={
        "segments": st.lists(st.lists(_numbers, max_size=3), max_size=3),
        "gaps": st.lists(st.lists(_numbers, max_size=3), max_size=3),
    },
)
_TABLE = st.lists(st.lists(_numbers, max_size=3), max_size=4)
_EXT_TABLES = st.fixed_dictionaries(
    {},
    optional={"nm": _TABLE, "match": _TABLE, "nm_base": _numbers, "match_base": _numbers},
)

_WIRE_DECODERS = {
    wire.grid_from_wire: _GRID,
    wire.config_from_wire: _CONFIG,
    wire.spans_from_wire: _SPANS,
    wire.patterns_from_wire: _PATTERNS,
    wire.gap_pattern_from_wire: _GAP_PATTERN,
    wire.array_from_wire: st.lists(_numbers, max_size=6),
    wire.table_from_wire: _TABLE,
    wire.ext_tables_from_wire: _EXT_TABLES,
}


@pytest.mark.parametrize("decode", list(_WIRE_DECODERS), ids=lambda f: f.__name__)
@_FUZZ
@given(data=st.data())
def test_wire_decoder(decode, data):
    obj = data.draw(st.one_of(_WIRE_DECODERS[decode], _json))
    _refuses_cleanly(decode, obj)


@pytest.mark.parametrize("op", sorted(SPAN_OPS))
@_FUZZ
@given(
    request=_request({"patterns": _PATTERNS, "pattern": _GAP_PATTERN}),
    result=st.one_of(
        _json, st.lists(_numbers, max_size=4), _TABLE, st.lists(_EXT_TABLES, max_size=2)
    ),
)
def test_span_op_codecs(op, request, result):
    _refuses_cleanly(wire.payload_from_wire, op, request)
    _refuses_cleanly(wire.result_from_wire, op, result)
