"""Validation tests for the NDJSON serving protocol."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.pattern import WILDCARD
from repro.serve import protocol


def test_encode_decode_roundtrip():
    line = protocol.encode({"op": "health", "id": 3})
    assert line.endswith(b"\n")
    assert protocol.decode_line(line) == {"op": "health", "id": 3}


@pytest.mark.parametrize(
    "line",
    [b"not json\n", b"[1, 2, 3]\n", b'"just a string"\n', b"\xff\xfe\n"],
)
def test_decode_rejects_garbage(line):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(line)


def test_request_id_accepts_scalars_only():
    assert protocol.request_id({"id": "abc"}) == "abc"
    assert protocol.request_id({"id": 7}) == 7
    assert protocol.request_id({}) is None
    with pytest.raises(protocol.ProtocolError):
        protocol.request_id({"id": {"nested": 1}})


def test_parse_timeout_ms():
    assert protocol.parse_timeout_ms({}, 250.0) == 250.0
    assert protocol.parse_timeout_ms({"timeout_ms": 10}, 250.0) == 10.0
    assert protocol.parse_timeout_ms({}, None) is None
    for bad in (0, -5, "fast", True):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_timeout_ms({"timeout_ms": bad}, None)


def test_parse_score_accepts_wildcards_and_validates_range():
    patterns, measure = protocol.parse_score(
        {"patterns": [[0, WILDCARD, 5]], "measure": "match"}, n_cells=10
    )
    assert measure == "match"
    assert patterns[0].cells == (0, WILDCARD, 5)


@pytest.mark.parametrize(
    "request_",
    [
        {},  # missing patterns
        {"patterns": []},
        {"patterns": "nope"},
        {"patterns": [[]]},
        {"patterns": [[1]], "measure": "cosine"},
        {"patterns": [[99]]},  # out of grid
        {"patterns": [[-2]]},  # below the wildcard
        {"patterns": [[1.5]]},  # non-integer cell
        {"patterns": [[True]]},  # bool is not a cell id
        {"patterns": [list(range(200))]},  # too long
    ],
)
def test_parse_score_rejects_malformed(request_):
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_score(request_, n_cells=10)


def test_parse_score_caps_pattern_count():
    too_many = {"patterns": [[0]] * (protocol.MAX_PATTERNS_PER_REQUEST + 1)}
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_score(too_many, n_cells=10)


def test_parse_predict_happy_path():
    recent, sigma = protocol.parse_predict(
        {"recent": [[0.0, 0.0], [1.0, 0.5]], "sigma": 0.1}
    )
    assert recent.shape == (2, 2)
    assert sigma == 0.1


@pytest.mark.parametrize(
    "request_",
    [
        {"recent": [[0, 0]], "sigma": 0.1},  # too short
        {"recent": "nope", "sigma": 0.1},
        {"recent": [[0, 0], [1]], "sigma": 0.1},  # ragged point
        {"recent": [[0, 0], ["a", 1]], "sigma": 0.1},
        {"recent": [[0, 0], [1, float("nan")]], "sigma": 0.1},
        {"recent": [[0, 0], [1, 1]]},  # missing sigma
        {"recent": [[0, 0], [1, 1]], "sigma": 0},
        {"recent": [[0, 0], [1, 1]], "sigma": float("inf")},
    ],
)
def test_parse_predict_rejects_malformed(request_):
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_predict(request_)


def test_parse_predict_nan_encoded_as_number():
    # json.loads turns "NaN" into float nan -- must still be rejected.
    import json

    request = json.loads('{"recent": [[0, 0], [NaN, 1]], "sigma": 0.1}')
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_predict(request)


def test_responses_carry_id_and_error_code():
    ok = protocol.ok_response(4, values=[1.0])
    assert ok == {"ok": True, "id": 4, "values": [1.0]}
    err = protocol.error_response(None, "overloaded", reason="queue_full")
    assert err == {"ok": False, "error": "overloaded", "reason": "queue_full"}


def test_values_field_converts_numpy_scalars():
    values = protocol.values_field(np.array([1.5, 2.5]))
    assert values == [1.5, 2.5]
    assert all(type(v) is float for v in values)


def test_check_version_accepts_absent_and_current():
    protocol.check_version({})  # absent v: whatever the server speaks
    protocol.check_version({"v": protocol.PROTOCOL_VERSION})


def test_check_version_rejects_mismatch_with_both_versions_named():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.check_version({"v": protocol.PROTOCOL_VERSION + 1})
    assert exc.value.code == "bad_request"
    assert exc.value.fields["client_version"] == protocol.PROTOCOL_VERSION + 1
    assert exc.value.fields["server_version"] == protocol.PROTOCOL_VERSION


@pytest.mark.parametrize("bad", [True, 1.5, "1", []])
def test_check_version_rejects_non_integer(bad):
    with pytest.raises(protocol.ProtocolError):
        protocol.check_version({"v": bad})


def test_parse_hello_defaults_and_capabilities():
    version, require = protocol.parse_hello({})
    assert version == protocol.PROTOCOL_VERSION
    assert require == ()
    _, require = protocol.parse_hello({"require": ["score", "trace"]})
    assert require == ("score", "trace")
    assert set(protocol.OPS) <= set(protocol.CAPABILITIES)


def test_parse_hello_rejects_unknown_capability_naming_it():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_hello({"require": ["score", "time-travel"]})
    assert exc.value.fields["missing"] == ["time-travel"]
    assert exc.value.fields["capabilities"] == list(protocol.CAPABILITIES)


def test_parse_hello_rejects_version_skew():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_hello({"version": 99})
    assert exc.value.fields["server_version"] == protocol.PROTOCOL_VERSION


#: A JSON integer no double can hold: ``1`` followed by 400 zeros.
HUGE = json.loads("1" + "0" * 400)
_POINTS = [[0.0, 0.0], [1.0, 1.0]]


@pytest.mark.parametrize(
    "parse, request_",
    [
        (protocol.parse_predict, {"recent": [[0, 0], [HUGE, 1]], "sigma": 0.1}),
        (protocol.parse_predict, {"recent": _POINTS, "sigma": HUGE}),
        (protocol.parse_ingest, {"reports": [{"points": [[0, HUGE]], "sigma": 0.1}]}),
        (protocol.parse_ingest, {"reports": [{"points": _POINTS, "sigma": HUGE}]}),
        (protocol.parse_ingest, {"reports": [{"points": _POINTS, "sigma": [0.1, HUGE]}]}),
        (lambda request: protocol.parse_timeout_ms(request, None), {"timeout_ms": HUGE}),
    ],
    ids=[
        "predict.recent", "predict.sigma", "ingest.points", "ingest.sigma",
        "ingest.sigma_list", "timeout_ms",
    ],
)
def test_numbers_outside_the_float_range_are_bad_requests(parse, request_):
    """An integer too large for a double is a ``bad_request``, not an
    ``OverflowError`` or ``TypeError`` answered as ``internal``."""
    with pytest.raises(protocol.ProtocolError, match="outside the float range"):
        parse(request_)


@pytest.mark.parametrize("raw", ["NaN", "Infinity"])
def test_parse_timeout_ms_rejects_non_finite(raw):
    """``timeout_ms: NaN`` was accepted and acted as no deadline."""
    with pytest.raises(protocol.ProtocolError, match="finite"):
        protocol.parse_timeout_ms(json.loads(f'{{"timeout_ms": {raw}}}'), None)
