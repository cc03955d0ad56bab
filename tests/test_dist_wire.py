"""Codec round-trips for the distributed wire protocol.

Every codec must survive an actual JSON hop bit-exactly: the tests below
push values through ``json.dumps``/``json.loads`` (not just the python
objects) because that is what travels on the socket.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.engine import EngineConfig, ExtensionTables
from repro.core.pattern import TrajectoryPattern
from repro.core.wildcards import Gap, GapPattern
from repro.dist import wire
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.uncertainty.gaussian import ProbModel


def _hop(obj):
    """One socket hop: encode to JSON text, parse back."""
    return json.loads(json.dumps(obj))


def test_grid_roundtrip():
    grid = Grid(BoundingBox(-1.5, 0.25, 9.75, 7.0), nx=11, ny=6)
    back = wire.grid_from_wire(_hop(wire.grid_to_wire(grid)))
    assert back.nx == grid.nx and back.ny == grid.ny
    assert back.bbox == grid.bbox


@pytest.mark.parametrize("bad", [None, [], {"min_x": 0.0}, {"nx": 2, "ny": 2}])
def test_grid_from_wire_rejects_malformed(bad):
    with pytest.raises(wire.ProtocolError):
        wire.grid_from_wire(bad)


def test_config_roundtrip_normalises_coordinator_fields():
    config = EngineConfig(
        delta=0.375,
        prob_model=ProbModel.DISK,
        min_prob=1e-7,
        jobs=8,
        cache_dir="/tmp/nope",
    )
    shipped = _hop(wire.config_to_wire(config))
    back = wire.config_from_wire(shipped)
    # Worker-local engine: coordinator-side knobs are normalised away...
    assert back.jobs == 1
    assert back.cache_dir is None
    # ...while everything that affects numbers survives exactly.
    assert back.delta == config.delta
    assert back.prob_model is ProbModel.DISK
    assert back.min_prob == config.min_prob
    assert back.min_log_prob == config.min_log_prob


def test_config_from_wire_rejects_unknown_fields():
    shipped = wire.config_to_wire(EngineConfig(delta=0.5))
    shipped["surprise"] = 1
    with pytest.raises(wire.ProtocolError, match="unknown config fields"):
        wire.config_from_wire(shipped)


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta", math.inf),
        ("delta", math.nan),
        ("radius_sigmas", math.inf),
        ("max_cells_per_snapshot", 1.5),
        ("jobs", 1.5),
    ],
)
def test_config_from_wire_rejects_values_that_build_nothing(field, value):
    """Non-finite distances build an empty index and a fractional cap fails
    deep inside the build: the worker refuses both at the handshake."""
    shipped = wire.config_to_wire(EngineConfig(delta=0.5))
    shipped[field] = value
    with pytest.raises(wire.ProtocolError, match="malformed config"):
        wire.config_from_wire(shipped)


def test_config_from_wire_rejects_removed_fields():
    """A config from a coordinator that still ships ``dtype`` is refused."""
    shipped = wire.config_to_wire(EngineConfig(delta=0.5))
    shipped["dtype"] = "float64"
    with pytest.raises(wire.ProtocolError, match="unknown config fields"):
        wire.config_from_wire(shipped)


def test_spans_roundtrip_and_validation():
    spans = [(0, 3), (3, 7), (7, 8)]
    assert wire.spans_from_wire(_hop(wire.spans_to_wire(spans))) == spans
    for bad in ([], [[0, 0]], [[-1, 2]], [[2, 1]], [[0.0, 2]], [[0, True]], "x"):
        with pytest.raises(wire.ProtocolError):
            wire.spans_from_wire(bad)


def test_patterns_roundtrip_and_validation():
    pats = [(4,), (4, 5, 6)]
    assert wire.patterns_from_wire(_hop(wire.patterns_to_wire(pats))) == pats
    for bad in ("x", [[]], [["a"]], [[1.5]], [[True]]):
        with pytest.raises(wire.ProtocolError):
            wire.patterns_from_wire(bad)


def test_gap_pattern_roundtrip():
    gp = GapPattern(
        (TrajectoryPattern((1, 2)), TrajectoryPattern((9,))),
        (Gap(0, 3),),
    )
    back = wire.gap_pattern_from_wire(_hop(wire.gap_pattern_to_wire(gp)))
    assert back == gp
    with pytest.raises(wire.ProtocolError):
        wire.gap_pattern_from_wire({"segments": [[1]]})


def test_array_roundtrip_is_bit_exact():
    # Awkward doubles: denormals, huge magnitudes, ulp-separated values.
    values = np.array(
        [0.1, -1e300, 5e-324, math.pi, np.nextafter(1.0, 2.0), -0.0],
        dtype=np.float64,
    )
    back = wire.array_from_wire(_hop(wire.array_to_wire(values)))
    assert back.dtype == np.float64
    assert np.array_equal(back, values)
    assert np.signbit(back[-1])  # -0.0 survives


def test_table_roundtrip_is_bit_exact():
    table = {7: -0.1, 3: 1e-300, 12: math.e}
    assert wire.table_from_wire(_hop(wire.table_to_wire(table))) == table
    with pytest.raises(wire.ProtocolError):
        wire.table_from_wire({"3": 1.0})


def test_ext_tables_roundtrip():
    tables = ExtensionTables(
        nm_by_cell={1: -2.5, 4: -0.25},
        match_by_cell={1: 0.125},
        nm_base_total=-100.75,
        match_base_total=0.0625,
    )
    back = wire.ext_tables_from_wire(_hop(wire.ext_tables_to_wire(tables)))
    assert back == tables


def test_best_window_roundtrip():
    assert wire.best_window_from_wire(_hop(wire.best_window_to_wire(None))) is None
    assert wire.best_window_from_wire(_hop(wire.best_window_to_wire((3, -1.5)))) == (
        3,
        -1.5,
    )
    with pytest.raises(wire.ProtocolError):
        wire.best_window_from_wire([1])


def test_check_dist_version():
    wire.check_dist_version({"version": wire.DIST_PROTOCOL_VERSION})
    with pytest.raises(wire.ProtocolError):
        wire.check_dist_version({})
    with pytest.raises(wire.ProtocolError):
        wire.check_dist_version({"version": True})
    with pytest.raises(wire.ProtocolError) as exc:
        wire.check_dist_version({"version": wire.DIST_PROTOCOL_VERSION + 1})
    assert exc.value.fields["server_version"] == wire.DIST_PROTOCOL_VERSION
    assert exc.value.fields["client_version"] == wire.DIST_PROTOCOL_VERSION + 1


#: A JSON integer no double can hold: ``1`` followed by 400 zeros.
HUGE = json.loads("1" + "0" * 400)
_GRID = {"min_x": 0.0, "min_y": 0.0, "max_x": 1.0, "max_y": 1.0, "nx": 2, "ny": 2}


@pytest.mark.parametrize(
    "decode, obj",
    [
        (wire.grid_from_wire, {**_GRID, "max_x": HUGE}),
        (wire.grid_from_wire, {**_GRID, "nx": float("inf")}),
        (wire.config_from_wire, {"delta": HUGE}),
        (wire.table_from_wire, [[3, HUGE]]),
        (wire.table_from_wire, [[float("inf"), 1.0]]),
        (wire.array_from_wire, [0.5, HUGE]),
        (wire.ext_tables_from_wire, {"nm": [], "match": [], "nm_base": HUGE, "match_base": 0.0}),
        (wire.ext_tables_from_wire, {"nm": [[1, HUGE]], "match": [], "nm_base": 0.0, "match_base": 0.0}),
        (wire.best_window_from_wire, [float("inf"), -1.5]),
        (wire.best_window_from_wire, [3, HUGE]),
        (wire.best_window_from_wire, ["3", -1.5]),
        (wire.gap_pattern_from_wire, {"segments": [[float("inf")]], "gaps": []}),
        (lambda obj: wire.result_from_wire("gap_nm", obj), HUGE),
    ],
    ids=[
        "grid.corner", "grid.nx", "config.delta", "table.value", "table.cell",
        "array", "ext_tables.base", "ext_tables.table", "best_window.start",
        "best_window.nm", "best_window.string_start", "gap_pattern.cell", "gap_nm",
    ],
)
def test_numbers_no_double_or_int_holds_are_protocol_errors(decode, obj):
    """Every decoded number goes through a checked conversion: an integer
    too large for a double, an infinity where an integer belongs or a
    string is a ``ProtocolError``, not an escaping ``OverflowError`` or
    ``ValueError``."""
    with pytest.raises(wire.ProtocolError):
        decode(obj)


def test_result_codecs_keep_non_finite_values():
    """Results may be infinite or NaN on purpose; only values no double
    holds are refused."""
    back = wire.array_from_wire(_hop(wire.array_to_wire(np.array([-np.inf, np.nan]))))
    assert back[0] == -np.inf and np.isnan(back[1])
    assert wire.result_from_wire("gap_nm", _hop(float("-inf"))) == float("-inf")
