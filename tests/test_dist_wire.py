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

from repro.core import kernels
from repro.core.engine import EngineConfig, ExtensionTables
from repro.core.parallel import SPAN_OPS
from repro.core.pattern import TrajectoryPattern
from repro.core.wildcards import Gap, GapPattern
from repro.dist import wire
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer, _Session
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.obs import metrics
from repro.storage import write_store
from repro.testkit.datasets import seeded_dataset
from repro.uncertainty.gaussian import ProbModel


def _hop(obj):
    """One socket hop: encode to JSON text, parse back."""
    return json.loads(json.dumps(obj))


def test_grid_roundtrip():
    grid = Grid(BoundingBox(-1.5, 0.25, 9.75, 7.0), nx=11, ny=6)
    back = wire.grid_from_wire(_hop(wire.grid_to_wire(grid)))
    assert back.nx == grid.nx and back.ny == grid.ny
    assert back.bbox == grid.bbox


@pytest.mark.parametrize(
    "bad",
    [
        None,
        [],
        {"min_x": 0.0},
        {"nx": 2, "ny": 2},
        # 10^12 cells: refused before any centre is built.
        {"min_x": 0.0, "min_y": 0.0, "max_x": 1.0, "max_y": 1.0,
         "nx": 10**6, "ny": 10**6},
    ],
)  # fmt: skip
def test_grid_from_wire_rejects_malformed(bad, monkeypatch):
    def no_centres(*args, **kwargs):
        pytest.fail("the grid built its cell centres")

    monkeypatch.setattr(np, "meshgrid", no_centres)
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
        (wire.gap_pattern_from_wire, {"segments": [[float("inf")]], "gaps": []}),
        (lambda obj: wire.result_from_wire("gap_nm", obj), HUGE),
    ],
    ids=[
        "grid.corner", "grid.nx", "config.delta", "table.value", "table.cell",
        "array", "ext_tables.base", "ext_tables.table", "gap_pattern.cell", "gap_nm",
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


def test_op_list_is_the_span_ops_plus_the_session_ops():
    """One op list: the wire answers exactly the span ops, each with a
    result codec, plus the five ops a session handles itself."""
    session_ops = {"hello", "open", "ping", "obs_drain", "close"}
    assert set(wire.DIST_OPS) == set(SPAN_OPS) | session_ops
    assert len(wire.DIST_OPS) == len(SPAN_OPS) + len(session_ops)
    assert set(wire._RESULT_CODECS) == set(SPAN_OPS)


#: One payload of every span op, as :func:`repro.core.parallel.span_op`
#: takes it.
_SPAN_PAYLOADS = {
    "nm_batch": [(3, 4), (5,), (-1, 7, 2)],
    "match_batch": [(0,), (9, -1, -1, 1)],
    "singular_nm": None,
    "singular_match": None,
    "ext_tables": [(1, 2), (6,)],
    "gap_nm": GapPattern(
        (TrajectoryPattern((1, 2)), TrajectoryPattern((5,))), (Gap(0, 3),)
    ),
    "stats": None,
    "obs_snapshot": None,
}


@pytest.mark.parametrize("op", sorted(SPAN_OPS))
def test_every_span_op_payload_survives_a_hop(op):
    payload = _SPAN_PAYLOADS[op]
    request = _hop({"op": op, **wire.payload_to_wire(op, payload)})
    assert wire.payload_from_wire(op, request) == payload


def test_protocol_v2_refuses_a_v1_coordinator_at_hello(session):
    """The op set changed in version 2; a version 1 coordinator is told so
    at ``hello``, with both versions named, not mid-mine."""
    assert wire.DIST_PROTOCOL_VERSION == 2
    reply = session.handle_line(_hello(session, version=1))
    assert reply["ok"] is False and reply["error"] == "bad_request"
    assert (reply["client_version"], reply["server_version"]) == (1, 2)


def test_hello_with_a_huge_grid_is_answered(session, monkeypatch):
    """A 40,000 x 40,000 grid (1.6e9 cells, ids within int32) builds no
    per-cell array: decoding it and greeting a worker with it allocate
    nothing of the grid's size."""

    def no_centres(*args, **kwargs):
        pytest.fail("the grid built its cell centres")

    monkeypatch.setattr(np, "meshgrid", no_centres)
    shipped = {"min_x": -10.0, "min_y": 0.0, "max_x": 30.0, "max_y": 40.0}
    grid = wire.grid_from_wire(_hop({**shipped, "nx": 40_000, "ny": 40_000}))
    assert grid.n_cells == 1_600_000_000
    reply = session.handle_line(_hello(session, grid=grid))
    assert reply["ok"] is True, reply
    assert session.grid == grid


@pytest.fixture
def session(tmp_path):
    path = write_store(seeded_dataset(3), tmp_path / "data.tjc")
    server = WorkerPoolServer(WorkerPoolConfig(store_path=str(path), name="w"))
    try:
        yield _Session(server)
    finally:
        server.store.close()


def _hello(session, version=wire.DIST_PROTOCOL_VERSION, grid=None) -> bytes:
    config = EngineConfig(delta=0.05, min_prob=1e-5)
    grid = grid or Grid(BoundingBox.unit(), nx=4, ny=4)
    return wire.encode(
        {
            "op": "hello",
            "id": 1,
            "version": version,
            "store_hash": session.store.content_hash,
            "grid": wire.grid_to_wire(grid),
            "config": wire.config_to_wire(config),
            "kernel_tag": kernels.prob_kernel_tag(config),
            "metrics": metrics.get_registry().enabled,
        }
    )
