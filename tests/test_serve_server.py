"""Integration tests for the serving layer: real sockets, real engine.

No pytest-asyncio in the environment, so every test drives its own event
loop with ``asyncio.run`` from a plain sync function.
"""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core.trajpattern import MinerStats, MiningResult
from repro.core.pattern import TrajectoryPattern
from repro.core.results_io import save_mining_result
from repro.experiments.datasets import zebranet_dataset
from repro.serve import (
    PatternServer,
    ServeConfig,
    ServingSnapshot,
    SnapshotStore,
    protocol,
)
from repro.serve.batcher import OverloadedError
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.trajectory.io import save_dataset_jsonl


@pytest.fixture(scope="module")
def dataset():
    return zebranet_dataset(n_trajectories=15, n_ticks=25, seed=11)


@pytest.fixture(scope="module")
def snapshot(dataset):
    return ServingSnapshot.from_dataset(dataset, version="v-base")


class _Client:
    """Minimal synchronous-feeling NDJSON client for the tests."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host, port):
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        self.writer.write(protocol.encode(payload))
        await self.writer.drain()
        return protocol.decode_line(await self.reader.readline())

    async def send(self, payload: dict) -> None:
        self.writer.write(protocol.encode(payload))
        await self.writer.drain()

    async def recv(self) -> dict:
        return protocol.decode_line(await self.reader.readline())

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _serve(snapshot, config=None):
    """(server, store) pair on an OS-assigned port; caller must stop()."""
    store = SnapshotStore(snapshot)
    return PatternServer(store, config or ServeConfig()), store


def test_score_matches_direct_engine_evaluation(snapshot):
    cells = snapshot.engine.active_cells
    patterns = [
        [cells[0], cells[0], cells[1]],
        [cells[2], cells[3]],
        [cells[0]],
    ]
    expected_nm = snapshot.engine.nm_batch(
        [TrajectoryPattern(tuple(p)) for p in patterns]
    )
    expected_match = snapshot.engine.match_batch(
        [TrajectoryPattern(tuple(p)) for p in patterns]
    )

    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        nm = await client.request(
            {"op": "score", "id": 1, "patterns": patterns}
        )
        match = await client.request(
            {"op": "score", "id": 2, "patterns": patterns, "measure": "match"}
        )
        await client.close()
        await server.stop()
        return nm, match

    nm, match = asyncio.run(scenario())
    assert nm["ok"] and nm["id"] == 1 and nm["measure"] == "nm"
    assert nm["version"] == "v-base"
    np.testing.assert_allclose(nm["values"], expected_nm, rtol=1e-12)
    np.testing.assert_allclose(match["values"], expected_match, rtol=1e-12)


def test_pipelined_scores_coalesce_into_batches(snapshot):
    cells = snapshot.engine.active_cells

    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        n = 24
        for i in range(n):
            await client.send(
                {"op": "score", "id": i, "patterns": [[cells[i % 8]]]}
            )
        responses = [await client.recv() for _ in range(n)]
        stats = server.stats()
        await client.close()
        await server.stop()
        return responses, stats

    responses, stats = asyncio.run(scenario())
    assert all(r["ok"] for r in responses)
    assert sorted(r["id"] for r in responses) == list(range(24))
    # The whole pipelined burst must have been evaluated in fewer engine
    # calls than requests -- that is the point of the micro-batcher.
    assert stats["batcher"]["batches"] < 24
    assert stats["batcher"]["items"] == 24


def test_admin_ops_and_unknown_op(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        out = {
            "health": await client.request({"op": "health"}),
            "stats": await client.request({"op": "stats"}),
            "describe": await client.request({"op": "describe"}),
            "unknown": await client.request({"op": "frobnicate"}),
            "missing": await client.request({"no_op": True}),
        }
        await client.close()
        await server.stop()
        return out

    out = asyncio.run(scenario())
    assert out["health"]["ok"] and out["health"]["status"] == "ok"
    assert out["health"]["version"] == "v-base"
    assert out["stats"]["ok"]
    stats = out["stats"]["stats"]
    assert stats["queue_depth"] == 0
    if os.path.isdir("/proc/self"):
        assert stats["rss_bytes"] > 0 and stats["rss_peak_bytes"] > 0
        assert stats["open_fds"] > 0 and stats["threads"] >= 1
    else:
        assert stats["rss_bytes"] is None and stats["open_fds"] is None
    describe = out["describe"]
    assert describe["grid"]["n_cells"] == snapshot.grid.n_cells
    assert describe["sample_active_cells"]
    # Both report the served index: its entries and the resident bytes of
    # its CSR (int32 row + float64 value per entry) and segment arrays.
    engine = snapshot.engine
    for payload in (stats, describe):
        assert payload["index_entries"] == engine.n_index_entries > 0
        assert payload["index_bytes"] == engine.index_nbytes
    assert 12 * engine.n_index_entries < engine.index_nbytes
    assert out["unknown"] == {
        "ok": False,
        "error": "unknown_op",
        "detail": "unknown op 'frobnicate'",
    }
    assert out["missing"]["error"] == "unknown_op"


def test_malformed_lines_get_error_responses_not_disconnects(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        client.writer.write(b"garbage that is not json\n")
        await client.writer.drain()
        first = await client.recv()
        # The connection survives; a valid request still works afterwards.
        second = await client.request({"op": "health"})
        await client.close()
        await server.stop()
        return first, second

    first, second = asyncio.run(scenario())
    assert first["ok"] is False and first["error"] == "bad_request"
    assert second["ok"] is True


def test_predict_without_patterns_answers_from_motion_model(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        recent = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
        response = await client.request(
            {"op": "predict", "id": 9, "recent": recent, "sigma": 0.01}
        )
        await client.close()
        await server.stop()
        return response

    response = asyncio.run(scenario())
    assert response["ok"] and response["source"] == "model"
    assert response["degraded"] is False
    # Straight-line motion: the linear model extrapolates the next step.
    np.testing.assert_allclose(response["position"], [0.3, 0.0], atol=1e-9)


def test_predict_uses_patterns_when_available(tmp_path, dataset):
    # A velocity-pattern library whose single pattern continues the probe
    # history.  The prefix must be non-constant (the library's default
    # gate) and the probe velocities sit exactly on the cell centers so the
    # confirmation probability is ~1 regardless of the probe scale.
    from repro.geometry.bbox import BoundingBox
    from repro.geometry.grid import Grid

    vgrid = Grid(BoundingBox(-0.5, -0.5, 0.5, 0.5), nx=10, ny=10)
    v1, v2, v3 = (0.05, 0.05), (0.15, 0.05), (0.05, 0.15)
    a1, a2, b = (vgrid.locate(*v) for v in (v1, v2, v3))
    result = MiningResult(
        patterns=[TrajectoryPattern((a1, a2, b))],
        nm_values=[1.0],
        omega=0.0,
        stats=MinerStats(),
    )
    patterns_path = tmp_path / "patterns.json"
    save_mining_result(result, vgrid, patterns_path)
    snapshot = ServingSnapshot.from_dataset(
        dataset,
        patterns_path=patterns_path,
        version="v-patterns",
        confirm_threshold=0.5,
    )
    assert snapshot.library is not None and len(snapshot.library) == 1

    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        # Positions whose velocity history is exactly (v1, v2).
        recent = [
            [0.0, 0.0],
            [v1[0], v1[1]],
            [v1[0] + v2[0], v1[1] + v2[1]],
        ]
        response = await client.request(
            {"op": "predict", "recent": recent, "sigma": 0.001}
        )
        await client.close()
        await server.stop()
        return response

    response = asyncio.run(scenario())
    assert response["ok"] and response["source"] == "pattern"
    # The pattern's continuation: next ~ last + center of the turn cell.
    expected = (
        np.array([v1[0] + v2[0], v1[1] + v2[1]])
        + vgrid.cell_centers(np.array([b]))[0]
    )
    np.testing.assert_allclose(response["position"], expected, atol=1e-9)


def test_predict_degrades_to_model_under_overload(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()

        async def refuse(key, payload, deadline=None, ctx=None):
            raise OverloadedError("queue_full")

        server._batcher.submit = refuse  # force the degradation path
        client = await _Client.connect(host, port)
        recent = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
        predict = await client.request(
            {"op": "predict", "recent": recent, "sigma": 0.01}
        )
        score = await client.request({"op": "score", "patterns": [[0]]})
        await client.close()
        await server.stop()
        return predict, score

    predict, score = asyncio.run(scenario())
    # predict degrades but still answers...
    assert predict["ok"] is True
    assert predict["degraded"] is True
    assert predict["source"] == "model"
    assert predict["reason"] == "queue_full"
    np.testing.assert_allclose(predict["position"], [0.3, 0.0], atol=1e-9)
    # ...while score sheds with an explicit overload error.
    assert score["ok"] is False
    assert score["error"] == "overloaded"
    assert score["reason"] == "queue_full"


def test_overload_sheds_and_admitted_requests_complete(snapshot):
    """Drive well past capacity: explicit sheds, zero crashes, all answered."""

    async def scenario():
        config = ServeConfig(max_batch=4, max_queue=8, default_timeout_ms=None)
        server, _ = _serve(snapshot, config)
        host, port = await server.start()

        real_handler = server._batcher._handler

        async def slow_handler(key, payloads):
            await asyncio.sleep(0.05)
            return await real_handler(key, payloads)

        server._batcher._handler = slow_handler

        cells = snapshot.engine.active_cells
        client = await _Client.connect(host, port)
        n = 80
        for i in range(n):
            await client.send({"op": "score", "id": i, "patterns": [[cells[0]]]})
        responses = [await client.recv() for _ in range(n)]
        await client.close()
        await server.stop()
        return responses

    responses = asyncio.run(scenario())
    assert len(responses) == 80  # every request got exactly one answer
    ok = [r for r in responses if r["ok"]]
    shed = [r for r in responses if not r["ok"]]
    assert all(r["error"] == "overloaded" for r in shed)
    assert all(r["reason"] in ("queue_full", "deadline", "deadline_expired") for r in shed)
    assert shed, "an 80-deep burst against queue=8 must shed"
    assert ok, "admitted requests must still complete"


def _write_snapshot_dir(path, dataset, version):
    path.mkdir()
    save_dataset_jsonl(dataset, path / "dataset.jsonl")
    (path / "serve.json").write_text(json.dumps({"version": version}))


def test_hot_swap_under_load(tmp_path, dataset):
    """In-flight requests finish on the old snapshot; new ones see the new."""
    dir_v2 = tmp_path / "v2"
    _write_snapshot_dir(dir_v2, zebranet_dataset(n_trajectories=10, n_ticks=20, seed=3), "v2")

    snapshot = ServingSnapshot.from_dataset(dataset, version="v1")
    cells = snapshot.engine.active_cells

    async def scenario():
        server, store = _serve(snapshot, ServeConfig(default_timeout_ms=None))
        host, port = await server.start()

        real_handler = server._batcher._handler

        async def slow_handler(key, payloads):
            await asyncio.sleep(0.08)  # keep the first wave in flight
            return await real_handler(key, payloads)

        server._batcher._handler = slow_handler

        client = await _Client.connect(host, port)
        admin = await _Client.connect(host, port)

        n = 10
        for i in range(n):
            await client.send({"op": "score", "id": i, "patterns": [[cells[0]]]})
        await asyncio.sleep(0.02)  # all admitted, snapshot v1 captured

        swap = await admin.request({"op": "swap", "path": str(dir_v2)})
        assert swap["ok"], swap
        # Requests sent strictly after the swap acknowledgement.
        for i in range(n, 2 * n):
            await client.send({"op": "score", "id": i, "patterns": [[0]]})

        responses = [await client.recv() for _ in range(2 * n)]
        health = await admin.request({"op": "health"})
        await client.close()
        await admin.close()
        await server.stop()
        return swap, responses, health, store.swaps

    swap, responses, health, swaps = asyncio.run(scenario())
    assert swap["version"] == "v2" and swap["previous"] == "v1"
    assert swaps == 1
    by_id = {r["id"]: r for r in responses}
    assert len(by_id) == 20
    # The wave admitted before the swap completed against v1 -- the swap
    # did not cancel, corrupt or re-route the in-flight work.
    for i in range(10):
        assert by_id[i]["ok"], by_id[i]
        assert by_id[i]["version"] == "v1"
    # Everything sent after the swap ack sees the new generation.
    for i in range(10, 20):
        assert by_id[i]["ok"], by_id[i]
        assert by_id[i]["version"] == "v2"
    assert health["version"] == "v2"


def test_swap_to_bad_path_is_an_error_and_keeps_serving(snapshot):
    async def scenario():
        server, store = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        bad = await client.request({"op": "swap", "path": "/nonexistent/nope.jsonl"})
        health = await client.request({"op": "health"})
        await client.close()
        await server.stop()
        return bad, health, store.swaps

    bad, health, swaps = asyncio.run(scenario())
    assert bad["ok"] is False and bad["error"] == "bad_request"
    assert health["ok"] and health["version"] == "v-base"
    assert swaps == 0


def test_shutdown_op_can_be_disabled(snapshot):
    async def scenario():
        server, _ = _serve(snapshot, ServeConfig(allow_shutdown=False))
        host, port = await server.start()
        client = await _Client.connect(host, port)
        refused = await client.request({"op": "shutdown"})
        health = await client.request({"op": "health"})
        await client.close()
        await server.stop()
        return refused, health

    refused, health = asyncio.run(scenario())
    assert refused["ok"] is False and refused["error"] == "forbidden"
    assert health["ok"]


def test_loadgen_closed_loop_against_live_server(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        report = await run_loadgen(
            LoadgenConfig(
                host=host, port=port, requests=40, concurrency=4, op="mixed"
            )
        )
        await server.stop()
        return report

    report = asyncio.run(scenario())
    assert report["mode"] == "closed"
    assert report["sent"] == report["completed"] == report["ok"] == 40
    assert report["errors"] == 0
    assert report["latency"]["p99_ms"] >= report["latency"]["p50_ms"] > 0


def test_loadgen_open_loop_reports_rate(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        report = await run_loadgen(
            LoadgenConfig(
                host=host, port=port, requests=30, concurrency=4, qps=500.0
            )
        )
        await server.stop()
        return report

    report = asyncio.run(scenario())
    assert report["mode"] == "open"
    assert report["completed"] == 30
    assert report["errors"] == 0
    assert report["achieved_qps"] > 0


def test_hello_handshake_and_version_pinning(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()
        client = await _Client.connect(host, port)
        resp = await client.request(
            {"op": "hello", "id": 1, "require": ["score", "pipelining"]}
        )
        assert resp["ok"]
        assert resp["version"] == protocol.PROTOCOL_VERSION
        assert set(protocol.OPS) <= set(resp["capabilities"])
        assert resp["snapshot_version"] == "v-base"

        # Unsupported required capability: structured refusal.
        resp = await client.request(
            {"op": "hello", "id": 2, "require": ["time-travel"]}
        )
        assert not resp["ok"] and resp["error"] == "bad_request"
        assert resp["missing"] == ["time-travel"]

        # Any op pinned to a wrong version is refused with both versions.
        resp = await client.request({"op": "health", "id": 3, "v": 99})
        assert not resp["ok"] and resp["error"] == "bad_request"
        assert resp["client_version"] == 99
        assert resp["server_version"] == protocol.PROTOCOL_VERSION
        # ...and an explicit correct pin works.
        resp = await client.request(
            {"op": "health", "id": 4, "v": protocol.PROTOCOL_VERSION}
        )
        assert resp["ok"]
        await client.close()
        await server.stop()

    asyncio.run(scenario())


def test_loadgen_reconnects_across_server_restart(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()

        replacement_server, _ = _serve(snapshot, ServeConfig(host=host, port=port))

        async def bounce():
            # Wait for the run to make progress, then bounce the server.
            for _ in range(100):
                await asyncio.sleep(0.02)
                if server.stats()["requests_served"] >= 5:
                    break
            await server.stop()
            await replacement_server.start()

        bounce_task = asyncio.get_running_loop().create_task(bounce())
        report = await run_loadgen(
            LoadgenConfig(
                host=host,
                port=port,
                requests=60,
                concurrency=2,
                reconnect_backoff_s=0.05,
                reconnect_cap_s=0.2,
                reconnect_attempts=20,
            )
        )
        await bounce_task
        await replacement_server.stop()
        return report

    report = asyncio.run(scenario())
    assert report["completed"] == report["sent"] == 60
    assert report["reconnects"] >= 1
    assert report["errors"] == 0


def test_loadgen_gives_up_after_reconnect_attempts(snapshot):
    async def scenario():
        server, _ = _serve(snapshot)
        host, port = await server.start()

        async def kill():
            for _ in range(100):
                await asyncio.sleep(0.02)
                if server.stats()["requests_served"] >= 3:
                    break
            await server.stop()

        kill_task = asyncio.get_running_loop().create_task(kill())
        report = await run_loadgen(
            LoadgenConfig(
                host=host,
                port=port,
                requests=40,
                concurrency=2,
                reconnect_backoff_s=0.01,
                reconnect_cap_s=0.02,
                reconnect_attempts=2,
            )
        )
        await kill_task
        return report

    report = asyncio.run(scenario())
    # The server never came back: every unanswered request is reported
    # as an error, none silently dropped.
    assert report["completed"] == report["sent"] == 40
    assert report["errors"] >= 1
