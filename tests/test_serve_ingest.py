"""The live ``ingest`` op and the snapshot lifecycle it leans on.

Three layers under test:

* **protocol**: every malformed report batch is a structured
  ``bad_request`` -- the server must never crash or fold garbage into the
  live index;
* **server**: a fed server republishes generation-keyed snapshots whose
  top-k equals a from-scratch mine of the same trajectories, exactly;
* **lifecycle** (the bugfixes): swapping store-backed snapshots closes
  their fd/mmap exactly once -- after the last in-flight admission drains
  -- and 50 republishes leave the process fd count flat.
"""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core.engine import NMEngine
from repro.core.trajpattern import TrajPatternMiner
from repro.experiments.datasets import zebranet_dataset
from repro.mobility.reporting import trajectory_to_report
from repro.serve import (
    IngestConfig,
    PatternServer,
    ServeConfig,
    ServingSnapshot,
    SnapshotStore,
    protocol,
)
from repro.storage import write_store
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import save_dataset_jsonl


@pytest.fixture(scope="module")
def pool():
    return list(zebranet_dataset(n_trajectories=14, n_ticks=20, seed=29))


@pytest.fixture
def snapshot(pool):
    return ServingSnapshot.from_dataset(
        TrajectoryDataset(pool[:8]), version="v-ingest"
    )


class _Client:
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

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _reports(trajectories):
    return [trajectory_to_report(t) for t in trajectories]


# -- protocol validation -----------------------------------------------------


class TestParseIngest:
    def test_valid_batch_round_trips(self, pool):
        reports = _reports(pool[:3])
        parsed = protocol.parse_ingest({"op": "ingest", "reports": reports})
        assert len(parsed) == 3
        np.testing.assert_array_equal(parsed[0].means, pool[0].means)
        np.testing.assert_array_equal(parsed[0].sigmas, pool[0].sigmas)
        assert parsed[0].object_id == pool[0].object_id

    def test_per_point_sigma_list_accepted(self, pool):
        report = trajectory_to_report(pool[0])
        report["sigma"] = [0.01 + 0.001 * i for i in range(len(report["points"]))]
        (parsed,) = protocol.parse_ingest({"op": "ingest", "reports": [report]})
        np.testing.assert_allclose(parsed.sigmas, report["sigma"])

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda r: r.pop("reports"),
            lambda r: r.update(reports=[]),
            lambda r: r.update(reports="not-a-list"),
            lambda r: r.update(reports=[42]),
            lambda r: r["reports"][0].pop("points"),
            lambda r: r["reports"][0].update(points=[]),
            lambda r: r["reports"][0].update(points=[[1.0]]),
            lambda r: r["reports"][0].update(points=[[1.0, "y"]]),
            lambda r: r["reports"][0].update(points=[[1.0, float("nan")]]),
            lambda r: r["reports"][0].update(points=[[1.0, float("inf")]]),
            lambda r: r["reports"][0].pop("sigma"),
            lambda r: r["reports"][0].update(sigma=0.0),
            lambda r: r["reports"][0].update(sigma=-0.5),
            lambda r: r["reports"][0].update(sigma=float("nan")),
            lambda r: r["reports"][0].update(sigma=True),
            lambda r: r["reports"][0].update(sigma=[0.1]),
            lambda r: r["reports"][0].update(object_id=17),
            lambda r: r["reports"][0].update(object_id="x" * 1000),
        ],
        ids=[
            "no-reports",
            "empty-reports",
            "reports-not-list",
            "report-not-object",
            "no-points",
            "empty-points",
            "point-1d",
            "point-non-numeric",
            "point-nan",
            "point-inf",
            "no-sigma",
            "sigma-zero",
            "sigma-negative",
            "sigma-nan",
            "sigma-bool",
            "sigma-list-wrong-length",
            "object-id-not-str",
            "object-id-too-long",
        ],
    )
    def test_malformed_batches_rejected(self, pool, mangle):
        request = {"op": "ingest", "reports": _reports(pool[:1])}
        mangle(request)
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_ingest(request)

    def test_oversized_batch_rejected(self, pool):
        report = trajectory_to_report(pool[0])
        request = {
            "op": "ingest",
            "reports": [report] * (protocol.MAX_REPORTS_PER_BATCH + 1),
        }
        with pytest.raises(protocol.ProtocolError, match="at most"):
            protocol.parse_ingest(request)


# -- server behaviour --------------------------------------------------------


class TestIngestOp:
    def test_ingest_disabled_is_forbidden(self, snapshot, pool):
        async def scenario():
            server = PatternServer(SnapshotStore(snapshot), ServeConfig())
            host, port = await server.start()
            client = await _Client.connect(host, port)
            response = await client.request(
                {"op": "ingest", "id": 1, "reports": _reports(pool[8:9])}
            )
            await client.close()
            await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"] == "forbidden"

    def test_malformed_ingest_never_crashes_the_server(self, snapshot):
        async def scenario():
            server = PatternServer(
                SnapshotStore(snapshot), ServeConfig(), ingest=IngestConfig()
            )
            host, port = await server.start()
            client = await _Client.connect(host, port)
            bad = await client.request(
                {"op": "ingest", "id": 1, "reports": [{"points": [], "sigma": 1}]}
            )
            # The connection and server survive: a follow-up op answers.
            health = await client.request({"op": "health", "id": 2})
            await client.close()
            await server.stop()
            return bad, health

        bad, health = asyncio.run(scenario())
        assert bad["ok"] is False and bad["error"] == "bad_request"
        assert health["ok"] is True

    def test_fold_republishes_exact_topk(self, snapshot, pool):
        config = IngestConfig(k=4, remine_every=1)

        async def scenario():
            store = SnapshotStore(snapshot)
            server = PatternServer(store, ServeConfig(), ingest=config)
            host, port = await server.start()
            client = await _Client.connect(host, port)
            first = await client.request(
                {"op": "ingest", "id": 1, "reports": _reports(pool[8:11])}
            )
            second = await client.request(
                {"op": "ingest", "id": 2, "reports": _reports(pool[11:14])}
            )
            stats = await client.request({"op": "stats", "id": 3})
            await client.close()
            await server.stop()
            return first, second, stats, store.current

        first, second, stats, current = asyncio.run(scenario())
        assert first["ok"] and first["republished"]
        assert first["generation"] == 1 and first["appended"] == 3
        assert second["generation"] == 2
        assert current.version == "v-ingest+g2"
        assert current.library is not None
        ingest = stats["stats"]["ingest"]
        assert ingest["batches"] == 2
        assert ingest["n_index_entries"] == current.engine.n_index_entries
        assert ingest["last_fold_s"] > 0.0

        # The republished top-k must equal a from-scratch mine, exactly.
        fresh = NMEngine(
            TrajectoryDataset(pool[:14]), snapshot.grid, snapshot.engine.config
        )
        expected = TrajPatternMiner(fresh, k=4).mine()
        got = [(tuple(e["cells"]), e["nm"]) for e in second["top_k"]]
        assert got == [(p.cells, nm) for p, nm in expected.as_pairs()]

    def test_republished_library_keeps_boot_predict_settings(self, pool, tmp_path):
        save_dataset_jsonl(TrajectoryDataset(pool[:8]), tmp_path / "dataset.jsonl")
        (tmp_path / "serve.json").write_text(
            json.dumps({"confirm_threshold": 0.5, "min_prefix": 3})
        )
        boot = ServingSnapshot.load(tmp_path)
        assert boot.library is None  # no patterns.json

        async def scenario():
            store = SnapshotStore(boot)
            server = PatternServer(
                store, ServeConfig(), ingest=IngestConfig(k=4, remine_every=1)
            )
            host, port = await server.start()
            client = await _Client.connect(host, port)
            response = await client.request(
                {"op": "ingest", "id": 1, "reports": _reports(pool[8:11])}
            )
            await client.close()
            await server.stop()
            return response, store.current

        response, current = asyncio.run(scenario())
        assert response["republished"]
        library = current.library
        assert (library.confirm_threshold, library.min_prefix) == (0.5, 3)
        assert (current.confirm_threshold, current.min_prefix) == (0.5, 3)

    def test_remine_cadence_skips_intermediate_batches(self, snapshot, pool):
        config = IngestConfig(k=3, remine_every=2)

        async def scenario():
            store = SnapshotStore(snapshot)
            server = PatternServer(store, ServeConfig(), ingest=config)
            host, port = await server.start()
            client = await _Client.connect(host, port)
            first = await client.request(
                {"op": "ingest", "id": 1, "reports": _reports(pool[8:10])}
            )
            second = await client.request(
                {"op": "ingest", "id": 2, "reports": _reports(pool[10:12])}
            )
            await client.close()
            await server.stop()
            return first, second, store.current.version

        first, second, version = asyncio.run(scenario())
        assert first["ok"] and not first["republished"]
        assert "top_k" not in first
        assert second["republished"] and second["generation"] == 1
        assert version == "v-ingest+g1"

    def test_window_evicts_through_the_wire(self, snapshot, pool):
        config = IngestConfig(k=3, window=9)

        async def scenario():
            server = PatternServer(
                SnapshotStore(snapshot), ServeConfig(), ingest=config
            )
            host, port = await server.start()
            client = await _Client.connect(host, port)
            response = await client.request(
                {"op": "ingest", "id": 1, "reports": _reports(pool[8:12])}
            )
            await client.close()
            await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response["appended"] == 4 and response["evicted"] == 3
        assert response["n_trajectories"] == 9

    def test_republishing_leaves_the_index_cache_as_booted(self, pool, tmp_path):
        """Folds write no index-cache entry: after three republishing waves
        from a store-backed boot, the cache directory holds the boot entry
        alone, byte for byte.  No boot loads a grown dataset, so any other
        entry would go unread."""
        store_path = tmp_path / "dataset.tjc"
        write_store(TrajectoryDataset(pool[:8]), store_path)
        cache = tmp_path / "cache"
        boot = ServingSnapshot.load(store_path, cache_dir=cache)
        (entry,) = cache.iterdir()
        booted = entry.read_bytes()

        async def scenario():
            store = SnapshotStore(boot)
            server = PatternServer(
                store, ServeConfig(cache_dir=str(cache)), ingest=IngestConfig(k=3)
            )
            host, port = await server.start()
            client = await _Client.connect(host, port)
            responses = [
                await client.request(
                    {"op": "ingest", "id": i, "reports": _reports(pool[lo : lo + 2])}
                )
                for i, lo in enumerate((8, 10, 12))
            ]
            await client.close()
            await server.stop()
            return responses, store.current.version

        responses, version = asyncio.run(scenario())
        assert [r["generation"] for r in responses if r["republished"]] == [1, 2, 3]
        assert version == f"{boot.version}+g3"
        assert list(cache.iterdir()) == [entry]
        assert entry.read_bytes() == booted


# -- snapshot lifecycle (the fd-leak and drain bugfixes) ---------------------


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


_NEEDS_PROCFS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


class TestSnapshotLifecycle:
    @_NEEDS_PROCFS
    def test_fd_count_stable_across_50_store_swaps(self, pool, tmp_path):
        store_path = tmp_path / "dataset.tjc"
        write_store(TrajectoryDataset(pool[:6]), store_path)
        cache = tmp_path / "cache"
        boot = ServingSnapshot.load(store_path, cache_dir=cache)
        store = SnapshotStore(boot)
        # Warm-up swap so baseline and final states are alike (a cache-hit
        # loaded snapshot as current); the boot build touches different
        # lazy columns than warm loads do.
        store.swap(ServingSnapshot.load(store_path, cache_dir=cache))
        baseline = _fd_count()
        for _ in range(50):
            store.swap(ServingSnapshot.load(store_path, cache_dir=cache))
        assert not store.current.closed
        assert _fd_count() == baseline

    def test_swap_closes_store_backed_snapshot_once_drained(self, pool, tmp_path):
        store_path = tmp_path / "dataset.tjc"
        write_store(TrajectoryDataset(pool[:6]), store_path)
        old = ServingSnapshot.load(store_path)
        replacement = ServingSnapshot.from_dataset(
            TrajectoryDataset(pool[:4]), version="v-next"
        )
        store = SnapshotStore(old)

        pinned = store.acquire()
        assert pinned is old and old.inflight == 1
        store.swap(replacement)
        # An in-flight admission defers the close: the dataset stays readable.
        assert not old.closed
        assert len(old.dataset[0]) == len(pool[0])
        store.release(pinned)
        assert old.closed and old.inflight == 0

    def test_swap_with_no_inflight_closes_immediately(self, pool, tmp_path):
        store_path = tmp_path / "dataset.tjc"
        write_store(TrajectoryDataset(pool[:6]), store_path)
        old = ServingSnapshot.load(store_path)
        store = SnapshotStore(old)
        store.swap(ServingSnapshot.from_dataset(TrajectoryDataset(pool[:4])))
        assert old.closed

    def test_closed_store_backed_snapshot_refuses_admission(self, pool, tmp_path):
        store_path = tmp_path / "dataset.tjc"
        write_store(TrajectoryDataset(pool[:6]), store_path)
        old = ServingSnapshot.load(store_path)
        old.retire()
        assert old.closed
        with pytest.raises(RuntimeError, match="closed"):
            old.retain()

    def test_retired_in_memory_snapshot_stays_admittable(self, pool):
        snap = ServingSnapshot.from_dataset(TrajectoryDataset(pool[:4]))
        snap.retire()
        # No backing store to lose: a blue/green flip back must still work.
        snap.retain()
        snap.release()

    def test_release_without_retain_is_an_error(self, pool):
        snap = ServingSnapshot.from_dataset(TrajectoryDataset(pool[:4]))
        with pytest.raises(RuntimeError, match="without matching retain"):
            snap.release()
