"""Round-trip, atomicity and format-validation tests for the .tjc store."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.index_cache import dataset_fingerprint
from repro.storage import (
    FORMAT_VERSION,
    StoreFormatError,
    StoreWriter,
    is_store_path,
    open_store,
    write_store,
)
from repro.storage import columnar
from repro.testkit.datasets import seeded_dataset
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

CODECS = [
    dict(compression="none", positions="f64"),
    dict(compression="zlib", positions="f64"),
    dict(compression="zlib", positions="q32", quant_scale=1e-9),
]


@pytest.fixture(scope="module")
def dataset():
    return seeded_dataset(11, n_trajectories=9, n_ticks=23)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", CODECS, ids=lambda c: f"{c['positions']}-{c['compression']}")
    def test_materialised_trajectories_match(self, dataset, tmp_path, codec):
        path = write_store(dataset, tmp_path / "d.tjc", **codec)
        with open_store(path) as store:
            assert store.n_trajectories == len(dataset)
            assert store.total_snapshots == dataset.total_snapshots()
            back = store.materialise()
        for orig, got in zip(dataset, back):
            assert got.object_id == orig.object_id
            assert np.array_equal(np.asarray(got.sigmas), np.asarray(orig.sigmas))
            if codec["positions"] == "f64":
                assert np.array_equal(np.asarray(got.means), np.asarray(orig.means))
            else:
                # q32 is lossy by quant_scale; the error bound is half an ULP
                # of the quantisation grid.
                err = np.abs(np.asarray(got.means) - np.asarray(orig.means))
                assert err.max() <= codec["quant_scale"]

    def test_lossless_columns_bit_identical(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc", compression="zlib")
        with open_store(path) as store:
            assert np.array_equal(
                store.means(0, store.total_snapshots), dataset.all_means()
            )
            assert np.array_equal(
                store.sigmas(0, store.total_snapshots), dataset.all_sigmas()
            )
            assert np.array_equal(store.lengths, dataset.lengths())

    def test_timestamps_round_trip(self, tmp_path):
        means = np.linspace(0.1, 0.9, 10).reshape(5, 2)
        with StoreWriter(tmp_path / "t.tjc", store_times=True, tick=0.5) as writer:
            writer.append_arrays(means, 0.01, object_id="a", start_time=100.0, dt=2.5)
            writer.append_arrays(means, 0.02, object_id="b", start_time=-3.0, dt=0.5)
        with open_store(tmp_path / "t.tjc") as store:
            # times() yields int64 ticks of the writer's `tick` unit:
            # start 100.0 / 0.5 = 200 ticks, dt 2.5 / 0.5 = 5 ticks.
            times = store.times(0, store.total_snapshots)
            assert times.dtype == np.int64
            assert np.array_equal(times[:5], 200 + 5 * np.arange(5))
            assert np.array_equal(times[5:], -6 + 1 * np.arange(5))

    def test_times_unavailable_without_store_times(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        with open_store(path) as store:
            with pytest.raises(ValueError, match="without timestamps"):
                store.times(0, 1)

    def test_multi_chunk_store(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc", chunk_rows=16, compression="zlib")
        with open_store(path) as store:
            assert store.describe()["n_chunks"] > 1
            assert np.array_equal(
                store.means(0, store.total_snapshots), dataset.all_means()
            )
            # straddling reads cross chunk boundaries
            assert np.array_equal(store.means(10, 40), dataset.all_means()[10:40])

    def test_content_hash_matches_dataset_fingerprint(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc", compression="zlib")
        with open_store(path) as store:
            assert store.content_hash == dataset_fingerprint(dataset)

    def test_stats_are_exact(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        means = dataset.all_means()
        with open_store(path) as store:
            stats = store.stats
            assert stats["min_x"] == means[:, 0].min()
            assert stats["max_x"] == means[:, 0].max()
            assert stats["min_y"] == means[:, 1].min()
            assert stats["max_y"] == means[:, 1].max()
            assert stats["max_sigma"] == dataset.all_sigmas().max()

    def test_describe_summarises_header(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc", compression="zlib")
        with open_store(path) as store:
            info = store.describe()
        assert info["format"] == "repro.tjc"
        assert info["version"] == FORMAT_VERSION
        assert info["n_trajectories"] == len(dataset)
        assert info["compression"] == "zlib"


class _CountingFile:
    """A file object that counts the bytes read through it."""

    def __init__(self, fh):
        self._fh = fh
        self.bytes_read = 0

    def read(self, n=-1):
        data = self._fh.read(n)
        self.bytes_read += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestOpenCost:
    @pytest.mark.parametrize(
        "n_trajectories, writer_kwargs",
        [
            (4, dict(compression="none", positions="f64")),
            (9, dict(chunk_rows=16, compression="zlib")),
        ],
        ids=["one-chunk", "multi-chunk"],
    )
    def test_open_reads_only_magic_trailer_and_footer(
        self, tmp_path, monkeypatch, n_trajectories, writer_kwargs
    ):
        """Opening costs O(footer) whatever the row count: the leading
        magic, the trailer and the footer are read, and no row data is
        mapped or decoded."""
        data = seeded_dataset(11, n_trajectories=n_trajectories, n_ticks=23)
        path = write_store(data, tmp_path / "d.tjc", **writer_kwargs)
        (footer_len,) = struct.unpack("<Q", path.read_bytes()[-16:-8])

        files = []

        def counting_open(*args, **kwargs):
            files.append(_CountingFile(open(*args, **kwargs)))
            return files[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("open_store touched row data")

        monkeypatch.setattr(columnar, "open", counting_open, raising=False)
        monkeypatch.setattr(columnar.np, "memmap", refuse)
        monkeypatch.setattr(columnar.os, "pread", refuse)
        monkeypatch.setattr(columnar, "_decode_chunk_blobs", refuse)
        with open_store(path) as store:
            n_chunks = store.describe()["n_chunks"]
            assert store.total_snapshots == n_trajectories * 23
        assert (n_chunks == 1) == (n_trajectories == 4)
        assert [f.bytes_read for f in files] == [2 * len(columnar.MAGIC) + 8 + footer_len]


class TestWriterValidation:
    def test_rejects_unknown_codecs(self, tmp_path):
        with pytest.raises(ValueError, match="compression"):
            StoreWriter(tmp_path / "x.tjc", compression="lz77")
        with pytest.raises(ValueError, match="position codec"):
            StoreWriter(tmp_path / "x.tjc", positions="f16")
        with pytest.raises(ValueError, match="quant_scale"):
            StoreWriter(tmp_path / "x.tjc", positions="q32")

    def test_rejects_bad_arrays(self, tmp_path):
        with StoreWriter(tmp_path / "x.tjc") as writer:
            with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
                writer.append_arrays(np.zeros(4), 0.1)
            with pytest.raises(ValueError, match="finite"):
                writer.append_arrays(np.full((3, 2), np.nan), 0.1)
            with pytest.raises(ValueError, match="positive"):
                writer.append_arrays(np.zeros((3, 2)), -1.0)
            writer.append_arrays(np.zeros((3, 2)), 0.1)

    def test_abort_leaves_nothing(self, tmp_path):
        target = tmp_path / "x.tjc"
        with pytest.raises(RuntimeError, match="boom"):
            with StoreWriter(target) as writer:
                writer.append_arrays(np.zeros((3, 2)), 0.1)
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_commit_is_atomic_over_existing(self, dataset, tmp_path):
        target = tmp_path / "x.tjc"
        write_store(dataset, target)
        first = target.read_bytes()
        # A failed rewrite must leave the original intact.
        with pytest.raises(RuntimeError):
            with StoreWriter(target) as writer:
                writer.append_arrays(np.zeros((2, 2)) + 0.5, 0.2)
                raise RuntimeError("interrupted")
        assert target.read_bytes() == first


class TestFormatRejection:
    def test_sniffs_store_paths(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        assert is_store_path(path)
        other = tmp_path / "d.jsonl"
        other.write_text('{"format": "repro.trajectory"}\n')
        assert not is_store_path(other)
        assert not is_store_path(tmp_path / "missing.tjc")

    def test_rejects_non_store(self, tmp_path):
        junk = tmp_path / "x.tjc"
        junk.write_bytes(b"definitely not a store, but long enough to scan")
        with pytest.raises(StoreFormatError, match="bad magic"):
            open_store(junk)
        tiny = tmp_path / "tiny.tjc"
        tiny.write_bytes(b"hi")
        with pytest.raises(StoreFormatError, match="too small"):
            open_store(tiny)

    def test_rejects_truncated_store(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(StoreFormatError, match="trailing magic"):
            open_store(path)

    def test_rejects_future_format_version(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        blob = bytearray(path.read_bytes())
        # Surgically bump the footer's version field in place: the footer
        # is compact JSON, so rewrite `"version":1` keeping the byte length.
        needle = b'"version":%d' % FORMAT_VERSION
        at = blob.rindex(needle)
        blob[at : at + len(needle)] = b'"version":%d' % (FORMAT_VERSION + 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreFormatError, match="unsupported"):
            open_store(path)

    def test_rejects_corrupt_footer_length(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        blob = bytearray(path.read_bytes())
        tail = len(blob) - 8 - 8  # 8-byte magic + uint64 footer_len
        blob[tail : tail + 8] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreFormatError, match="footer"):
            open_store(path)


class TestEmptyAndEdge:
    def test_empty_store_round_trips(self, tmp_path):
        with StoreWriter(tmp_path / "e.tjc"):
            pass
        with open_store(tmp_path / "e.tjc") as store:
            assert store.n_trajectories == 0
            assert store.total_snapshots == 0
            assert len(store.materialise()) == 0

    def test_single_snapshot_trajectory(self, tmp_path):
        traj = UncertainTrajectory(np.array([[0.5, 0.5]]), 0.01, object_id="solo")
        write_store(TrajectoryDataset([traj]), tmp_path / "s.tjc")
        with open_store(tmp_path / "s.tjc") as store:
            got = store.trajectory(0)
            assert got.object_id == "solo"
            assert np.array_equal(np.asarray(got.means), np.asarray(traj.means))

    def test_row_range_validation(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        with open_store(path) as store:
            with pytest.raises(IndexError):
                store.means(0, store.total_snapshots + 1)
            with pytest.raises(IndexError):
                store.trajectory(store.n_trajectories)

    def test_closed_store_rejects_reads(self, dataset, tmp_path):
        path = write_store(dataset, tmp_path / "d.tjc")
        store = open_store(path)
        store.close()
        with pytest.raises(ValueError):
            store.means(0, 1)
