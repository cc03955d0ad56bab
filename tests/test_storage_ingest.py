"""Streaming converters (JSONL/CSV/Porto) and their CLI subcommands."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import cli
from repro.storage import (
    convert_csv_to_store,
    convert_jsonl_to_store,
    ingest_porto_csv,
    open_store,
)
from repro.testkit.datasets import seeded_dataset
from repro.trajectory.io import iter_dataset_jsonl, save_dataset_jsonl


@pytest.fixture(scope="module")
def eager():
    return seeded_dataset(2, n_trajectories=6, n_ticks=12)


@pytest.fixture
def jsonl_file(eager, tmp_path):
    path = tmp_path / "d.jsonl"
    save_dataset_jsonl(eager, path)
    return path


class TestIterJsonl:
    def test_streams_header_then_trajectories(self, eager, jsonl_file):
        stream = iter_dataset_jsonl(jsonl_file)
        header = next(stream)
        assert isinstance(header, dict)
        trajs = list(stream)
        assert len(trajs) == len(eager)
        assert np.array_equal(
            np.asarray(trajs[0].means), np.asarray(eager.trajectories[0].means)
        )

    def test_malformed_line_reports_location(self, jsonl_file):
        lines = jsonl_file.read_text().splitlines()
        lines[3] = "{not json"
        jsonl_file.write_text("\n".join(lines) + "\n")
        stream = iter_dataset_jsonl(jsonl_file)
        next(stream)
        with pytest.raises(ValueError, match=r":4"):
            list(stream)


class TestConvertJsonl:
    def test_store_equals_eager_dataset(self, eager, jsonl_file, tmp_path):
        summary = convert_jsonl_to_store(jsonl_file, tmp_path / "d.tjc")
        assert summary["n_trajectories"] == len(eager)
        assert summary["total_snapshots"] == eager.total_snapshots()
        with open_store(tmp_path / "d.tjc") as store:
            assert np.array_equal(
                store.dataset().all_means(), eager.all_means()
            )


class TestConvertCsv:
    def _write_csv(self, path, rows, header="object_id,snapshot,x,y,sigma"):
        path.write_text(header + "\n" + "\n".join(rows) + "\n")

    def test_groups_and_sorts_rows(self, tmp_path):
        src = tmp_path / "d.csv"
        self._write_csv(
            src,
            [
                "a,1,0.2,0.3,0.01",
                "a,0,0.1,0.2,0.01",
                "b,0,0.5,0.5,0.02",
            ],
        )
        convert_csv_to_store(src, tmp_path / "d.tjc")
        with open_store(tmp_path / "d.tjc") as store:
            assert store.object_ids == ["a", "b"]
            first = store.trajectory(0)
            # rows sorted by snapshot index within the object
            assert np.array_equal(
                np.asarray(first.means), np.array([[0.1, 0.2], [0.2, 0.3]])
            )

    def test_default_sigma_fills_missing_column(self, tmp_path):
        src = tmp_path / "d.csv"
        self._write_csv(
            src, ["a,0,0.1,0.2", "a,1,0.2,0.3"], header="object_id,snapshot,x,y"
        )
        with pytest.raises(ValueError, match="sigma"):
            convert_csv_to_store(src, tmp_path / "d.tjc")
        convert_csv_to_store(src, tmp_path / "d.tjc", default_sigma=0.05)
        with open_store(tmp_path / "d.tjc") as store:
            assert np.array_equal(
                store.sigmas(0, 2), np.array([0.05, 0.05])
            )

    def test_interleaved_objects_raise_with_line(self, tmp_path):
        src = tmp_path / "d.csv"
        self._write_csv(
            src,
            ["a,0,0.1,0.2,0.01", "b,0,0.5,0.5,0.01", "a,1,0.2,0.3,0.01"],
        )
        with pytest.raises(ValueError, match=r":4.*not\s+contiguous"):
            convert_csv_to_store(src, tmp_path / "d.tjc")
        assert not (tmp_path / "d.tjc").exists()

    def test_bad_row_raises_with_line(self, tmp_path):
        src = tmp_path / "d.csv"
        self._write_csv(src, ["a,0,0.1,0.2,0.01", "a,oops,0.2,0.3,0.01"])
        with pytest.raises(ValueError, match=r":3"):
            convert_csv_to_store(src, tmp_path / "d.tjc")


class TestIngestPorto:
    def _write_porto(self, path, polylines):
        rows = [
            f'{i},"{json.dumps(p)}"' if p is not None else f"{i},"
            for i, p in enumerate(polylines)
        ]
        path.write_text("TRIP_ID,POLYLINE\n" + "\n".join(rows) + "\n")

    def test_ingests_and_counts_skips(self, tmp_path):
        src = tmp_path / "porto.csv"
        self._write_porto(
            src,
            [
                [[-8.61, 41.14], [-8.62, 41.15]],
                [],  # famously-empty polyline -> skipped
                [[-8.60, 41.13], [-8.60, 41.14], [-8.61, 41.14]],
            ],
        )
        summary = ingest_porto_csv(src, tmp_path / "p.tjc", sigma=1e-4)
        assert summary["n_trajectories"] == 2
        assert summary["total_snapshots"] == 5
        assert summary["n_skipped"] == 1
        with open_store(tmp_path / "p.tjc") as store:
            assert store.object_ids == ["0", "2"]
            assert np.allclose(store.sigmas(0, 5), 1e-4)
            assert store.metadata["source"] == "porto-csv"

    def test_strict_mode_raises_on_malformed(self, tmp_path):
        src = tmp_path / "porto.csv"
        self._write_porto(src, [[[-8.61, 41.14]], []])
        with pytest.raises(ValueError, match=r":3"):
            ingest_porto_csv(src, tmp_path / "p.tjc", sigma=1e-4, skip_malformed=False)

    def test_rejects_bad_sigma(self, tmp_path):
        src = tmp_path / "porto.csv"
        self._write_porto(src, [[[-8.61, 41.14]]])
        with pytest.raises(ValueError, match="sigma"):
            ingest_porto_csv(src, tmp_path / "p.tjc", sigma=0.0)


class TestCliSubcommands:
    def test_convert_then_store_info(self, jsonl_file, tmp_path, capsys):
        out_path = tmp_path / "d.tjc"
        assert (
            cli.main(
                ["convert", str(jsonl_file), str(out_path), "--compression", "zlib"]
            )
            == 0
        )
        assert out_path.exists()
        capsys.readouterr()
        assert cli.main(["store-info", str(out_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "repro.tjc"
        assert info["compression"] == "zlib"
        assert info["n_trajectories"] == 6

    def test_convert_csv_via_cli(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text(
            "object_id,snapshot,x,y\n" "a,0,0.1,0.2\n" "a,1,0.2,0.3\n"
        )
        assert (
            cli.main(
                [
                    "convert",
                    str(src),
                    str(tmp_path / "d.tjc"),
                    "--default-sigma",
                    "0.05",
                ]
            )
            == 0
        )
        with open_store(tmp_path / "d.tjc") as store:
            assert store.n_trajectories == 1

    def test_ingest_via_cli(self, tmp_path, capsys):
        src = tmp_path / "porto.csv"
        src.write_text(
            'TRIP_ID,POLYLINE\n1,"[[-8.61, 41.14], [-8.62, 41.15]]"\n2,\n'
        )
        assert (
            cli.main(
                ["ingest", str(src), str(tmp_path / "p.tjc"), "--sigma", "1e-4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipped 1" in out
        with open_store(tmp_path / "p.tjc") as store:
            assert store.n_trajectories == 1

    def test_mine_accepts_store(self, eager, jsonl_file, tmp_path, capsys):
        store_path = tmp_path / "d.tjc"
        cli.main(["convert", str(jsonl_file), str(store_path)])
        capsys.readouterr()
        patterns_out = tmp_path / "patterns.json"
        assert (
            cli.main(
                [
                    "mine",
                    str(store_path),
                    "-k",
                    "3",
                    "--cell-size",
                    "0.1",
                    "--delta",
                    "0.08",
                    "--gamma",
                    "0.1",
                    "--output",
                    str(patterns_out),
                ]
            )
            == 0
        )
        jsonl_patterns = tmp_path / "patterns-jsonl.json"
        cli.main(
            [
                "mine",
                str(jsonl_file),
                "-k",
                "3",
                "--cell-size",
                "0.1",
                "--delta",
                "0.08",
                "--gamma",
                "0.1",
                "--output",
                str(jsonl_patterns),
            ]
        )
        a = json.loads(patterns_out.read_text())
        b = json.loads(jsonl_patterns.read_text())
        assert a["patterns"] == b["patterns"]
