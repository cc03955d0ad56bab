"""End-to-end tests for the library CLI commands (mine / score / suggest)."""

import json

import numpy as np
import pytest

import repro.cli as cli
from repro.datagen.observe import observe_paths
from repro.datagen.random_walk import correlated_random_walks
from repro.trajectory.io import save_dataset_jsonl


@pytest.fixture
def dataset_file(tmp_path):
    rng = np.random.default_rng(5)
    paths = correlated_random_walks(8, 15, rng, step=0.03, turn_sigma=0.1)
    dataset = observe_paths(paths, sigma=0.01, rng=rng)
    path = tmp_path / "walks.jsonl"
    save_dataset_jsonl(dataset, path)
    return path


class TestSuggestCommand:
    def test_prints_section5_rules(self, dataset_file, capsys):
        assert cli.main(["suggest", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out and "gamma" in out and "3 sigma" in out


class TestMineCommand:
    def test_mines_and_writes_pattern_file(self, dataset_file, tmp_path, capsys):
        out_file = tmp_path / "patterns.json"
        code = cli.main(
            [
                "mine",
                str(dataset_file),
                "--output",
                str(out_file),
                "-k",
                "5",
                "--max-length",
                "3",
                "--cell-size",
                "0.03",
                "--min-prob",
                "1e-4",
                "--show",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mined 5 patterns" in out
        assert "converged after" in out
        document = json.loads(out_file.read_text())
        assert document["format"] == "repro.mining-result"
        assert len(document["patterns"]) == 5


class TestScoreCommand:
    def test_rescores_pattern_file(self, dataset_file, tmp_path, capsys):
        out_file = tmp_path / "patterns.json"
        cli.main(
            [
                "mine",
                str(dataset_file),
                "--output",
                str(out_file),
                "-k",
                "4",
                "--max-length",
                "3",
                "--cell-size",
                "0.03",
                "--delta",
                "0.03",
                "--min-prob",
                "1e-4",
            ]
        )
        capsys.readouterr()
        code = cli.main(
            [
                "score",
                str(out_file),
                str(dataset_file),
                "--delta",
                "0.03",
                "--min-prob",
                "1e-4",
                "--show",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "re-scored 4 patterns" in out
        assert "NM" in out

    def test_score_requires_delta(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["score", "p.json", str(dataset_file)])

    def test_score_manifest_counts_span_scans(self, dataset_file, tmp_path, capsys):
        # JSONL input is stream-converted to a temporary store and re-scored
        # on the inline pool; the manifest's streaming counters come from
        # the coordinator's snapshot and `repro report` renders them.
        out_file = tmp_path / "patterns.json"
        mine = ["mine", str(dataset_file), "--output", str(out_file), "-k", "3"]
        grid = ["--cell-size", "0.03", "--delta", "0.03", "--min-prob", "1e-4"]
        assert cli.main(mine + grid) == 0
        score = ["score", str(out_file), str(dataset_file), "--delta", "0.03"]
        flags = ["--min-prob", "1e-4", "--chunk-size", "3", "--cache-dir"]
        for _ in range(2):
            assert cli.main(score + flags + [str(tmp_path / "cache"), "--manifest-out"]) == 0
        manifest = json.loads((tmp_path / "walks.jsonl.manifest.json").read_text())
        # 8 trajectories at chunk size 3: 3 spans, each scanned once by the
        # one re-score op; the second run loads every span from the cache.
        assert manifest["metrics"]["streaming"] == {
            "chunks_scanned": 3,
            "span_cache_hits": 3,
        }
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path / "walks.jsonl.manifest.json")]) == 0
        assert "streaming: 3 span scans, 3 span cache hits" in capsys.readouterr().out


class TestCountFlags:
    """Count flags reject values below 1 as usage errors, not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mine", "d.jsonl", "--jobs", "0"],
            ["mine", "d.jsonl", "--jobs", "two"],
            ["score", "p.json", "d.jsonl", "--delta", "0.1", "--chunk-size", "0"],
            ["score", "p.json", "d.jsonl", "--delta", "0.1", "--chunk-size", "-3"],
        ],
    )
    def test_non_positive_count_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


class TestRunAliases:
    def test_run_form_equivalent(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._EXPERIMENTS, "table1", lambda scale: f"T1@{scale}")
        assert cli.main(["run", "table1", "--scale", "small"]) == 0
        assert "T1@small" in capsys.readouterr().out
