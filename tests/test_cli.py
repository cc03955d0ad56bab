"""Tests for the ``trajpattern`` command-line interface."""

import pytest

import repro.cli as cli


class TestArgumentHandling:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "table1", "--scale", "huge"])

    def test_experiment_names_are_not_commands(self):
        for name in ("table1", "fig3", "fig4", "ablations", "all"):
            with pytest.raises(SystemExit):
                cli.main([name])

    @pytest.mark.parametrize(
        "command",
        [
            ["mine", "d.jsonl"],
            ["score", "p.json", "d.jsonl", "--delta", "0.1"],
            ["serve", "snap"],
        ],
        ids=["mine", "score", "serve"],
    )
    def test_dtype_option_is_refused(self, capsys, command):
        # Every kernel runs in float64: there is no --dtype to pass.
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "--dtype", "float32"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --dtype float32" in capsys.readouterr().err

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "TrajPattern" in capsys.readouterr().out


class TestDispatch:
    def test_experiment_registry_complete(self):
        assert set(cli._EXPERIMENTS) == {"table1", "fig3", "fig4", "ablations"}

    def test_runs_stubbed_experiment(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._EXPERIMENTS, "table1", lambda scale: f"T1@{scale}")
        assert cli.main(["run", "table1", "--scale", "small"]) == 0
        assert "T1@small" in capsys.readouterr().out

    def test_all_runs_everything(self, capsys, monkeypatch):
        for name in list(cli._EXPERIMENTS):
            monkeypatch.setitem(
                cli._EXPERIMENTS, name, lambda scale, name=name: f"{name}@{scale}"
            )
        assert cli.main(["run", "all"]) == 0
        out = capsys.readouterr().out
        for name in cli._EXPERIMENTS:
            assert f"{name}@small" in out
