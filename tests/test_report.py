"""Tests for the one-call reproduction report."""

import pytest

from repro.datagen.bus import BusFleetConfig
from repro.experiments.fig4 import Fig4Config
from repro.experiments.loss_sensitivity import LossSensitivityConfig
from repro.experiments.report import Report, ReportConfig, ReportSection, build_report
from repro.experiments.table1 import Table1Config

TINY_FLEET = BusFleetConfig(n_routes=2, buses_per_route=2, n_days=1, n_ticks=40)
TINY = ReportConfig(
    table1=Table1Config(k=5, max_length=3, fleet=TINY_FLEET),
    fig4=Fig4Config(k=3, n_trajectories=8, n_ticks=20, target_cells=256),
    fig4_ks=(2, 3),
    fig4_sizes=(5, 8),
    fig4_lengths=(15, 20),
    fig4_grids=(100, 256),
    fig4_deltas=(1.0, 2.0),
    loss=LossSensitivityConfig(loss_rates=(0.0, 0.3), fleet=TINY_FLEET),
    include_fig3=False,  # the slow section is covered by its own tests
)


@pytest.fixture(scope="module")
def report():
    return build_report(TINY)


class TestBuildReport:
    def test_all_sections_present(self, report):
        titles = [s.title for s in report.sections]
        assert any("T1" in t for t in titles)
        assert sum("Fig. 4" in t for t in titles) == 5
        assert any("A1/A2" in t for t in titles)
        assert any("A3" in t for t in titles)
        assert any("A4" in t for t in titles)
        assert not any("Fig. 3" in t for t in titles)  # disabled above

    def test_sections_timed(self, report):
        assert all(s.wall_time_s > 0 for s in report.sections)

    def test_render_is_markdown(self, report):
        text = report.render()
        assert text.startswith("# TrajPattern reproduction report")
        assert text.count("```") == 2 * len(report.sections)

    def test_write_roundtrip(self, report, tmp_path):
        path = tmp_path / "report.md"
        report.write(path)
        assert path.read_text() == report.render()

    def test_manual_assembly(self):
        report = Report(sections=[ReportSection("x", "body", 0.1)])
        assert "## x" in report.render()


class TestMiningTable:
    """``repro report``'s per-iteration table of a mine manifest."""

    @staticmethod
    def render(trace):
        from repro.obs.report import render_manifest_report

        mining = {"stop_reason": "converged", "iterations": len(trace), "trace": trace}
        manifest = {"command": "mine", "metrics": {"mining": mining}}
        return render_manifest_report(manifest)

    ROW = {
        "iteration": 1, "omega": -2.5, "n_high": 3, "candidates_evaluated": 7,
        "batch_size": 7, "eval_time_s": 0.002,
    }  # fmt: skip

    def test_rss_column(self):
        rendered = self.render([dict(self.ROW, rss_bytes=45 * 2**20 + 2**19)])
        lines = rendered.splitlines()
        header = next(line for line in lines if line.startswith("iteration"))
        assert header.split()[-1] == "rss"
        assert rendered.splitlines()[-1].split()[-1] == "45.5MiB"

    def test_rows_without_rss_still_render(self):
        rendered = self.render([dict(self.ROW)])
        assert rendered.splitlines()[-1].split()[-1] == "-"
