"""One-call reproduction report: every experiment, one markdown document.

``trajpattern run all`` prints each experiment's table; :func:`build_report`
goes one step further and assembles a single markdown report mirroring the
structure of EXPERIMENTS.md, so a user can regenerate the whole
paper-vs-measured comparison (at their chosen scale) with one function
call and diff it against the committed document.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.datagen.bus import BusFleetConfig
from repro.experiments.ablations import run_prob_model_ablation, run_pruning_ablation
from repro.experiments.fig3 import Fig3Config, run_fig3
from repro.experiments.fig4 import (
    Fig4Config,
    run_fig4a_k,
    run_fig4b_trajectories,
    run_fig4c_length,
    run_fig4d_grids,
    run_fig4e_delta,
)
from repro.experiments.loss_sensitivity import LossSensitivityConfig, run_loss_sensitivity
from repro.experiments.table1 import Table1Config, run_table1


@dataclass(frozen=True)
class ReportConfig:
    """Scales for one full reproduction run."""

    table1: Table1Config = Table1Config(
        k=30,
        max_length=6,
        fleet=BusFleetConfig(n_routes=3, buses_per_route=4, n_days=3, n_ticks=60),
    )
    fig3: Fig3Config = Fig3Config(
        k=25,
        max_length=6,
        fleet=BusFleetConfig(n_routes=3, buses_per_route=4, n_days=3, n_ticks=60),
    )
    fig4: Fig4Config = Fig4Config(
        k=5, n_trajectories=25, n_ticks=40, target_cells=1024
    )
    fig4_ks: tuple[int, ...] = (3, 5, 10)
    fig4_sizes: tuple[int, ...] = (15, 25, 50)
    fig4_lengths: tuple[int, ...] = (20, 40, 80)
    fig4_grids: tuple[int, ...] = (256, 1024, 4096)
    fig4_deltas: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    loss: LossSensitivityConfig = LossSensitivityConfig(
        fleet=BusFleetConfig(n_routes=2, buses_per_route=3, n_days=2, n_ticks=60)
    )
    include_fig3: bool = True  # the slowest section; skippable


@dataclass
class ReportSection:
    """One experiment's rendered output and its wall time."""

    title: str
    body: str
    wall_time_s: float


@dataclass
class Report:
    sections: list[ReportSection] = field(default_factory=list)

    def render(self) -> str:
        lines = ["# TrajPattern reproduction report", ""]
        total = sum(s.wall_time_s for s in self.sections)
        lines.append(f"Generated in {total:.0f}s total.")
        for section in self.sections:
            lines.append("")
            lines.append(f"## {section.title}  ({section.wall_time_s:.1f}s)")
            lines.append("")
            lines.append("```")
            lines.append(section.body)
            lines.append("```")
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


def build_report(config: ReportConfig = ReportConfig()) -> Report:
    """Run every experiment at the configured scale and collect the tables."""
    report = Report()

    def add(title, runner):
        t0 = time.perf_counter()
        body = runner()
        report.sections.append(
            ReportSection(title=title, body=body, wall_time_s=time.perf_counter() - t0)
        )

    add("T1: pattern lengths", lambda: run_table1(config.table1).render())
    if config.include_fig3:
        add("Fig. 3: mis-prediction reduction", lambda: run_fig3(config.fig3).render())
    add(
        "Fig. 4(a): runtime vs k",
        lambda: run_fig4a_k(config.fig4, ks=config.fig4_ks).render(),
    )
    add(
        "Fig. 4(b): runtime vs S",
        lambda: run_fig4b_trajectories(config.fig4, sizes=config.fig4_sizes).render(),
    )
    add(
        "Fig. 4(c): runtime vs L",
        lambda: run_fig4c_length(config.fig4, lengths=config.fig4_lengths).render(),
    )
    add(
        "Fig. 4(d): runtime vs G",
        lambda: run_fig4d_grids(config.fig4, grid_counts=config.fig4_grids).render(),
    )
    add(
        "Fig. 4(e): groups vs delta",
        lambda: run_fig4e_delta(config.fig4, delta_factors=config.fig4_deltas).render(),
    )
    add("A1/A2: pruning ablation", lambda: run_pruning_ablation().render())
    add("A3: Prob geometry ablation", lambda: run_prob_model_ablation().render())
    add("A4: uplink-loss sensitivity", lambda: run_loss_sensitivity(config.loss).render())
    return report
