"""Persistence for mined patterns and mining results.

A mined pattern library is only useful if it can outlive the mining
session: the Fig. 3 deployment mines offline and predicts online.  This
module serialises :class:`~repro.core.trajpattern.MiningResult` (patterns,
NM values, threshold, stats, groups) together with the grid geometry the
cell ids refer to -- a pattern file without its grid is meaningless, so
the two always travel together.

Format: a single JSON document with a version tag; forward-incompatible
files are rejected loudly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.groups import PatternGroup
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import IterationTrace, MinerStats, MiningResult
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid

_FORMAT = "repro.mining-result"
_VERSION = 1


def stats_document(stats: MinerStats) -> dict:
    """``stats`` as JSON: its counters, stop reason and per-iteration trace.

    The result file's ``stats`` section, also the ``mining`` block of a
    ``repro mine`` run manifest.
    """
    return {
        "iterations": stats.iterations,
        "candidates_generated": stats.candidates_generated,
        "candidates_evaluated": stats.candidates_evaluated,
        "candidates_bounded": stats.candidates_bounded,
        "candidates_bound_pruned": stats.candidates_bound_pruned,
        "candidates_cached": stats.candidates_cached,
        "patterns_pruned": stats.patterns_pruned,
        "final_q_size": stats.final_q_size,
        "wall_time_s": stats.wall_time_s,
        "stop_reason": stats.stop_reason,
        "trace": [asdict(row) for row in stats.trace],
    }


def save_mining_result(
    result: MiningResult, grid: Grid, path: str | Path
) -> None:
    """Write ``result`` (and the grid its cells refer to) to ``path``."""
    document = {
        "format": _FORMAT,
        "version": _VERSION,
        "grid": {
            "min_x": grid.bbox.min_x,
            "min_y": grid.bbox.min_y,
            "max_x": grid.bbox.max_x,
            "max_y": grid.bbox.max_y,
            "nx": grid.nx,
            "ny": grid.ny,
        },
        "patterns": [list(p.cells) for p in result.patterns],
        "nm_values": result.nm_values,
        "omega": result.omega,
        "stats": stats_document(result.stats),
        "groups": (
            None
            if result.groups is None
            else [[list(p.cells) for p in g.patterns] for g in result.groups]
        ),
    }
    Path(path).write_text(json.dumps(document, indent=1), encoding="utf-8")


def load_mining_result(path: str | Path) -> tuple[MiningResult, Grid]:
    """Read a result previously written by :func:`save_mining_result`.

    Returns ``(result, grid)``; raises ``ValueError`` on foreign or
    future-versioned files.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON document: {exc}") from exc
    if document.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a mining-result file")
    if document.get("version") != _VERSION:
        raise ValueError(
            f"{path}: unsupported version {document.get('version')!r}"
        )

    g = document["grid"]
    grid = Grid(
        BoundingBox(g["min_x"], g["min_y"], g["max_x"], g["max_y"]),
        nx=g["nx"],
        ny=g["ny"],
    )
    groups = None
    if document["groups"] is not None:
        groups = [
            PatternGroup(tuple(TrajectoryPattern(tuple(c)) for c in member_cells))
            for member_cells in document["groups"]
        ]
    stats = dict(document["stats"])
    stats["trace"] = [IterationTrace(**row) for row in stats.get("trace", ())]
    result = MiningResult(
        patterns=[TrajectoryPattern(tuple(c)) for c in document["patterns"]],
        nm_values=[float(v) for v in document["nm_values"]],
        omega=float(document["omega"]),
        stats=MinerStats(**stats),
        groups=groups,
    )
    return result, grid
