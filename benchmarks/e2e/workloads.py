"""The four workloads: their parameters, seeded inputs and output checks.

Each workload mines or serves one fixed ZebraNet herd (generator seed
``herd_seed``).  ``--seed`` draws how that herd is presented to the
program: the order of the trajectories, the direction of time, whether x
and y are swapped, and a translation.  These are symmetries of the
mining problem, so every seed gives the program different bytes but the
same amount of work.  Herds drawn afresh per seed do not: the miner's
frontier reacts to small changes in the data (the iteration count flips
between 4 and 5 under observation noise alone), and ``repro mine`` wall
time over eight fresh 100-trajectory herds had an interquartile range of
27% of its median, wider than any useful regression bound.  The request
streams of the serving workloads are drawn from ``--seed`` directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

#: NM values of a parallel mine may differ from a serial one in the last
#: bits (the shard merge adds per-span sums in another order).
NM_RTOL = 1e-9


@dataclass(frozen=True)
class MineWorkload:
    name: str
    trajectories: int
    ticks: int
    cell: float
    k: int
    jobs: int
    herd_seed: int

    def command(self, store: Path, output: Path) -> list[str]:
        return [
            "mine", str(store), "--jobs", str(self.jobs),
            "--cell-size", repr(self.cell), "--gamma", "0.05", "-k", str(self.k),
            "--output", str(output), "--show", "0",
        ]  # fmt: skip


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    trajectories: int
    ticks: int
    cell: float
    herd_seed: int


@dataclass(frozen=True)
class IngestWorkload:
    name: str
    boot: int
    ticks: int
    cell: float
    k: int
    wave_size: int
    waves: int
    read_rate: float
    herd_seed: int

    def serve_flags(self) -> list[str]:
        return ["--ingest", "--ingest-k", str(self.k)]


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        MineWorkload("mine-wide", 250, 100, cell=0.02, k=5, jobs=2, herd_seed=0),
        MineWorkload("mine-deep", 140, 100, cell=0.12, k=60, jobs=1, herd_seed=1),
        ServeWorkload("serve-score", 300, 150, cell=0.02, herd_seed=2),
        IngestWorkload(
            "serve-ingest", 200, 100, cell=0.05, k=8, wave_size=10, waves=8,
            read_rate=400.0, herd_seed=3,
        ),
    )
}  # fmt: skip


def smoke(workload):
    """The same workload scaled to run in about two seconds."""
    if isinstance(workload, IngestWorkload):
        return replace(workload, boot=40, ticks=40, waves=3)
    return replace(workload, trajectories=60, ticks=40)


# -- presentation -------------------------------------------------------------


def stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent random stream ``purpose`` of the run seed (any integer)."""
    return np.random.default_rng([seed % (1 << 64), purpose])


@dataclass(frozen=True)
class Presentation:
    """One seed's view of a herd: a symmetry of the mining problem."""

    order: np.ndarray
    reverse_time: bool
    swap_xy: bool
    shift: np.ndarray

    @classmethod
    def draw(cls, n: int, seed: int) -> "Presentation":
        rng = stream(seed, 0)
        return cls(
            order=rng.permutation(n),
            reverse_time=bool(rng.integers(2)),
            swap_xy=bool(rng.integers(2)),
            shift=rng.uniform(-5.0, 5.0, size=2),
        )

    def points(self, means: np.ndarray) -> np.ndarray:
        out = means[::-1] if self.reverse_time else means
        if self.swap_xy:
            out = out[:, ::-1]
        return np.ascontiguousarray(out + self.shift)

    def sigmas(self, sigmas):
        if np.ndim(sigmas) and self.reverse_time:
            return np.ascontiguousarray(np.asarray(sigmas)[::-1])
        return sigmas


def herd(trajectories: int, ticks: int, herd_seed: int):
    """The workload's fixed ZebraNet herd as an uncertain dataset."""
    from repro.experiments.datasets import zebranet_dataset

    return zebranet_dataset(
        n_trajectories=trajectories, n_ticks=ticks, sigma=0.01, seed=herd_seed
    )


def write_store(workload, seed: int, path: Path) -> Path:
    """The seed's presentation of the herd as a ``.tjc`` store."""
    from repro.storage import write_store as write
    from repro.trajectory.dataset import TrajectoryDataset
    from repro.trajectory.trajectory import UncertainTrajectory

    base = herd(workload.trajectories, workload.ticks, workload.herd_seed)
    view = Presentation.draw(len(base), seed)
    trajectories = [
        UncertainTrajectory(
            view.points(base[i].means),
            view.sigmas(base[i].sigmas),
            object_id=base[i].object_id,
        )
        for i in view.order
    ]
    write(TrajectoryDataset(trajectories), path)
    return path


def write_serve_snapshot(workload: ServeWorkload, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True)
    write_store(workload, seed, directory / "dataset.tjc")
    _write_serve_json(directory, workload.cell)
    return directory


def _write_serve_json(directory: Path, cell: float) -> None:
    (directory / "serve.json").write_text(
        json.dumps({"version": "bench", "cell_size": cell, "delta": cell}),
        encoding="utf-8",
    )


def ingest_inputs(workload: IngestWorkload, seed: int, directory: Path):
    """Boot snapshot directory plus the ingest waves, as wire reports.

    Reports come from the CI ingest driver's dead-reckoned herd.  The seed
    permutes the boot set only, so every wave holds the same objects in
    the same order on every seed.
    """
    from ingest_driver import build_reports
    from repro.mobility.reporting import trajectory_from_report
    from repro.trajectory.dataset import TrajectoryDataset
    from repro.trajectory.io import save_dataset_jsonl

    total = workload.boot + workload.waves * workload.wave_size
    reports = build_reports(total, workload.ticks, workload.herd_seed)
    view = Presentation.draw(workload.boot, seed)
    for report in reports:
        points = view.points(np.asarray(report["points"], dtype=float))
        report["points"] = points.tolist()
        if isinstance(report["sigma"], list):
            report["sigma"] = [float(s) for s in view.sigmas(report["sigma"])]
    boot = [reports[i] for i in view.order]
    waves = [
        reports[lo : lo + workload.wave_size]
        for lo in range(workload.boot, total, workload.wave_size)
    ]
    # The wire round-trips floats through JSON; so does the reference.
    boot, waves = json.loads(json.dumps([boot, waves]))
    directory.mkdir(parents=True)
    save_dataset_jsonl(
        TrajectoryDataset([trajectory_from_report(r) for r in boot]),
        directory / "dataset.jsonl",
    )
    _write_serve_json(directory, workload.cell)
    return directory, boot, waves


# -- request streams ----------------------------------------------------------


def score_request(rng: np.random.Generator, cells: np.ndarray, n_patterns: int = 1):
    return {
        "op": "score",
        "patterns": [[int(c) for c in rng.choice(cells, size=3)] for _ in range(n_patterns)],
    }


def predict_request(rng: np.random.Generator, reports: list[dict], n_points: int = 6):
    report = reports[int(rng.integers(len(reports)))]
    start = int(rng.integers(len(report["points"]) - n_points + 1))
    sigma = report["sigma"]
    return {
        "op": "predict",
        "recent": report["points"][start : start + n_points],
        "sigma": float(np.mean(sigma)) if isinstance(sigma, list) else float(sigma),
    }


# -- references and checks ----------------------------------------------------


def mine_reference(workload: MineWorkload, store: Path):
    """In-process serial mine with the configuration ``repro mine`` uses."""
    from repro.core.engine import EngineConfig, NMEngine
    from repro.core.trajpattern import TrajPatternMiner
    from repro.storage import open_store

    with open_store(store) as opened:
        dataset = opened.dataset()
        config = EngineConfig(delta=workload.cell, min_prob=1e-5, backend="auto")
        engine = NMEngine(dataset, dataset.make_grid(workload.cell), config)
        result = TrajPatternMiner(engine, k=workload.k, min_length=2, max_length=8).mine()
    return [(tuple(p.cells), float(nm)) for p, nm in result.as_pairs()]


def ingest_reference(snapshot, boot: list, waves: list, k: int):
    """From-scratch mine over the final trajectory set, on the boot grid.

    ``snapshot`` is the boot snapshot loaded in process.  The same
    comparison ``benchmarks/ingest_driver.py`` makes in CI: the top-k the
    server republished after the last wave must equal this, cells and NM
    values, with no tolerance.
    """
    from repro.core.engine import NMEngine
    from repro.core.trajpattern import TrajPatternMiner
    from repro.mobility.reporting import trajectory_from_report
    from repro.trajectory.dataset import TrajectoryDataset

    final = TrajectoryDataset(
        [trajectory_from_report(r) for r in boot + [r for wave in waves for r in wave]]
    )
    engine = NMEngine(final, snapshot.grid, snapshot.engine.config)
    result = TrajPatternMiner(engine, k=k).mine()
    return [(tuple(p.cells), float(nm)) for p, nm in result.as_pairs()]


def read_topk(path: Path):
    from repro.core.results_io import load_mining_result

    result, _ = load_mining_result(path)
    return [(tuple(p.cells), float(nm)) for p, nm in result.as_pairs()]


def same_topk(got, want, rtol: float = NM_RTOL) -> bool:
    """Equal ranked top-k: NM within ``rtol``, cells exact.

    Patterns whose NM values agree within ``rtol`` may swap ranks, since
    the last bits of a parallel sum decide their order.
    """
    if len(got) != len(want):
        return False
    for (_, a), (_, b) in zip(got, want):
        if not math.isclose(a, b, rel_tol=rtol, abs_tol=0.0):
            return False
    i = 0
    while i < len(want):
        j = i + 1
        while j < len(want) and math.isclose(want[j][1], want[i][1], rel_tol=rtol):
            j += 1
        if {c for c, _ in got[i:j]} != {c for c, _ in want[i:j]}:
            return False
        i = j
    return True
