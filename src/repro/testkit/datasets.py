"""Seeded datasets the differential oracle (and ``repro selfcheck``) runs on.

Every builder is a pure function of its seed: the same seed always yields
the same trajectories, grid and engine configuration, so an oracle failure
reported by CI reproduces locally with one command.  Seeds cycle through
three motion regimes -- drifting walks, a shared corridor, closed loops --
because the execution paths under test stress different index shapes
(sparse wide grids, dense hot cells, revisited cells) and one regime would
not exercise them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import EngineConfig
from repro.geometry.grid import Grid
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

#: Motion regimes, selected by ``seed % len(REGIMES)``.
REGIMES = ("drift", "corridor", "loop")

#: The seeds ``repro selfcheck`` runs by default -- one per regime.
DEFAULT_SEEDS = (101, 202, 303)


def seeded_dataset(
    seed: int, *, n_trajectories: int = 12, n_ticks: int = 20
) -> TrajectoryDataset:
    """A deterministic uncertain-trajectory dataset for ``seed``."""
    rng = np.random.default_rng(seed)
    regime = REGIMES[seed % len(REGIMES)]
    trajectories = []
    for i in range(n_trajectories):
        if regime == "drift":
            start = rng.uniform(0.1, 0.5, 2)
            steps = rng.normal(0.03, 0.008, (n_ticks, 2))
            means = start + np.cumsum(steps, axis=0)
        elif regime == "corridor":
            xs = 0.05 + (0.9 / n_ticks) * np.arange(n_ticks)
            xs = xs + rng.normal(0.0, 0.01, n_ticks)
            ys = rng.uniform(0.45, 0.55) + rng.normal(0.0, 0.015, n_ticks)
            means = np.column_stack([xs, ys])
        else:  # loop
            phase = rng.uniform(0.0, 2.0 * np.pi)
            angles = phase + np.linspace(0.0, 2.0 * np.pi, n_ticks, endpoint=False)
            radius = rng.uniform(0.15, 0.3)
            center = rng.uniform(0.4, 0.6, 2)
            means = center + radius * np.column_stack(
                [np.cos(angles), np.sin(angles)]
            )
            means = means + rng.normal(0.0, 0.01, (n_ticks, 2))
        sigmas = rng.uniform(0.02, 0.05, n_ticks)
        trajectories.append(
            UncertainTrajectory(means, sigmas, object_id=f"s{seed}-{regime}-{i}")
        )
    return TrajectoryDataset(trajectories)


@dataclass(frozen=True)
class OracleSetup:
    """One fully specified oracle scenario: data, geometry, configuration."""

    seed: int
    regime: str
    dataset: TrajectoryDataset
    grid: Grid
    config: EngineConfig


def oracle_setup(seed: int, *, quick: bool = False) -> OracleSetup:
    """The scenario ``run_oracle`` evaluates for ``seed``.

    ``quick`` shrinks the dataset (CI / pre-commit); every execution path
    is still exercised, just over fewer trajectories and snapshots.
    """
    n_trajectories, n_ticks = (8, 12) if quick else (12, 20)
    dataset = seeded_dataset(seed, n_trajectories=n_trajectories, n_ticks=n_ticks)
    grid = dataset.make_grid(0.1)
    # cache_dir deliberately unset: the oracle itself decides which
    # paths run sharded or cached, against this as the common baseline.
    config = EngineConfig(delta=0.08, min_prob=1e-6)
    return OracleSetup(
        seed=seed,
        regime=REGIMES[seed % len(REGIMES)],
        dataset=dataset,
        grid=grid,
        config=config,
    )
