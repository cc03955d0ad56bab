"""Shared fixtures: small deterministic datasets, grids and engines."""

from __future__ import annotations

import itertools
import logging
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import index_cache
from repro.core.engine import EngineConfig, NMEngine
from repro.core.measures import match_pattern_dataset, nm_pattern_dataset
from repro.core.parallel import ParallelNMEngine
from repro.core.pattern import TrajectoryPattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.obs import logs
from repro.storage import open_as_store
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Leave the ``repro`` logger as each test found it.

    :func:`repro.obs.logs.configure_logging`, which every CLI command
    runs, sets the logger's level, stops its propagation and installs a
    stream handler; left in place, a later test's ``caplog`` sees none of
    its records.
    """
    logger = logging.getLogger(logs.ROOT_LOGGER)
    level, propagate, handlers = logger.level, logger.propagate, list(logger.handlers)
    yield
    for handler in logger.handlers:
        if handler not in handlers:
            handler.close()
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_grid():
    """10x10 grid over the unit square."""
    return Grid(BoundingBox.unit(), nx=10, ny=10)


@pytest.fixture
def small_dataset(rng):
    """12 drifting trajectories of 20 snapshots in the unit square."""
    trajectories = []
    for i in range(12):
        start = rng.uniform(0.1, 0.4, 2)
        steps = rng.normal(0.02, 0.004, (20, 2))
        means = start + np.cumsum(steps, axis=0)
        trajectories.append(
            UncertainTrajectory(means, 0.015, object_id=f"obj-{i}")
        )
    return TrajectoryDataset(trajectories)


@pytest.fixture
def small_engine(small_dataset):
    grid = small_dataset.make_grid(0.03)
    return NMEngine(
        small_dataset, grid, EngineConfig(delta=0.03, min_prob=1e-6)
    )


@pytest.fixture
def tiny_corridor_dataset(rng):
    """Trajectories confined to a tiny corridor => a handful of active cells.

    Small enough for brute-force oracles over all patterns up to length 4.
    """
    trajectories = []
    for i in range(8):
        xs = 0.05 + 0.1 * np.arange(8) + rng.normal(0, 0.01, 8)
        ys = np.full(8, 0.5) + rng.normal(0, 0.01, 8)
        trajectories.append(
            UncertainTrajectory(np.column_stack([xs, ys]), 0.05, object_id=f"c-{i}")
        )
    return TrajectoryDataset(trajectories)


@pytest.fixture
def tiny_engine(tiny_corridor_dataset):
    grid = Grid(BoundingBox(0.0, 0.3, 1.0, 0.7), nx=5, ny=2)
    return NMEngine(
        tiny_corridor_dataset, grid, EngineConfig(delta=0.1, min_prob=1e-4)
    )


def scalar_measures(engine, pattern) -> tuple[float, float]:
    """``(NM, match)`` of ``pattern`` over ``engine``'s dataset from the
    scalar specification (:mod:`repro.core.measures`), with the engine's
    grid, distance, probability model and floor."""
    args = (pattern, engine.dataset, engine.grid, engine.config.delta)
    kwargs = dict(model=engine.config.prob_model, min_log_prob=engine.floor_log_prob)
    return nm_pattern_dataset(*args, **kwargs), match_pattern_dataset(*args, **kwargs)


def brute_force_top_k(engine, k, max_length, min_length=1):
    """Exhaustive top-k NM patterns over the active alphabet.

    Only usable with tiny alphabets; enumerates every pattern up to
    ``max_length`` and ranks with the miner's deterministic tie-break.
    """
    cells = engine.active_cells
    scored = []
    for length in range(min_length, max_length + 1):
        for combo in itertools.product(cells, repeat=length):
            pattern = TrajectoryPattern(combo)
            scored.append((combo, engine.nm(pattern)))
    scored.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return scored[:k]


@contextmanager
def streamed(path, grid, config, chunk_size=64):
    """The inline-pool engine ``repro score`` runs over a JSONL or ``.tjc`` file.

    ``ceil(n / chunk_size)`` spans balanced by snapshot count; one span
    index is resident at a time.
    """
    with open_as_store(path) as dataset:
        n_spans = -(-len(dataset) // chunk_size)
        with ParallelNMEngine(
            dataset, grid, config, jobs=n_spans, pools=("inline",)
        ) as engine:
            yield engine


def dataset_cache_key(dataset, grid, config, **kwargs) -> str:
    """The whole-dataset index-cache key: the span ``[0, len(dataset))``.

    Without an explicit ``kernel_tag`` this is the key engines use
    (:func:`~repro.core.index_cache.dataset_key`).
    """
    if not kwargs:
        return index_cache.dataset_key(dataset, grid, config)
    return index_cache.span_cache_key(
        index_cache.dataset_fingerprint(dataset), 0, len(dataset), grid, config, **kwargs
    )


#: An engine's installed index: the CSR arrays and the segment arrays an
#: install derives from them.
INDEX_ARRAYS = (
    "_cell_ids", "_cell_bounds", "_flat_rows", "_flat_vals",
    "_seg_starts", "_seg_traj", "_cell_seg_starts",
)  # fmt: skip
