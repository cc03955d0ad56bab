"""Sharded parallel engine == serial engine.

The merge in :class:`~repro.core.parallel.ParallelNMEngine` is an exact
reduction over per-trajectory terms, so every evaluation surface must
equal the single-process engine to floating-point accuracy -- across
shard counts, including degenerate shardings (one worker, one trajectory
per worker, more workers than trajectories) and wildcard patterns.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine, shard_dataset
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.core.wildcards import GapPattern, nm_gap_pattern
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory

JOB_COUNTS = (1, 2, 3, 5, 12, 30)  # 12 = one trajectory per shard, 30 > |D|


@pytest.fixture(scope="module")
def serial():
    dataset = _drifting_dataset(np.random.default_rng(1234), n=12, length=20)
    grid = dataset.make_grid(0.03)
    return NMEngine(dataset, grid, EngineConfig(delta=0.03, min_prob=1e-6))


def _drifting_dataset(rng, n, length) -> TrajectoryDataset:
    trajectories = []
    for i in range(n):
        start = rng.uniform(0.1, 0.4, 2)
        means = start + np.cumsum(rng.normal(0.02, 0.004, (length, 2)), axis=0)
        trajectories.append(UncertainTrajectory(means, 0.015, object_id=f"o{i}"))
    return TrajectoryDataset(trajectories)


def _candidates(engine, n=24, seed=5):
    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    out = [TrajectoryPattern((c,)) for c in cells[:4]]
    while len(out) < n:
        out.append(
            TrajectoryPattern(
                tuple(int(c) for c in rng.choice(cells, size=rng.integers(2, 5)))
            )
        )
    return out


def _parallel(serial, jobs) -> ParallelNMEngine:
    return ParallelNMEngine(serial.dataset, serial.grid, serial.config, jobs=jobs)


class TestShardDataset:
    def test_bounds_cover_dataset_contiguously(self, serial):
        bounds = shard_dataset(serial.dataset, 5)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(serial.dataset)
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_no_empty_shards_even_with_excess_workers(self, serial):
        n = len(serial.dataset)
        for jobs in (1, n - 1, n, n + 5, 10 * n):
            bounds = shard_dataset(serial.dataset, jobs)
            assert len(bounds) == min(jobs, n)
            assert all(hi > lo for lo, hi in bounds)

    def test_single_trajectory_dataset(self, serial):
        single = serial.dataset.subset([0])
        assert shard_dataset(single, 8) == [(0, 1)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            shard_dataset(TrajectoryDataset([]), 2)

    def test_balances_by_snapshot_count(self, rng):
        # One long trajectory dominating: it must not drag the whole rest
        # of the dataset into its shard.
        trajs = [UncertainTrajectory(rng.uniform(0, 1, (100, 2)), 0.01)]
        trajs += [
            UncertainTrajectory(rng.uniform(0, 1, (10, 2)), 0.01) for _ in range(10)
        ]
        bounds = shard_dataset(TrajectoryDataset(trajs), 2)
        assert bounds == [(0, 1), (1, 11)]


@pytest.mark.parametrize("jobs", JOB_COUNTS)
class TestParallelEqualsSerial:
    def test_metadata(self, serial, jobs):
        with _parallel(serial, jobs) as par:
            assert par.n_spans == min(jobs, len(serial.dataset))
            assert par.active_cells == serial.active_cells
            assert par.n_index_entries == serial.n_index_entries
            assert par.floor_log_prob == serial.floor_log_prob

    def test_nm_and_match_batches(self, serial, jobs):
        patterns = _candidates(serial)
        with _parallel(serial, jobs) as par:
            np.testing.assert_allclose(
                par.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
            )
            np.testing.assert_allclose(
                par.match_batch(patterns), serial.match_batch(patterns), rtol=1e-12
            )

    def test_per_trajectory_arrays(self, serial, jobs):
        """NM and match are sums of per-trajectory terms (Eq. 4 summed),
        which is what lets spans evaluate independently: the sharded value
        is the sum of the terms one-trajectory engines give.  With one
        trajectory per span the span engines are those engines, and the
        span-order fold is the left fold of the terms, bit for bit."""
        pattern = _candidates(serial)[5]
        terms = [
            NMEngine(serial.dataset.subset([i]), serial.grid, serial.config)
            for i in range(len(serial.dataset))
        ]
        nm_terms = [t.nm(pattern) for t in terms]
        match_terms = [t.match(pattern) for t in terms]
        with _parallel(serial, jobs) as par:
            nm, match = par.nm(pattern), par.match(pattern)
            one_per_span = par.n_spans == len(serial.dataset)
        assert nm == pytest.approx(sum(nm_terms), rel=1e-12)
        assert match == pytest.approx(sum(match_terms), rel=1e-12)
        if one_per_span:
            assert nm == sum(nm_terms) and match == sum(match_terms)

    def test_singular_tables(self, serial, jobs):
        with _parallel(serial, jobs) as par:
            for name in ("singular_nm_table", "singular_match_table"):
                expected = getattr(serial, name)()
                got = getattr(par, name)()
                assert set(got) == set(expected)
                for cell, value in expected.items():
                    assert got[cell] == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_extension_tables(self, serial, jobs):
        prefixes = _candidates(serial)[:6]
        expected = serial.extension_tables_many(prefixes)
        with _parallel(serial, jobs) as par:
            got = par.extension_tables_many(prefixes)
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            assert set(g.nm_by_cell) == set(e.nm_by_cell)
            for cell in e.nm_by_cell:
                assert g.nm_by_cell[cell] == pytest.approx(
                    e.nm_by_cell[cell], rel=1e-12, abs=1e-12
                )
                assert g.match_by_cell[cell] == pytest.approx(
                    e.match_by_cell[cell], rel=1e-12, abs=1e-12
                )
            assert g.nm_base_total == pytest.approx(e.nm_base_total, rel=1e-12)
            assert g.match_base_total == pytest.approx(e.match_base_total, rel=1e-12)

    def test_wildcard_patterns(self, serial, jobs):
        cells = serial.active_cells
        patterns = [
            TrajectoryPattern((cells[0], WILDCARD, cells[1])),
            TrajectoryPattern((WILDCARD, cells[2])),
            TrajectoryPattern((cells[3], WILDCARD, WILDCARD, cells[0])),
        ]
        with _parallel(serial, jobs) as par:
            np.testing.assert_allclose(
                par.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
            )

    def test_gap_pattern_dp(self, serial, jobs):
        cells = serial.active_cells
        pattern = GapPattern.parse(f"{cells[0]} [0-3] {cells[1]} {cells[2]}")
        with _parallel(serial, jobs) as par:
            assert nm_gap_pattern(par, pattern) == pytest.approx(
                nm_gap_pattern(serial, pattern), rel=1e-12
            )


class TestTopKMining:
    @pytest.mark.parametrize("jobs", (2, 5, 30))
    def test_identical_top_k(self, serial, jobs):
        expected = TrajPatternMiner(serial, k=6, max_length=4).mine()
        with _parallel(serial, jobs) as par:
            got = TrajPatternMiner(par, k=6, max_length=4).mine()
        assert [p.cells for p, _ in got.as_pairs()] == [
            p.cells for p, _ in expected.as_pairs()
        ]
        np.testing.assert_allclose(
            [v for _, v in got.as_pairs()],
            [v for _, v in expected.as_pairs()],
            rtol=1e-10,
        )


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_use(self, serial):
        par = _parallel(serial, 2)
        par.close()
        par.close()
        with pytest.raises(RuntimeError, match="closed"):
            par.nm_batch(_candidates(serial)[:2])

    def test_workers_die_with_close(self, serial):
        before = set(mp.active_children())
        par = _parallel(serial, 3)
        workers = set(mp.active_children()) - before
        assert len(workers) == 3
        par.close()
        assert all(not proc.is_alive() for proc in workers)

    def test_invalid_jobs_rejected(self, serial):
        for jobs in (0, 1.5, True):
            with pytest.raises(ValueError, match="jobs"):
                ParallelNMEngine(serial.dataset, serial.grid, serial.config, jobs=jobs)

    def test_empty_dataset_rejected(self, serial):
        with pytest.raises(ValueError, match="empty"):
            ParallelNMEngine(TrajectoryDataset([]), serial.grid, serial.config, jobs=2)


class TestPropertyEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), jobs=st.integers(1, 9))
    def test_random_datasets_and_shardings(self, seed, jobs):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        trajectories = []
        for _ in range(n):
            length = int(rng.integers(3, 15))
            means = rng.uniform(0.1, 0.9, 2) + np.cumsum(
                rng.normal(0, 0.03, (length, 2)), axis=0
            )
            trajectories.append(
                UncertainTrajectory(means, float(rng.uniform(0.01, 0.05)))
            )
        dataset = TrajectoryDataset(trajectories)
        grid = dataset.make_grid(0.05)
        config = EngineConfig(delta=0.05, min_prob=1e-5)
        serial = NMEngine(dataset, grid, config)
        cells = serial.active_cells
        patterns = [TrajectoryPattern((c,)) for c in cells[:3]]
        if len(cells) >= 2:
            patterns.append(TrajectoryPattern((cells[0], cells[1])))
            patterns.append(TrajectoryPattern((cells[1], WILDCARD, cells[0])))
        with ParallelNMEngine(dataset, grid, config, jobs=jobs) as par:
            np.testing.assert_allclose(
                par.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
            )
            np.testing.assert_allclose(
                par.match_batch(patterns), serial.match_batch(patterns), rtol=1e-12
            )
