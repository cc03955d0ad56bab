"""Tests for parameter suggestion (section 5) and result persistence."""

import json

import numpy as np
import pytest

from repro.core.parameters import suggest_parameters
from repro.core.results_io import load_mining_result, save_mining_result
from repro.core.trajpattern import TrajPatternMiner
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.trajectory import UncertainTrajectory


def drift_dataset(step=0.02, sigma=0.01, n=10, length=12, seed=0):
    rng = np.random.default_rng(seed)
    trajectories = []
    for _ in range(n):
        start = rng.uniform(0, 1, 2)
        steps = rng.normal(step / np.sqrt(2), step / 10, (length, 2))
        trajectories.append(
            UncertainTrajectory(start + np.cumsum(steps, axis=0), sigma)
        )
    return TrajectoryDataset(trajectories)


class TestSuggestParameters:
    def test_section5_rules(self):
        dataset = drift_dataset(step=0.02, sigma=0.01)
        suggestion = suggest_parameters(dataset)
        # g = delta, gamma = 3 sigma.
        assert suggestion.cell_size == suggestion.delta
        assert suggestion.gamma == pytest.approx(3 * suggestion.sigma_typical)
        assert suggestion.sigma_typical == pytest.approx(0.01)
        # delta is a fraction of the step, i.e. "ignorable".
        assert suggestion.delta < suggestion.step_typical

    def test_render_mentions_rules(self):
        suggestion = suggest_parameters(drift_dataset())
        text = suggestion.render()
        assert "delta" in text and "gamma" in text and "3 sigma" in text

    def test_grid_and_config_construction(self):
        dataset = drift_dataset()
        suggestion = suggest_parameters(dataset)
        grid = suggestion.make_grid(dataset)
        assert grid.n_cells > 0
        config = suggestion.make_engine_config()
        assert config.delta == suggestion.delta

    def test_max_cells_cap(self):
        dataset = drift_dataset(step=0.0005, sigma=0.0001)
        capped = suggest_parameters(dataset, max_cells=500)
        assert capped.n_cells_estimate <= 500

    def test_noise_floor_when_stationary(self):
        stationary = TrajectoryDataset(
            [UncertainTrajectory(np.full((8, 2), 0.5), 0.05)]
        )
        suggestion = suggest_parameters(stationary)
        assert suggestion.delta == pytest.approx(0.005)  # sigma / 10

    def test_validation(self):
        dataset = drift_dataset()
        with pytest.raises(ValueError):
            suggest_parameters(TrajectoryDataset([]))
        with pytest.raises(ValueError):
            suggest_parameters(dataset, delta_step_fraction=0.0)
        with pytest.raises(ValueError):
            suggest_parameters(dataset, gamma_sigmas=0.0)
        with pytest.raises(ValueError):
            suggest_parameters(dataset, max_cells=0)

    def test_end_to_end_with_miner(self):
        from repro.core.engine import NMEngine

        dataset = drift_dataset()
        suggestion = suggest_parameters(dataset)
        engine = NMEngine(
            dataset,
            suggestion.make_grid(dataset),
            suggestion.make_engine_config(min_prob=1e-4),
        )
        result = TrajPatternMiner(engine, k=5, max_length=3).mine(
            discover_groups=True, gamma=suggestion.gamma
        )
        assert len(result) == 5


class TestResultsIo:
    @pytest.fixture
    def mined(self, small_engine):
        result = TrajPatternMiner(small_engine, k=6, max_length=3).mine(
            discover_groups=True
        )
        return result, small_engine.grid

    def test_roundtrip(self, mined, tmp_path):
        result, grid = mined
        path = tmp_path / "patterns.json"
        save_mining_result(result, grid, path)
        loaded, loaded_grid = load_mining_result(path)
        assert [p.cells for p in loaded.patterns] == [
            p.cells for p in result.patterns
        ]
        assert loaded.nm_values == pytest.approx(result.nm_values)
        assert loaded.omega == pytest.approx(result.omega)
        assert loaded.stats.candidates_evaluated == result.stats.candidates_evaluated
        assert loaded_grid.nx == grid.nx and loaded_grid.ny == grid.ny
        assert loaded_grid.bbox == grid.bbox

    def test_stop_reason_and_trace_roundtrip(self, mined, tmp_path):
        result, grid = mined
        path = tmp_path / "patterns.json"
        save_mining_result(result, grid, path)
        loaded, _ = load_mining_result(path)
        assert loaded.stats.stop_reason == result.stats.stop_reason == "converged"
        assert loaded.stats.trace == result.stats.trace
        assert len(loaded.stats.trace) == result.stats.iterations

    def test_file_without_stop_reason_or_trace_loads(self, mined, tmp_path):
        result, grid = mined
        path = tmp_path / "patterns.json"
        save_mining_result(result, grid, path)
        document = json.loads(path.read_text())
        del document["stats"]["stop_reason"], document["stats"]["trace"]
        path.write_text(json.dumps(document))
        loaded, _ = load_mining_result(path)
        assert loaded.stats.stop_reason is None
        assert loaded.stats.trace == []
        assert loaded.stats.iterations == result.stats.iterations

    def test_groups_roundtrip(self, mined, tmp_path):
        result, grid = mined
        path = tmp_path / "patterns.json"
        save_mining_result(result, grid, path)
        loaded, _ = load_mining_result(path)
        assert loaded.groups is not None
        assert [len(g) for g in loaded.groups] == [len(g) for g in result.groups]

    def test_no_groups_roundtrip(self, small_engine, tmp_path):
        result = TrajPatternMiner(small_engine, k=3, max_length=2).mine()
        path = tmp_path / "p.json"
        save_mining_result(result, small_engine.grid, path)
        loaded, _ = load_mining_result(path)
        assert loaded.groups is None

    def test_loaded_patterns_usable_for_prediction(self, mined, tmp_path):
        """A persisted library can drive the online predictor directly."""
        from repro.apps.prediction import PatternLibrary

        result, grid = mined
        path = tmp_path / "patterns.json"
        save_mining_result(result, grid, path)
        loaded, loaded_grid = load_mining_result(path)
        library = PatternLibrary(loaded.patterns, loaded_grid, delta=0.03)
        assert library.max_prefix >= 0  # constructs without error

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"format": "something"}))
        with pytest.raises(ValueError, match="not a mining-result"):
            load_mining_result(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "repro.mining-result", "version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_mining_result(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError, match="JSON"):
            load_mining_result(path)
