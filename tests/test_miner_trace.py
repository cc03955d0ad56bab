"""Tests for the miner's per-iteration introspection trace."""

import json
import math
from dataclasses import replace

import pytest

from repro.core.trajpattern import TrajPatternMiner


@pytest.fixture
def traced(small_engine):
    return TrajPatternMiner(small_engine, k=8, max_length=3).mine()


class TestIterationTrace:
    def test_one_entry_per_iteration(self, traced):
        assert len(traced.stats.trace) == traced.stats.iterations

    def test_iterations_numbered(self, traced):
        assert [t.iteration for t in traced.stats.trace] == list(
            range(1, traced.stats.iterations + 1)
        )

    def test_omega_non_decreasing(self, traced):
        omegas = [t.omega for t in traced.stats.trace]
        assert all(b >= a for a, b in zip(omegas, omegas[1:]))
        assert all(math.isfinite(w) for w in omegas)

    def test_final_omega_matches_result(self, traced):
        assert traced.stats.trace[-1].omega == traced.omega

    def test_per_iteration_counts_sum_to_totals(self, traced, small_engine):
        # Seeding evaluates every singular pattern before iteration 1.
        seeded = len(small_engine.active_cells)
        per_iteration = sum(t.candidates_evaluated for t in traced.stats.trace)
        assert seeded + per_iteration == traced.stats.candidates_evaluated
        assert (
            sum(t.patterns_pruned for t in traced.stats.trace)
            == traced.stats.patterns_pruned
        )

    def test_high_set_never_below_k_when_possible(self, traced):
        # After omega settles, the high set holds at least k members
        # (ties may push it above).
        assert traced.stats.trace[-1].n_high >= len(traced.patterns)

    def test_book_sizes_reported(self, traced):
        last = traced.stats.trace[-1]
        assert last.n_exact + last.n_bounded == traced.stats.final_q_size


class TestStopReason:
    def test_converged(self, traced):
        assert traced.stats.stop_reason == "converged"
        assert traced.stats.iterations > 1

    def test_iteration_cap_is_reported(self, small_engine, traced):
        capped = TrajPatternMiner(
            small_engine, k=8, max_length=3, max_iterations=1
        ).mine()
        assert capped.stats.iterations == 1
        assert capped.stats.stop_reason == "max_iterations"


class TestRss:
    def test_every_iteration_records_the_process_rss(self, traced):
        from repro.obs.manifest import current_rss_bytes

        if current_rss_bytes() is None:
            pytest.skip("no /proc on this platform")
        assert all(t.rss_bytes > 0 for t in traced.stats.trace)

    def test_trace_comparison_ignores_rss(self, traced):
        row = traced.stats.trace[0]
        assert row == replace(row, rss_bytes=row.rss_bytes + 4096)
        assert row != replace(row, n_high=row.n_high + 1)

    def test_result_files_keep_rss_and_older_files_load(self, traced, tmp_path):
        from repro.core.results_io import load_mining_result, save_mining_result
        from repro.geometry.bbox import BoundingBox
        from repro.geometry.grid import Grid

        grid = Grid(BoundingBox.unit(), nx=2, ny=2)
        path = tmp_path / "result.json"
        save_mining_result(traced, grid, path)
        loaded, _ = load_mining_result(path)
        assert [t.rss_bytes for t in loaded.stats.trace] == [
            t.rss_bytes for t in traced.stats.trace
        ]
        document = json.loads(path.read_text())
        for row in document["stats"]["trace"]:
            del row["rss_bytes"]
        path.write_text(json.dumps(document))
        older, _ = load_mining_result(path)
        assert [t.rss_bytes for t in older.stats.trace] == [0] * len(traced.stats.trace)
        assert older.stats.trace == traced.stats.trace
