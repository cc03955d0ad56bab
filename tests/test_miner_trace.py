"""Tests for the miner's per-iteration introspection trace."""

import math

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
