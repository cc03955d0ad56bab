"""The differential oracle, tested as a test: ULP math, frontier, full runs.

The oracle is the PR's load-bearing artifact -- if its ULP arithmetic or
its path plumbing is wrong, every agreement it reports is vacuous.  So the
ULP mapping is unit-tested against IEEE-754 ground truth
(``np.nextafter``), the frontier generator is pinned deterministic, and
``run_oracle`` runs for real: the default seed through the *full* path
matrix (including the live-server round-trip), plus hypothesis-drawn
seeds through the engine paths.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.testkit.oracle import (
    ULP_BUDGETS,
    PathCheck,
    candidate_frontier,
    max_ulps,
    run_oracle,
    ulps_between,
)
from repro.testkit.datasets import DEFAULT_SEEDS, oracle_setup
from repro.core.engine import NMEngine


class TestUlpMath:
    def test_identical_values_are_zero(self):
        assert ulps_between(1.5, 1.5) == 0
        assert ulps_between(0.0, -0.0) == 0  # both zeros map to rank 0

    def test_adjacent_floats_are_one_ulp(self):
        for x in (1.0, -1.0, 1e-300, -3.7e5):
            up = float(np.nextafter(x, np.inf))
            assert ulps_between(x, up) == 1
            assert ulps_between(up, x) == 1  # symmetric

    def test_distance_accumulates(self):
        x = 2.0
        y = x
        for _ in range(5):
            y = float(np.nextafter(y, np.inf))
        assert ulps_between(x, y) == 5

    def test_crossing_zero(self):
        tiny = float(np.nextafter(0.0, np.inf))
        assert ulps_between(-tiny, tiny) == 2

    def test_nan_vs_number_is_incomparable(self):
        assert ulps_between(float("nan"), 1.0) > max(ULP_BUDGETS.values())
        assert ulps_between(float("nan"), float("nan")) == 0

    def test_max_ulps_takes_the_worst_element(self):
        a = [1.0, 2.0, 3.0]
        b = [1.0, float(np.nextafter(2.0, np.inf)), 3.0]
        assert max_ulps(a, b) == 1
        assert max_ulps([], []) == 0

    def test_max_ulps_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            max_ulps([1.0, 2.0], [1.0])


class TestFrontier:
    def test_deterministic_for_a_seed(self):
        setup = oracle_setup(101, quick=True)
        engine = NMEngine(setup.dataset, setup.grid, setup.config)
        first = candidate_frontier(engine, 101, 12)
        second = candidate_frontier(engine, 101, 12)
        assert [p.cells for p in first] == [p.cells for p in second]
        assert len(first) == 12

    def test_mixes_singulars_and_longer_patterns(self):
        setup = oracle_setup(202, quick=True)
        engine = NMEngine(setup.dataset, setup.grid, setup.config)
        frontier = candidate_frontier(engine, 202, 12)
        lengths = {len(p) for p in frontier}
        assert 1 in lengths
        assert lengths - {1}  # at least one multi-cell candidate


class TestPathCheck:
    def test_over_budget_fails_and_describes(self):
        check = PathCheck(path="parallel[2]", budget_ulps=4, nm_ulps=9, match_ulps=0)
        assert not check.ok
        assert "FAIL" in check.describe()
        assert "nm=9" in check.describe()

    def test_within_budget_is_ok(self):
        check = PathCheck(path="scalar", budget_ulps=16, nm_ulps=16, match_ulps=3)
        assert check.ok
        assert check.describe().startswith("ok")


class TestRunOracle:
    def test_default_seed_full_matrix(self):
        # The whole matrix, serve path included, at quick size.
        report = run_oracle(DEFAULT_SEEDS[0], quick=True, jobs_grid=(1, 2))
        assert report.ok, "\n" + report.describe()
        paths = [c.path.split("[")[0] for c in report.checks]
        assert paths == [
            "scalar",
            "cache-cold",
            "cache-warm",
            "parallel",
            "parallel",
            "streaming",
            "incremental",
            "incremental",
            "store",
            "store-parallel",
            "store-parallel",
            "serve",
        ]
        incremental = next(c for c in report.checks if c.path == "incremental")
        assert incremental.budget_ulps == 0  # the merge is bit-exact or fail
        warm_mine = next(
            c for c in report.checks if c.path == "incremental[warm-mine]"
        )
        assert warm_mine.budget_ulps == 0
        store = next(c for c in report.checks if c.path == "store")
        assert store.budget_ulps == 0  # bit-exact or fail
        warm = next(c for c in report.checks if c.path == "cache-warm")
        assert warm.detail == "hit"

    def test_tightened_budget_detects_reassociation(self):
        # Sanity that the budgets are doing work: an impossible budget of
        # zero on the scalar path must FAIL (the scalar reference really
        # does differ from the vectorised engine by a few ULPs).
        report = run_oracle(
            DEFAULT_SEEDS[0],
            quick=True,
            jobs_grid=(),
            include_serve=False,
            budgets={"scalar": 0},
        )
        scalar = next(c for c in report.checks if c.path == "scalar")
        assert not scalar.ok
        assert not report.ok

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_arbitrary_seeds_agree(self, seed):
        # Engine paths only (no sockets/processes inside hypothesis): the
        # scalar reference, the cache round-trip and streaming must agree
        # for any seed, not just the curated defaults.
        report = run_oracle(seed, quick=True, jobs_grid=(), include_serve=False)
        assert report.ok, "\n" + report.describe()


class TestSelfcheckCli:
    def test_quick_selfcheck_exits_zero(self, capsys):
        code = cli.main(
            [
                "selfcheck",
                "--quick",
                "--seeds",
                "101",
                "--jobs-grid",
                "1,2",
                "--no-serve",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed 101" in out
        assert "1/1 seeds agree" in out

    def test_selfcheck_reports_failure_on_impossible_budget(self, capsys, monkeypatch):
        # Force a failure through the real CLI path by zeroing every
        # budget: the command must exit non-zero and say FAIL.
        from repro.testkit import oracle

        monkeypatch.setattr(
            oracle, "ULP_BUDGETS", {k: 0 for k in oracle.ULP_BUDGETS}
        )
        code = cli.main(
            ["selfcheck", "--quick", "--seeds", "101", "--jobs-grid", "1", "--no-serve"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestDistOraclePath:
    def test_dist_checks_present_and_zero_ulps(self):
        # The distributed path folds per-span results in global span order,
        # exactly like the same-width parallel engine, and the NDJSON wire
        # round-trips float64 exactly -- so the budget is zero, and it holds
        # even with a real socket hop in the mix.
        report = run_oracle(
            DEFAULT_SEEDS[0],
            quick=True,
            jobs_grid=(1, 2),
            include_serve=False,
            include_dist=True,
        )
        dist_checks = [c for c in report.checks if c.path.startswith("dist[")]
        assert {c.path for c in dist_checks} == {"dist[1]", "dist[2]"}
        for check in dist_checks:
            assert check.budget_ulps == 0
            assert check.nm_ulps == 0, check.describe()
            assert check.match_ulps == 0, check.describe()
        assert report.ok, "\n" + report.describe()

    def test_dist_flag_via_cli(self, capsys):
        code = cli.main(
            [
                "selfcheck",
                "--quick",
                "--dist",
                "--seeds",
                "101",
                "--jobs-grid",
                "1",
                "--no-serve",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dist[1]" in out
        assert "quick+dist" in out
