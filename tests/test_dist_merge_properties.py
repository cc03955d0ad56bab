"""Property tests for the span-merge functions (the failover bedrock).

The distributed coordinator re-dispatches a crashed pool's spans to
survivors and promises bit-identical results.  That promise rests on two
algebraic properties of the merge functions in :mod:`repro.core.parallel`:

* **placement invariance** (exact, any floats): the flat left-fold over
  span-ordered parts is a pure function of the parts -- computing spans
  in any order, on any worker, and folding by span index must reproduce
  the in-order fold bit for bit;
* **partition invariance** (exact on exactly-representable values): the
  merges implement plain sums with correct floor/base completion, so on
  integer-valued floats -- where fp addition really is associative --
  any partition of the trajectories into spans must give the identical
  result, and on arbitrary floats results across partitions stay within
  reassociation noise.

Hypothesis generates the per-trajectory contributions and the partitions.
The last class checks the coordinator end to end: for one span partition,
the inline, fork and loopback-remote pools give bit-identical results on
every evaluation surface.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import ExtensionTables
from repro.core.parallel import (
    ParallelNMEngine,
    merge_batch_sums,
    merge_extension_tables,
    merge_scalar_sums,
    merge_singular_tables,
)
from repro.core.pattern import TrajectoryPattern
from repro.core.wildcards import Gap, GapPattern
from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer
from repro.storage import open_store, write_store
from repro.testkit.datasets import oracle_setup

# Per-trajectory contributions.  Integer-valued floats make fp addition
# exactly associative, which is what lets the partition-invariance tests
# demand bit equality; the arbitrary-float tests relax to ULP-noise.
_exact = st.integers(min_value=-(2**20), max_value=2**20).map(float)
_real = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _partitions(n: int, seed: int) -> list[list[tuple[int, int]]]:
    """A handful of random span partitions of ``range(n)``, plus extremes."""
    rng = random.Random(seed)
    parts = [[(0, n)], [(i, i + 1) for i in range(n)]]
    for _ in range(3):
        cuts = sorted(rng.sample(range(1, n), min(rng.randint(1, 3), n - 1)))
        bounds = [0, *cuts, n]
        parts.append(list(zip(bounds[:-1], bounds[1:])))
    return parts


class TestBatchSums:
    @given(
        rows=st.lists(
            st.lists(_real, min_size=3, max_size=3), min_size=2, max_size=12
        ),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_placement_invariance_any_floats(self, rows, seed):
        # Which worker computes a span (== arrival order) must not move a
        # bit: fold shuffled-computation results by span index and compare
        # against the straight in-order fold.
        data = np.asarray(rows)
        spans = _partitions(len(rows), seed)[-1]
        in_order = [data[lo:hi].sum(axis=0) for lo, hi in spans]
        shuffled_idx = list(range(len(spans)))
        random.Random(seed).shuffle(shuffled_idx)
        by_span: dict[int, np.ndarray] = {}
        for i in shuffled_idx:  # "survivor recomputes span i later"
            lo, hi = spans[i]
            by_span[i] = data[lo:hi].sum(axis=0)
        reassembled = [by_span[i] for i in range(len(spans))]
        lhs = merge_batch_sums(in_order)
        rhs = merge_batch_sums(reassembled)
        assert lhs.tobytes() == rhs.tobytes()

    @given(
        rows=st.lists(
            st.lists(_exact, min_size=2, max_size=2), min_size=2, max_size=12
        ),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_invariance_exact_values(self, rows, seed):
        data = np.asarray(rows)
        reference = data.sum(axis=0)
        for spans in _partitions(len(rows), seed):
            parts = [data[lo:hi].sum(axis=0) for lo, hi in spans]
            merged = merge_batch_sums(parts)
            assert merged.tobytes() == reference.tobytes(), spans

    @given(
        values=st.lists(_real, min_size=2, max_size=12),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_partitions_agree_within_reassociation_noise(self, values, seed):
        data = np.asarray([[v] for v in values])
        results = [
            merge_batch_sums([data[lo:hi].sum(axis=0) for lo, hi in spans])[0]
            for spans in _partitions(len(values), seed)
        ]
        scale = max(1.0, max(abs(v) for v in values)) * len(values)
        for r in results[1:]:
            assert math.isclose(r, results[0], rel_tol=0, abs_tol=scale * 1e-12)


class TestPerTrajectoryAndScalars:
    """Per-trajectory terms summed to one scalar (the gap-pattern NM)."""

    @given(
        values=st.lists(_exact, min_size=2, max_size=20),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_scalar_fold_partition_invariant_on_exact_values(self, values, seed):
        reference = merge_scalar_sums(values)
        for spans in _partitions(len(values), seed):
            parts = [merge_scalar_sums(values[lo:hi]) for lo, hi in spans]
            assert merge_scalar_sums(parts) == reference


def _span_singular_table(
    contributions: list[dict[int, float]], lo: int, hi: int, floor: float
) -> dict[int, float]:
    """What a span reports: every cell active *somewhere in the span*,
    summed over all span trajectories with the floor standing in for the
    trajectories that lack the cell -- exactly the engine's own per-span
    accounting."""
    rows = contributions[lo:hi]
    active = {cell for row in rows for cell in row}
    return {
        cell: sum(row.get(cell, floor) for row in rows) for cell in active
    }


class TestSingularTables:
    @given(
        contributions=st.lists(
            st.dictionaries(st.integers(0, 6), _exact, min_size=1, max_size=4),
            min_size=2,
            max_size=10,
        ),
        floor=_exact,
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_floor_completion_partition_invariant(self, contributions, floor, seed):
        # Direct full-dataset accounting: a trajectory without the cell
        # contributes the floor once.
        n = len(contributions)
        cells = {c for row in contributions for c in row}
        reference = {
            cell: sum(row.get(cell, floor) for row in contributions)
            for cell in cells
        }
        for spans in _partitions(n, seed):
            tables = [
                _span_singular_table(contributions, lo, hi, floor)
                for lo, hi in spans
            ]
            sizes = [hi - lo for lo, hi in spans]
            merged = merge_singular_tables(tables, sizes, floor, n)
            assert merged == reference, spans


class TestExtensionTables:
    @given(
        contributions=st.lists(
            st.dictionaries(st.integers(0, 6), _exact, min_size=0, max_size=4),
            min_size=2,
            max_size=10,
        ),
        nm_floor=_exact,
        match_floor=_exact,
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_base_completion_partition_invariant(
        self, contributions, nm_floor, match_floor, seed
    ):
        # Each trajectory contributes its table value for active cells and
        # the floor otherwise; match mirrors nm with a different floor.
        n = len(contributions)
        cells = {c for row in contributions for c in row}
        nm_ref = {
            cell: sum(row.get(cell, nm_floor) for row in contributions)
            for cell in cells
        }
        match_ref = {
            cell: sum(2.0 * row.get(cell, match_floor / 2.0) for row in contributions)
            for cell in cells
        }
        for spans in _partitions(n, seed):
            span_tables = []
            for lo, hi in spans:
                rows = contributions[lo:hi]
                active = {c for row in rows for c in row}
                span_tables.append(
                    ExtensionTables(
                        nm_by_cell={
                            c: sum(row.get(c, nm_floor) for row in rows)
                            for c in active
                        },
                        match_by_cell={
                            c: sum(
                                2.0 * row.get(c, match_floor / 2.0) for row in rows
                            )
                            for c in active
                        },
                        nm_base_total=nm_floor * len(rows),
                        match_base_total=match_floor * len(rows),
                    )
                )
            merged = merge_extension_tables(span_tables)
            assert merged.nm_by_cell == nm_ref, spans
            assert merged.match_by_cell == match_ref, spans
            # The merged base totals are the full-dataset ones.
            assert merged.nm_base_total == nm_floor * n, spans
            assert merged.match_base_total == match_floor * n, spans


@pytest.fixture(scope="module")
def pool_setup(tmp_path_factory):
    s = oracle_setup(303, quick=True)
    path = write_store(s.dataset, tmp_path_factory.mktemp("pools") / "data.tjc")
    with open_store(path) as store, WorkerPoolServer(
        WorkerPoolConfig(store_path=str(path), name="prop")
    ) as server:
        yield s, store.dataset(), f"{server.config.host}:{server.port}"


def _surfaces(engine, patterns, gap) -> tuple:
    """Every evaluation surface, as bytes / exact python values."""
    return (
        engine.nm_batch(patterns).tobytes(),
        engine.match_batch(patterns).tobytes(),
        engine.singular_nm_table(),
        engine.singular_match_table(),
        engine.extension_tables_many(patterns[:3]),
        engine.nm_gap_pattern_total(gap),
    )


class TestPoolKindInvariance:
    @given(jobs=st.integers(1, 5), seed=st.integers(0, 10**6))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_inline_fork_and_remote_pools_agree_bitwise(self, pool_setup, jobs, seed):
        s, store_dataset, remote = pool_setup
        results = {}
        for pools in (("inline",), ("local",), (remote,)):
            with ParallelNMEngine(
                store_dataset, s.grid, s.config, jobs=jobs, pools=pools
            ) as engine:
                rng = random.Random(seed)  # the same frontier for every pool
                cells = engine.active_cells
                patterns = [
                    TrajectoryPattern(tuple(rng.choice(cells) for _ in range(n)))
                    for n in (1, 1, 2, 3, 2)
                ]
                gap = GapPattern(
                    (TrajectoryPattern((cells[0],)), TrajectoryPattern((cells[-1],))),
                    (Gap(0, 2),),
                )
                results[pools[0]] = (engine.spans, _surfaces(engine, patterns, gap))
        (spans, reference), *others = results.values()
        for other_spans, surfaces in others:
            assert other_spans == spans
            assert surfaces == reference
