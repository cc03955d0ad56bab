"""Kernel backend protocol: equivalence, precision modes, scratch arena.

The compiled backend's contract is *bit-exactness* with the numpy
reference on a shared index (the evaluation kernels perform the same
reduction in the same order); only the Prob kernel used during index
construction is allowed to differ (libm vs scipy ``erf``, tagged into the
cache key).  float32 mode is judged in float32 ULPs.  Tests that need the
compiled backend skip with the registry's own unavailability reason.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.core import kernels
from repro.core.engine import EngineConfig, NMEngine, autotune_prob_chunk
from repro.core.pattern import TrajectoryPattern
from repro.core.wildcards import Gap, GapPattern, nm_gap_pattern
from tests.conftest import dataset_cache_key

CELL = 0.03
BASE = dict(delta=CELL, min_prob=1e-6)


def _combos() -> list[tuple[str, str]]:
    out = [("numpy", "float64"), ("numpy", "float32")]
    if kernels.compiled_unavailable_reason() is None:
        out += [("compiled", "float64"), ("compiled", "float32")]
    return out


def _require_compiled() -> None:
    reason = kernels.compiled_unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")


def _engine(dataset, backend="numpy", dtype="float64", **kw) -> NMEngine:
    grid = dataset.make_grid(CELL)
    return NMEngine(
        dataset, grid, EngineConfig(backend=backend, dtype=dtype, **BASE, **kw)
    )


def _candidates(engine, n=40, seed=5) -> list[TrajectoryPattern]:
    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    return [
        TrajectoryPattern(
            tuple(int(c) for c in rng.choice(cells, size=rng.integers(1, 5)))
        )
        for _ in range(n)
    ]


def _gap_patterns(engine, n=8, seed=6) -> list[GapPattern]:
    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    out = []
    for _ in range(n):
        a = TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=2)))
        b = TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=1)))
        lo = int(rng.integers(0, 3))
        out.append(GapPattern((a, b), (Gap(lo, lo + int(rng.integers(0, 3))),)))
    return out


# -- protocol & resolution ----------------------------------------------------


def test_resolution_validation():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.resolve_backend("cuda")
    with pytest.raises(ValueError, match="unknown kernel dtype"):
        kernels.resolve_backend("numpy", "float16")
    with pytest.raises(ValueError, match="backend"):
        EngineConfig(delta=0.03, backend="cuda")
    with pytest.raises(ValueError, match="dtype"):
        EngineConfig(delta=0.03, dtype="float16")


def test_resolved_instances_satisfy_protocol():
    for backend, dtype in _combos():
        inst = kernels.resolve_backend(backend, dtype)
        assert isinstance(inst, kernels.KernelBackend)
        assert np.dtype(inst.dtype) == np.dtype(dtype)
        assert inst.name in ("numpy", "numba", "cnative")


def test_forced_none_disables_compiled(monkeypatch, caplog):
    monkeypatch.setenv("REPRO_KERNELS", "none")
    assert kernels.available_backends() == ["numpy"]
    assert "REPRO_KERNELS=none" in kernels.compiled_unavailable_reason()
    # Explicit "compiled" degrades to numpy with a structured warning...
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        inst = kernels.resolve_backend("compiled")
    assert inst.name == "numpy" and not inst.compiled
    assert any("falling back to numpy" in r.message for r in caplog.records)
    # ...while "auto" degrades silently.
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        assert kernels.resolve_backend("auto").name == "numpy"
    assert not caplog.records
    summary = kernels.backend_summary(
        EngineConfig(delta=0.03, backend="compiled")
    )
    assert summary["resolved"] == "numpy"
    assert "fallback_reason" in summary


def test_prob_kernel_tag_default_is_ref():
    # The scipy-built index keeps its historical cache key: "ref" adds
    # nothing to the hash.
    cfg = EngineConfig(delta=0.03, backend="numpy")
    assert kernels.prob_kernel_tag(cfg) == "ref"


def test_cache_key_kernel_tag(small_dataset, unit_grid):
    cfg = EngineConfig(**BASE)
    base = dataset_cache_key(small_dataset, unit_grid, cfg)
    assert dataset_cache_key(
        small_dataset, unit_grid, cfg, kernel_tag="ref"
    ) == base
    tagged = dataset_cache_key(
        small_dataset, unit_grid, cfg, kernel_tag="cnative"
    )
    assert tagged != base


# -- backend equivalence ------------------------------------------------------


def test_shared_index_bit_exact(small_dataset):
    """On one shared index every backend x dtype reduction is bit-identical."""
    ref = _engine(small_dataset)
    patterns = _candidates(ref)
    gaps = _gap_patterns(ref)
    nm_ref = ref.nm_batch(patterns)
    match_ref = ref.match_batch(patterns)
    windows_ref = ref.window_scores_batch(patterns[:6])
    gap_ref = np.array([nm_gap_pattern(ref, gp) for gp in gaps])

    for backend, dtype in _combos():
        eng = _engine(small_dataset, backend=backend, dtype=dtype)
        eng.install_index(ref._flat_cells, ref._flat_rows, ref._flat_vals)
        nm = eng.nm_batch(patterns)
        match = eng.match_batch(patterns)
        windows = eng.window_scores_batch(patterns[:6])
        gap = np.array([nm_gap_pattern(eng, gp) for gp in gaps])
        if dtype == "float64":
            assert np.array_equal(nm, nm_ref), (backend, dtype)
            assert np.array_equal(match, match_ref)
            for got, want in zip(windows, windows_ref):
                assert np.array_equal(got, want)
            assert np.array_equal(gap, gap_ref)
        else:
            # float32 paths: both sides rounded to f32 must stay within a
            # small ULP budget of the f64 reference.
            from repro.testkit.oracle import max_ulps32

            assert max_ulps32(nm, nm_ref) <= 1024
            assert max_ulps32(match, match_ref) <= 1024


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_compiled_own_index_close(small_dataset, dtype):
    """Compiled engines building their own index stay within tolerance.

    The erf difference (libm vs scipy, <= 2 ULPs per entry) propagates
    through window sums, so own-index results are close but not
    necessarily bit-identical.
    """
    _require_compiled()
    ref = _engine(small_dataset)
    eng = _engine(small_dataset, backend="compiled", dtype=dtype)
    assert eng.backend_name in ("numba", "cnative")
    assert eng.backend_dtype == dtype
    patterns = _candidates(ref)
    rtol = 1e-12 if dtype == "float64" else 1e-4
    np.testing.assert_allclose(
        eng.nm_batch(patterns), ref.nm_batch(patterns), rtol=rtol, atol=1e-12
    )
    np.testing.assert_allclose(
        eng.match_batch(patterns), ref.match_batch(patterns),
        rtol=rtol, atol=1e-12,
    )


def test_float32_outputs_are_float64(small_dataset):
    eng = _engine(small_dataset, dtype="float32")
    patterns = _candidates(eng, n=8)
    assert eng._flat_vals_k.dtype == np.float32
    assert eng._flat_vals.dtype == np.float64  # cache/build side stays f64
    assert eng.nm_batch(patterns).dtype == np.float64
    assert eng.match_batch(patterns).dtype == np.float64


# -- scratch arena ------------------------------------------------------------


@pytest.mark.parametrize("backend,dtype", _combos())
def test_steady_state_is_allocation_free(small_dataset, backend, dtype):
    eng = _engine(small_dataset, backend=backend, dtype=dtype)
    patterns = _candidates(eng)
    eng.nm_batch(patterns)  # warm the arena (and any lazy caches)
    eng.nm_batch(patterns)
    allocations = eng._arena.allocations
    requests = eng._arena.requests
    for _ in range(3):
        eng.nm_batch(patterns)
    assert eng._arena.allocations == allocations
    assert eng._arena.requests > requests


def test_arena_grows_geometrically():
    arena = kernels.ScratchArena()
    a = arena.get("buf", (100,))
    assert a.shape == (100,) and arena.allocations == 1
    b = arena.get("buf", (80,))  # smaller request reuses the same block
    assert arena.allocations == 1 and b.shape == (80,)
    c = arena.get("buf", (101,), zero=True)
    assert arena.allocations == 2 and not c.any()
    assert arena.nbytes() > 0


# -- prob chunking ------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_prob_chunk_size_is_bit_exact(small_dataset, dtype):
    """Chunked == unchunked index construction, 0 ULPs, both dtypes."""
    big = _engine(small_dataset, dtype=dtype)  # default 2^20: one chunk
    for chunk in (64, 1021):
        small = _engine(small_dataset, dtype=dtype, prob_chunk_size=chunk)
        assert small.n_index_entries == big.n_index_entries
        assert np.array_equal(small._flat_vals, big._flat_vals)
        assert np.array_equal(small._flat_vals_k, big._flat_vals_k)
        assert np.array_equal(small._flat_cells, big._flat_cells)
        assert np.array_equal(small._flat_rows, big._flat_rows)


def test_prob_chunk_validation():
    with pytest.raises(ValueError, match="prob_chunk_size"):
        EngineConfig(delta=0.03, prob_chunk_size=0)


def test_autotune_prob_chunk(small_dataset):
    grid = small_dataset.make_grid(CELL)
    cfg = EngineConfig(**BASE)
    best = autotune_prob_chunk(
        small_dataset, grid, cfg, candidates=(1 << 10, 1 << 14), rounds=1
    )
    assert best in (1 << 10, 1 << 14)
    # The knob is safe to apply blindly.
    NMEngine(small_dataset, grid, replace(cfg, prob_chunk_size=best))


# -- index replacement & cache invalidation ----------------------------------


def test_install_index_invalidates_caches(small_dataset):
    """A warmed engine given a new index must match a cold engine bit-exactly.

    Exercises the ``_segment_maxima`` / entry-bounds / column caches: all
    are populated by the first evaluation round and must not leak across
    ``install_index``.
    """
    warm = _engine(small_dataset)
    patterns = _candidates(warm)
    warm.match_batch(patterns)
    warm.nm_batch(patterns)
    warm_singular = warm.singular_nm_table()  # populates _seg_max
    assert warm._seg_max is not None

    # A genuinely different index over the same dataset/grid: half the
    # entries, rescaled values, handed over in shuffled order.
    half = warm._flat_cells.size // 2
    new_cells = warm._flat_cells[:half].copy()
    new_rows = warm._flat_rows[:half].copy()
    new_vals = warm._flat_vals[:half] * 0.75
    perm = np.random.default_rng(3).permutation(half)
    warm.install_index(new_cells[perm], new_rows[perm], new_vals[perm])
    assert warm._seg_max is None  # caches dropped with the old index

    cold = _engine(small_dataset)
    cold.install_index(new_cells, new_rows, new_vals)
    assert np.array_equal(warm.match_batch(patterns), cold.match_batch(patterns))
    assert np.array_equal(warm.nm_batch(patterns), cold.nm_batch(patterns))
    assert warm.singular_nm_table() == cold.singular_nm_table()
    assert warm.singular_nm_table() != warm_singular

    # Shrinking to an empty index must also reset every derived structure.
    warm.nm_batch(patterns)
    empty = np.empty(0, dtype=np.int64)
    warm.install_index(empty, empty, np.empty(0))
    assert warm.n_index_entries == 0
    floor = warm.nm_batch(patterns)
    assert np.all(np.isfinite(floor))


# -- edge cases ---------------------------------------------------------------


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_empty_inputs(small_dataset, backend):
    if backend == "compiled":
        _require_compiled()
    eng = _engine(small_dataset, backend=backend)
    assert eng.nm_batch([]).size == 0
    assert eng.match_batch([]).size == 0
    assert eng.window_scores_batch([]) == []

    # Pattern over cells absent from the index: finite floor, no crash.
    dead = TrajectoryPattern((eng.grid.n_cells - 1,) * 3)
    scores = eng.window_scores_batch([dead])[0]
    assert np.all(np.isfinite(scores))

    # Gap DP with an unsatisfiable span returns the per-position floor.
    n_ticks = len(small_dataset[0])
    seg = TrajectoryPattern(tuple(int(c) for c in eng.active_cells[:2]))
    too_long = GapPattern((seg, seg), (Gap(n_ticks, n_ticks + 5),))
    value = nm_gap_pattern(eng, too_long)
    assert np.isfinite(value)

    # Empty-index engine: every path still returns finite floors.
    empty = np.empty(0, dtype=np.int64)
    eng.install_index(empty, empty, np.empty(0))
    patterns = [seg, dead]
    assert np.all(np.isfinite(eng.nm_batch(patterns)))
    assert np.all(np.isfinite(eng.window_scores_batch(patterns)[0]))
    assert np.isfinite(nm_gap_pattern(eng, GapPattern((seg,), ())))


# -- composition --------------------------------------------------------------


def test_parallel_engine_reports_backend(small_dataset):
    from repro.core.parallel import ParallelNMEngine

    grid = small_dataset.make_grid(CELL)
    engine = ParallelNMEngine(
        small_dataset, grid, EngineConfig(**BASE, backend="auto"), jobs=2
    )
    try:
        assert engine.backend_name in ("numpy", "numba", "cnative")
        assert engine.backend_dtype == "float64"
        snap = engine.obs_snapshot()
        assert snap["backend"] == engine.backend_name
        assert snap["dtype"] == "float64"
        serial = _engine(small_dataset, backend="auto")
        patterns = _candidates(serial)
        np.testing.assert_allclose(
            engine.nm_batch(patterns), serial.nm_batch(patterns), rtol=1e-12
        )
    finally:
        engine.close()


def test_oracle_reports_kernel_paths(tmp_path):
    from repro.testkit.oracle import run_oracle

    report = run_oracle(
        17, quick=True, jobs_grid=(1, 2), include_serve=False,
        work_dir=tmp_path, backends="all",
    )
    assert report.ok
    names = {c.path for c in report.checks}
    # Either the compiled kernels ran or they were skipped *visibly*.
    assert any(n.startswith("kernel") for n in names)
    if kernels.compiled_unavailable_reason() is not None:
        skipped = [c for c in report.checks if c.skipped]
        assert skipped and all("kernel" in c.path for c in skipped)


def test_oracle_rejects_bad_backends(tmp_path):
    from repro.testkit.oracle import run_oracle

    with pytest.raises(ValueError, match="backends"):
        run_oracle(17, quick=True, work_dir=tmp_path, backends="some")
