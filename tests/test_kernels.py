"""Kernel backend protocol: equivalence, precision modes, scratch arena.

The compiled backend's contract is *bit-exactness* with the numpy
reference on a shared index (the evaluation kernels perform the same
reduction in the same order, and the index sort and segmentation kernels
install the same arrays from the same entries); only the Prob kernel used
during index construction is allowed to differ (libm vs scipy ``erf``,
tagged into the cache key), and it must equal itself evaluated one pair
at a time, whatever the pair layout.  float32 mode is judged in float32
ULPs.  Tests that need the compiled backend skip with the registry's own
unavailability reason.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.engine import EngineConfig, NMEngine, autotune_prob_chunk
from repro.core.pattern import TrajectoryPattern
from repro.core.wildcards import Gap, GapPattern, nm_gap_pattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
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
        assert inst.name in ("numpy", "cnative")


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
    assert eng.backend_name == "cnative"
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


# -- index build kernels ------------------------------------------------------

#: Index arrays that a sort and install derive from the entry triples.
INDEX_ARRAYS = (
    "_cell_ids", "_cell_bounds", "_flat_cells", "_flat_rows", "_flat_vals",
    "_seg_starts", "_seg_traj", "_cell_seg_starts", "_flat_cell_order",
)  # fmt: skip

PROB_GRID = Grid(BoundingBox(0.0, 0.0, 1.0, 1.0), nx=50, ny=50)
PROB_DELTA = 0.02


@pytest.fixture(scope="module")
def compiled64():
    _require_compiled()
    return kernels.resolve_backend("compiled", "float64")


def _prob_one_at_a_time(kern, mean, sigma, center, delta) -> np.ndarray:
    """Box Prob with one pair per call: nothing to reuse, only the formula."""
    return np.array(
        [
            kern.prob_within(mean[i : i + 1], sigma[i : i + 1],
                             center[i : i + 1], delta)[0]
            for i in range(len(sigma))
        ]
    )  # fmt: skip


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    snapshots=st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(0.002, 0.02),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=5,
    ),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prob_box_reuse_matches_pairwise(compiled64, snapshots, shuffle, seed):
    """Bulk box Prob == one pair per call, bit for bit, in any pair layout.

    Pairs come out of ``cells_near_many`` in the engine's row-major
    layout.  A snapshot repeated ``k`` times in a row is a parked object
    (equal mean and sigma), and ``shuffle`` scatters the pairs so that
    kept masses meet the inputs of other snapshots.
    """
    points = np.array([(x, y) for x, y, _, k in snapshots for _ in range(k)])
    sigmas = np.array([s for _, _, s, k in snapshots for _ in range(k)])
    cells, owners = PROB_GRID.cells_near_many(points, 4.0 * sigmas + PROB_DELTA)
    mean, sigma = points[owners], sigmas[owners]
    center = PROB_GRID.cell_centers(cells)
    if shuffle:
        perm = np.random.default_rng(seed).permutation(len(cells))
        mean, sigma, center = mean[perm], sigma[perm], center[perm]
    bulk = compiled64.prob_within(mean, sigma, center, PROB_DELTA)
    _assert_same_bits(
        bulk, _prob_one_at_a_time(compiled64, mean, sigma, center, PROB_DELTA)
    )


def test_prob_box_reuse_past_the_row_buffer(compiled64):
    """A row wider than the kernel's x-mass buffer, twice (a parked object),
    with a near-equal mean in between: positions past the buffer are
    computed, never taken from a stale slot."""
    width, g = 700, 1e-3
    xs = np.arange(width) * g
    row = np.column_stack([xs, np.zeros(width)])
    block = np.concatenate([row, row + [0.0, g], row + [0.0, 2 * g]])
    near = np.nextafter(0.35, 1.0)
    means = [(0.35, g), (0.35, g), (near, g), (0.35, g)]
    mean = np.concatenate([np.tile(m, (len(block), 1)) for m in means])
    center = np.tile(block, (len(means), 1))
    sigma = np.full(len(mean), 0.05)
    bulk = compiled64.prob_within(mean, sigma, center, 5e-4)
    _assert_same_bits(
        bulk, _prob_one_at_a_time(compiled64, mean, sigma, center, 5e-4)
    )


def _entry_chunks(seed, n_cells, n_rows, per_row, rows_per_chunk):
    """Per-chunk (cells, rows, vals) lists in ascending row order, each row
    holding ``per_row`` distinct random cells (or all cells if fewer)."""
    rng = np.random.default_rng(seed)
    cells_acc, rows_acc, vals_acc = [], [], []
    for lo in range(0, n_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_rows)
        take = min(per_row, n_cells)
        cells = np.concatenate(
            [rng.choice(n_cells, size=take, replace=False) for _ in range(lo, hi)]
        ).astype(np.int64)
        cells_acc.append(cells)
        rows_acc.append(np.repeat(np.arange(lo, hi, dtype=np.int64), take))
        vals_acc.append(np.log(rng.uniform(1e-6, 1.0, len(cells))))
    return cells_acc, rows_acc, vals_acc


def _sort_both(compiled, chunks, n_cells):
    ref = kernels.resolve_backend("numpy")
    copies = [[list(acc) for acc in chunks] for _ in range(2)]
    got = compiled.sort_entries(*copies[0], n_cells)
    want = ref.sort_entries(*copies[1], n_cells)
    for acc in copies[0] + copies[1]:
        assert acc == []  # both backends empty the chunk lists
    for a, b in zip(got, want):
        _assert_same_bits(a, b)
    return want


@pytest.mark.parametrize(
    "n_cells, n_rows, per_row, rows_per_chunk",
    [
        (1, 40, 1, 7),  # one cell
        (500, 60, 9, 16),  # most cells have no entries
        (30, 200, 12, 64),  # dense
    ],
)
def test_sort_and_segments_match_reference(
    compiled64, n_cells, n_rows, per_row, rows_per_chunk
):
    chunks = _entry_chunks(3, n_cells, n_rows, per_row, rows_per_chunk)
    cells, rows, _ = _sort_both(compiled64, chunks, n_cells)
    # Trajectories of 1..9 rows, so segments split cells at every length.
    lengths = np.random.default_rng(4).integers(1, 10, n_rows)
    row_traj = np.repeat(np.arange(len(lengths)), lengths)[:n_rows]
    ref = kernels.resolve_backend("numpy")
    for a, b in zip(
        compiled64.index_segments(cells, rows, row_traj),
        ref.index_segments(cells, rows, row_traj),
    ):
        _assert_same_bits(a, b)


def test_sort_and_segments_empty(compiled64):
    ref = kernels.resolve_backend("numpy")
    empty_i, empty_f = np.empty(0, dtype=np.int64), np.empty(0)
    for chunks in ([[], [], []], [[empty_i], [empty_i.copy()], [empty_f]]):
        cells, rows, vals = _sort_both(compiled64, chunks, 8)
        assert len(cells) == len(rows) == len(vals) == 0
    row_traj = np.zeros(5, dtype=np.int64)
    for a, b in zip(
        compiled64.index_segments(empty_i, empty_i, row_traj),
        ref.index_segments(empty_i, empty_i, row_traj),
    ):
        _assert_same_bits(a, b)


def test_sort_and_segments_reject_out_of_range(compiled64):
    cells = [np.array([0, 9], dtype=np.int64)]
    with pytest.raises(ValueError, match="outside"):
        compiled64.sort_entries(cells, [np.array([0, 1])], [np.zeros(2)], 9)
    with pytest.raises(IndexError, match="outside"):
        compiled64.index_segments(
            np.array([0, 0]), np.array([0, 5]), np.zeros(5, dtype=np.int64)
        )


@pytest.mark.parametrize("cap", [None, 3])
def test_compiled_build_matches_reference_install(compiled64, small_dataset, cap):
    """A compiled engine's own build installs exactly the arrays that the
    numpy reference's sort and install derive from the same entries --
    with the per-snapshot cap trimming entries or not."""
    kw = {} if cap is None else {"max_cells_per_snapshot": cap}
    eng = _engine(small_dataset, backend="compiled", **kw)
    if cap is not None:
        assert eng.n_index_entries <= cap * small_dataset.total_snapshots()
    ref = _engine(small_dataset, backend="numpy", **kw)
    chunks = eng._collect_index_entries()
    _sort_both(compiled64, [list(acc) for acc in chunks], eng.grid.n_cells)
    ref.install_index(
        *kernels.resolve_backend("numpy").sort_entries(*chunks, eng.grid.n_cells)
    )
    for name in INDEX_ARRAYS:
        _assert_same_bits(getattr(eng, name), getattr(ref, name))


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
        assert engine.backend_name in ("numpy", "cnative")
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
