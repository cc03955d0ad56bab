"""Kernel backend protocol: equivalence, scratch arena, index build kernels.

The compiled backend's contract is *bit-exactness* with the numpy
reference on a shared index (the evaluation kernels perform the same
reduction in the same order, and the index fill and segmentation kernels
install the same arrays from the same entries); only the Prob kernel used
during index construction is allowed to differ (libm vs scipy ``erf``,
tagged into the cache key), and it must equal itself evaluated one pair
at a time, whatever the pair layout.  Tests that need the compiled
backend skip with the registry's own unavailability reason.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import index_cache, kernels
from repro.core.engine import EngineConfig, NMEngine, _fill_csr
from repro.core.kernels import numpy_ref
from repro.core.pattern import TrajectoryPattern
from repro.core.wildcards import Gap, GapPattern, nm_gap_pattern
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.uncertainty.gaussian import ProbModel
from tests.conftest import INDEX_ARRAYS, dataset_cache_key

CELL = 0.03
BASE = dict(delta=CELL, min_prob=1e-6)


def _require_compiled() -> None:
    reason = kernels.compiled_unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled backend unavailable: {reason}")


def _engine(dataset, backend="numpy", csr=None, **kw) -> NMEngine:
    """An engine over ``dataset``: its own build, or ``csr`` adopted."""
    grid = dataset.make_grid(CELL)
    return NMEngine(dataset, grid, EngineConfig(backend=backend, **BASE, **kw), csr=csr)


#: A CSR index with no entries (:meth:`NMEngine.index_csr` layout).
EMPTY_CSR = (
    np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64),
    np.empty(0, dtype=np.int32), np.empty(0),
)  # fmt: skip


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
    with pytest.raises(ValueError, match="backend"):
        EngineConfig(delta=0.03, backend="cuda")
    # Every kernel runs in float64: there is no dtype to choose.
    with pytest.raises(TypeError, match="dtype"):
        EngineConfig(delta=0.03, dtype="float64")


def test_resolved_instances_satisfy_protocol():
    for backend in kernels.available_backends():
        inst = kernels.resolve_backend(backend)
        assert isinstance(inst, kernels.KernelBackend)
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
    """On one shared index every backend's reduction is bit-identical."""
    ref = _engine(small_dataset)
    patterns = _candidates(ref)
    gaps = _gap_patterns(ref)
    nm_ref = ref.nm_batch(patterns)
    match_ref = ref.match_batch(patterns)
    windows_ref = ref.window_scores_batch(patterns[:6])
    gap_ref = np.array([nm_gap_pattern(ref, gp) for gp in gaps])

    for backend in kernels.available_backends():
        eng = _engine(small_dataset, backend=backend, csr=ref.index_csr())
        assert np.array_equal(eng.nm_batch(patterns), nm_ref), backend
        assert np.array_equal(eng.match_batch(patterns), match_ref)
        for got, want in zip(eng.window_scores_batch(patterns[:6]), windows_ref):
            assert np.array_equal(got, want)
        gap = np.array([nm_gap_pattern(eng, gp) for gp in gaps])
        assert np.array_equal(gap, gap_ref)


def _trajectory_patterns(engine, seed, starts=6) -> list[TrajectoryPattern]:
    """Patterns of length 3-8 cut from the dataset's own trajectories.

    ``starts`` random cuts per trajectory and length.  Their windows hit
    one index entry per position, so many windows sum three or more
    deviations -- where the order of the additions shows.
    """
    rng = np.random.default_rng(seed)
    cells = [engine.grid.locate_many(traj.means) for traj in engine.dataset]
    out = []
    for m in range(3, 9):
        for path in cells:
            for lo in rng.integers(0, len(path) - m + 1, size=starts):
                out.append(TrajectoryPattern(tuple(int(c) for c in path[lo : lo + m])))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_sums_follow_gather_order(small_dataset, seed):
    """numpy sums each window's deviations in the compiled kernel's order.

    ``((d0 + d1) + d2) ...`` in gather order: on one shared index the two
    backends agree to the bit on patterns whose windows sum many entries.
    """
    _require_compiled()
    ref = _engine(small_dataset)
    patterns = _trajectory_patterns(ref, seed)
    assert len(patterns) >= 300
    got = {}
    for backend in ("numpy", "compiled"):
        eng = _engine(small_dataset, backend=backend, csr=ref.index_csr())
        got[backend] = (eng.nm_batch(patterns), eng.match_batch(patterns))
    for numpy_side, compiled_side in zip(got["numpy"], got["compiled"]):
        _assert_same_bits(numpy_side, compiled_side)


def test_compiled_own_index_close(small_dataset):
    """Compiled engines building their own index stay within tolerance.

    The erf difference (libm vs scipy, <= 2 ULPs per entry) propagates
    through window sums, so own-index results are close but not
    necessarily bit-identical.
    """
    _require_compiled()
    ref = _engine(small_dataset)
    eng = _engine(small_dataset, backend="compiled")
    assert eng.backend_name == "cnative"
    patterns = _candidates(ref)
    np.testing.assert_allclose(
        eng.nm_batch(patterns), ref.nm_batch(patterns), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        eng.match_batch(patterns), ref.match_batch(patterns),
        rtol=1e-12, atol=1e-12,
    )


# -- scratch arena ------------------------------------------------------------


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_steady_state_is_allocation_free(small_dataset, backend):
    eng = _engine(small_dataset, backend=backend)
    patterns = _candidates(eng)
    eng.nm_batch(patterns)  # warm the arena (and any lazy caches)
    eng.nm_batch(patterns)
    allocations = eng._arena.allocations
    requests = eng._arena.requests
    for _ in range(3):
        eng.nm_batch(patterns)
    assert eng._arena.allocations == allocations
    assert eng._arena.requests > requests


def _devmax_batch(n_patterns=200, m=3, n_cells=12, per_cell=700, n_traj=40, seed=3):
    """A wide synthetic ``batch_devmax`` call: ~n_patterns * m * per_cell entries."""
    rng = np.random.default_rng(seed)
    n_rows = n_traj * 500
    rows = np.concatenate(
        [np.sort(rng.choice(n_rows, per_cell, replace=False)) for _ in range(n_cells)]
    ).astype(np.int32)
    row_traj = np.repeat(np.arange(n_traj, dtype=np.int64), n_rows // n_traj)
    n_windows = n_rows - m + 1
    return dict(
        cells_matrix=rng.integers(0, n_cells, (n_patterns, m)),
        start=np.arange(n_cells, dtype=np.int64) * per_cell,
        count=np.full(n_cells, per_cell, dtype=np.int64),
        rows=rows,
        vals=rng.uniform(-6.0, -0.5, len(rows)),
        floor=-7.0,
        valid=row_traj[:n_windows] == row_traj[m - 1 :],
        n_windows=n_windows,
        win_traj=row_traj[:n_windows],
        arena=None,
        out=np.zeros((n_patterns, n_traj)),
    )


def test_numpy_devmax_gathers_a_bounded_run(monkeypatch):
    """One numpy ``batch_devmax`` pass gathers at most ``_GATHER_BUDGET`` entries.

    Its scratch is some tens of bytes per gathered entry, so the call's
    traced peak follows the budget, not the batch (here 420k entries,
    whose single gather peaks at 42 MiB); the split changes no bits.
    """
    import tracemalloc

    from repro.core.kernels import numpy_ref

    numpy_kernels = kernels.resolve_backend("numpy")
    whole = _devmax_batch()
    numpy_kernels.batch_devmax(**whole)
    budget = 1 << 14
    monkeypatch.setattr(numpy_ref, "_GATHER_BUDGET", budget, raising=False)
    split = _devmax_batch()
    tracemalloc.start()
    try:
        numpy_kernels.batch_devmax(**split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_bits(split["out"], whole["out"])
    assert whole["out"].any()
    # A run may exceed the budget by one pattern's entries (3 * 700);
    # measured 85 bytes per entry of that.
    assert peak <= 128 * (budget + 3 * 700), peak


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


def test_prob_chunking_is_bit_exact(small_dataset, monkeypatch):
    """Chunked == unchunked index construction, 0 ULPs."""
    big = _engine(small_dataset)  # 2^20 pairs: one sweep
    for chunk in (64, 1021):
        monkeypatch.setattr(numpy_ref, "_PROB_SWEEP", chunk)
        small = _engine(small_dataset)
        assert small.n_index_entries == big.n_index_entries
        for name in INDEX_ARRAYS:
            _assert_same_bits(getattr(small, name), getattr(big, name))


# -- index build kernels ------------------------------------------------------

PROB_GRID = Grid(BoundingBox(0.0, 0.0, 1.0, 1.0), nx=50, ny=50)
PROB_DELTA = 0.02


@pytest.fixture(scope="module")
def compiled_kernels():
    _require_compiled()
    return kernels.resolve_backend("compiled")


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
def test_prob_box_reuse_matches_pairwise(compiled_kernels, snapshots, shuffle, seed):
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
    bulk = compiled_kernels.prob_within(mean, sigma, center, PROB_DELTA)
    _assert_same_bits(
        bulk, _prob_one_at_a_time(compiled_kernels, mean, sigma, center, PROB_DELTA)
    )


def test_prob_box_reuse_past_the_row_buffer(compiled_kernels):
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
    bulk = compiled_kernels.prob_within(mean, sigma, center, 5e-4)
    _assert_same_bits(
        bulk, _prob_one_at_a_time(compiled_kernels, mean, sigma, center, 5e-4)
    )


#: Box half-width and floor of the random pair chunks: a pair's Prob then
#: falls on either side of the floor.
PAIR_DELTA = 0.05
PAIR_MIN_PROB = 1e-3


def _pair_spec(centres, min_prob=PAIR_MIN_PROB, cap=4096, delta=PAIR_DELTA) -> dict:
    """The ``place_pairs`` arguments every chunk of one build shares."""
    return dict(
        centres=centres, delta=delta, model=ProbModel.BOX, min_prob=min_prob, cap=cap
    )


def _pair_chunks(seed, n_cells, n_rows, per_row, rows_per_chunk):
    """``(chunks, centres)``: ``place_pairs`` chunks of ``rows_per_chunk``
    snapshots in ascending row order, each snapshot listing ``per_row``
    distinct random cells (or all cells if fewer) of ``n_cells`` random
    centres."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, (n_cells, 2))
    chunks = []
    for lo in range(0, n_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_rows)
        take = min(per_row, n_cells)
        cells = np.concatenate(
            [rng.choice(n_cells, size=take, replace=False) for _ in range(lo, hi)]
            + [np.empty(0)]
        ).astype(np.int32)
        owners = np.repeat(np.arange(hi - lo, dtype=np.int32), take)
        means = rng.uniform(0.0, 1.0, (hi - lo, 2))
        chunks.append((cells, owners, lo, means, rng.uniform(0.05, 0.3, hi - lo)))
    return chunks, centres


def _capacity(chunks, n_cells, seed) -> np.ndarray:
    """Each cell's listed pairs plus 0-2 spare slots, as the capacity pass
    over-counts the kept ones; some cells get slots but no entries."""
    cells = [chunk[0] for chunk in chunks] + [np.empty(0, dtype=np.int32)]
    counts = np.bincount(np.concatenate(cells), minlength=n_cells)
    return counts + np.random.default_rng(seed).integers(0, 3, n_cells)


def _expected_entries(kern, chunks, centres, delta, model, min_prob, cap):
    """``(cells, rows, log-probs)`` of the chunks' pairs, one snapshot at a
    time: ``kern``'s Prob, the floor, and the ``cap`` most probable."""
    out = [np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64), np.empty(0)]
    for cells, owners, row0, means, sigmas in chunks:
        for o in np.unique(owners):
            mine = cells[owners == o]
            probs = kern.prob_within(
                np.tile(means[o], (len(mine), 1)), np.full(len(mine), sigmas[o]),
                centres[mine], delta, model=model,
            )  # fmt: skip
            keep = probs > min_prob
            mine, probs = mine[keep], probs[keep]
            if len(mine) > cap:
                top = np.argpartition(probs, -cap)[-cap:]
                mine, probs = mine[top], probs[top]
            rows = np.full(len(mine), row0 + o, dtype=np.int64)
            for k, part in enumerate((mine, rows, np.log(probs))):
                out[k] = np.concatenate([out[k], part])
    return out


def _assert_csr_of(csr, entries) -> None:
    """``csr`` is the (cell, row)-lexsorted ``entries`` in CSR form: rows
    ascend within each cell."""
    cell_ids, cell_bounds, rows, vals = csr
    assert cell_ids.dtype == rows.dtype == np.int32
    assert cell_bounds.dtype == np.int64 and vals.dtype == np.float64
    cells, want_rows, want_vals = entries
    order = np.lexsort((want_rows, cells))
    counts = np.diff(cell_bounds)
    assert np.all(counts > 0)  # only cells with entries are listed
    assert np.array_equal(np.repeat(cell_ids, counts), cells[order])
    assert np.array_equal(rows, want_rows[order])
    _assert_same_bits(vals, want_vals[order])


class _ReferenceOverCompiledProb:
    """The reference composition (gather, Prob, floor, cap, scatter) with
    the compiled Prob kernel: what the compiled ``place_pairs`` must give
    bit for bit."""

    def __init__(self, compiled):
        self.prob_within = compiled.prob_within
        self.compact_entries = kernels.resolve_backend("numpy").compact_entries

    def place_pairs(self, *args, **kwargs):
        numpy_ref.place_pairs_reference(self.prob_within, *args, **kwargs)


def _fill_both(compiled, chunks, capacity, **pairs):
    """The engine's capacity fill through the compiled ``place_pairs`` and
    through the reference composition over the compiled Prob: bit-identical
    CSRs, equal to the pairs placed one snapshot at a time."""
    got = _fill_csr(compiled, capacity, iter(chunks), **pairs)
    want = _fill_csr(_ReferenceOverCompiledProb(compiled), capacity, iter(chunks), **pairs)
    for a, b in zip(got, want):
        _assert_same_bits(a, b)
    _assert_csr_of(want, _expected_entries(compiled, chunks, **pairs))
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
    compiled_kernels, n_cells, n_rows, per_row, rows_per_chunk
):
    """The fill puts entries in (cell, row) order on both backends, and the
    segmentation of the result agrees."""
    chunks, centres = _pair_chunks(3, n_cells, n_rows, per_row, rows_per_chunk)
    capacity = _capacity(chunks, n_cells, 5)
    spec = _pair_spec(centres)
    cell_ids, cell_bounds, rows, _ = _fill_both(compiled_kernels, chunks, capacity, **spec)
    numpy_csr = _fill_csr(kernels.resolve_backend("numpy"), capacity, iter(chunks), **spec)
    _assert_csr_of(numpy_csr, _expected_entries(kernels.resolve_backend("numpy"), chunks, **spec))
    # Trajectories of 1..9 rows, so segments split cells at every length.
    lengths = np.random.default_rng(4).integers(1, 10, n_rows)
    row_traj = np.repeat(np.arange(len(lengths)), lengths)[:n_rows]
    ref = kernels.resolve_backend("numpy")
    got = compiled_kernels.index_segments(cell_bounds, rows, row_traj)
    want = ref.index_segments(cell_bounds, rows, row_traj)
    for a, b in zip(got, want):
        _assert_same_bits(a, b)
    # Every segment is one (cell, trajectory) run, and each cell's first
    # segment starts at the cell's first entry.
    seg_starts, seg_traj, cell_seg_starts = want
    assert np.array_equal(seg_starts[cell_seg_starts], cell_bounds[:-1])
    entry_cells = np.repeat(cell_ids, np.diff(cell_bounds))
    key = entry_cells.astype(np.int64) * (row_traj.max() + 1) + row_traj[rows]
    assert np.array_equal(seg_starts, np.flatnonzero(np.diff(key, prepend=-1)))
    assert np.array_equal(seg_traj, row_traj[rows[seg_starts]])


def test_sort_and_segments_empty(compiled_kernels):
    ref = kernels.resolve_backend("numpy")
    empty_i, empty_f = np.empty(0, dtype=np.int32), np.empty(0)
    spec = _pair_spec(np.zeros((8, 2)))
    for chunks in ([], [(empty_i, empty_i.copy(), 0, np.empty((0, 2)), empty_f)]):
        # No capacity at all, and capacity that no entry uses.
        for capacity in (np.zeros(8, dtype=np.int64), np.arange(8)):
            csr = _fill_both(compiled_kernels, chunks, capacity, **spec)
            cell_ids, cell_bounds, rows, vals = csr
            assert len(cell_ids) == len(rows) == len(vals) == 0
            assert cell_bounds.tolist() == [0]
    row_traj = np.zeros(5, dtype=np.int64)
    bounds = np.zeros(1, dtype=np.int64)
    for a, b in zip(
        compiled_kernels.index_segments(bounds, empty_i, row_traj),
        ref.index_segments(bounds, empty_i, row_traj),
    ):
        _assert_same_bits(a, b)
        assert len(a) == 0


#: Sentinel filling the fill arrays and the guard slots around them.
UNWRITTEN = -7


def _fill_arrays(capacity):
    """``(bounds, cursor, rows, vals)`` at ``capacity``, the rows and values
    as views between two guard slots on each side."""
    bounds = np.zeros(len(capacity) + 1, dtype=np.int64)
    np.cumsum(capacity, out=bounds[1:])
    rows = np.full(bounds[-1] + 4, UNWRITTEN, dtype=np.int32)[2:-2]
    vals = np.full(bounds[-1] + 4, float(UNWRITTEN))[2:-2]
    return bounds, bounds[:-1].copy(), rows, vals


def _assert_written_inside_runs(bounds, cursor, rows, vals) -> None:
    """Whatever was placed sits inside its cell's run, below its cursor;
    every other slot, and the guard slots, still hold the sentinel."""
    placed = np.zeros(len(rows), dtype=bool)
    for c in range(len(cursor)):
        assert bounds[c] <= cursor[c] <= bounds[c + 1]
        placed[bounds[c] : cursor[c]] = True
    assert np.all(rows[~placed] == UNWRITTEN) and np.all(vals[~placed] == UNWRITTEN)
    for buf in (rows.base, vals.base):
        assert np.all(buf[:2] == UNWRITTEN) and np.all(buf[-2:] == UNWRITTEN)


def _place(backend, cells, owners, fill, centres, n_owners=None, cap=4096):
    """``place_pairs`` of snapshots that sit on their first listed cell's
    centre, so each snapshot keeps that cell."""
    cells = np.asarray(cells, dtype=np.int32)
    owners = np.asarray(owners, dtype=np.int32)
    n_owners = int(owners.max()) + 1 if n_owners is None else n_owners
    means = np.zeros((n_owners, 2))
    for o in range(n_owners):
        first = cells[owners == o][:1]
        if len(first) and 0 <= first[0] < len(centres):
            means[o] = centres[first[0]]
    backend.place_pairs(
        cells, owners, 0, means, np.full(n_owners, 0.1), centres, 0.5,
        ProbModel.BOX, 1e-6, cap, *fill,
    )  # fmt: skip


def test_sort_and_segments_reject_out_of_range(compiled_kernels):
    """A pair whose cell lies outside the grid, whose owner lies outside
    the chunk, or whose owner comes before the previous pair's raises
    ``ValueError`` on both backends and writes nothing outside the runs
    (the compiled backend places the snapshots before it); an index row
    outside the dataset makes the segmentation raise."""
    centres = np.column_stack([np.arange(9.0), np.zeros(9)])
    for backend in (compiled_kernels, kernels.resolve_backend("numpy")):
        for cells, owners, n_owners, match in [
            ([0, 9], [0, 1], None, "cell outside"),
            ([0, -1], [0, 1], None, "cell outside"),
            ([0, 1, 2], [0, 1, 3], 3, "owner outside"),
            ([0, 1], [0, -1], 2, "owner outside"),
            ([0, 1, 2], [0, 1, 0], None, "out of order"),
        ]:
            fill = _fill_arrays(np.full(9, 2))
            with pytest.raises(ValueError, match=match):
                _place(backend, cells, owners, fill, centres, n_owners)
            _assert_written_inside_runs(*fill)
        for row in (5, -1):
            with pytest.raises(IndexError, match="outside"):
                backend.index_segments(
                    np.array([0, 2]), np.array([0, row], dtype=np.int32),
                    np.zeros(5, dtype=np.int64),
                )  # fmt: skip


@pytest.mark.parametrize("backend_name", ["numpy", "compiled"])
def test_scatter_refuses_a_full_run(backend_name):
    """A chunk whose kept pairs need more slots in a cell's run than it has
    raises ``ValueError`` -- also at the last cell, where an unchecked
    write would land past the arrays -- and writes nothing outside the
    runs; a cursor outside its run makes the compaction raise."""
    if backend_name == "compiled":
        _require_compiled()
    backend = kernels.resolve_backend(backend_name)
    capacity = np.array([2, 1, 0, 1])
    centres = np.column_stack([np.arange(4.0), np.zeros(4)])
    for cell in (1, 2, 3):
        fill = _fill_arrays(capacity)
        with pytest.raises(ValueError, match="no free slot"):
            _place(backend, [0, cell, cell], [0, 1, 2], fill, centres)
        _assert_written_inside_runs(*fill)
    bounds, cursor, rows, vals = _fill_arrays(capacity)
    for bad in ([3, 2, 3, 3], [0, 1, 3, 3]):
        with pytest.raises(ValueError, match="outside its run"):
            backend.compact_entries(
                bounds, np.array(bad, dtype=np.int64), rows, vals
            )


def _half_cells(lo: int, hi: int):
    """Multiples of half a cell in ``[lo / 2, hi / 2]``."""
    return st.integers(lo, hi).map(lambda h: h / 2)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    snapshots=st.lists(
        st.tuples(
            # Means in cell units from two cells outside the grid to two
            # past it, some on cell edges or centres; sigmas in cell units;
            # a snapshot repeated k times in a row is a parked object.
            st.one_of(st.floats(-2.0, 14.0), st.integers(-2, 14).map(float)),
            st.one_of(st.floats(-2.0, 14.0), _half_cells(-4, 28)),
            st.sampled_from([0.05, 0.3, 1.0, 2.5]),
            st.integers(1, 3),
        ),
        max_size=10,
    ),
    rows_per_chunk=st.integers(1, 8),
    min_prob=st.sampled_from([1e-9, 1e-4, 0.05, 0.4]),
    cap=st.integers(1, 150),
)
def test_fill_matches_reference_on_random_streams(
    compiled_kernels, nx, ny, snapshots, rows_per_chunk, min_prob, cap
):
    """Compiled ``place_pairs``, then compaction and the log, equals the
    reference composition over the compiled Prob bit for bit -- cell ids,
    bounds, rows and values -- on the engine's own pair layout: means
    inside, on and outside the grid, parked objects, several floors and
    caps from 1 to above the largest neighbourhood (144 cells)."""
    grid = Grid(BoundingBox(-1.0, 0.5, 2.0, 2.0), nx=nx, ny=ny)
    scale = np.array([grid.gx, grid.gy])
    corner = np.array([grid.bbox.min_x, grid.bbox.min_y])
    means = np.array([(x, y) for x, y, _, k in snapshots for _ in range(k)]).reshape(-1, 2)
    means = corner + means * scale
    sigmas = np.array([s for _, _, s, k in snapshots for _ in range(k)]) * scale.min()
    delta = scale.min() / 2
    radii = 3.0 * sigmas + delta
    spans = [
        (lo, min(lo + rows_per_chunk, len(means)))
        for lo in range(0, len(means), rows_per_chunk)
    ]
    chunks = [
        (*grid.cells_near_many(means[lo:hi], radii[lo:hi]), lo, means[lo:hi], sigmas[lo:hi])
        for lo, hi in spans
    ]
    capacity = grid.cells_near_counts([(means, radii)])
    spec = _pair_spec(grid.cell_centers(), min_prob=min_prob, cap=cap, delta=delta)
    _fill_both(compiled_kernels, chunks, capacity, **spec)


def test_compiled_hands_back_a_snapshot_over_the_cap(compiled_kernels, monkeypatch):
    """A snapshot keeping more than ``cap`` cells is placed by the reference
    composition alone -- the C pass writes nothing of it -- and the walk
    resumes after it; the CSR equals the reference's."""
    from repro.core.kernels import compiled as compiled_mod

    # Snapshots 0 and 2 sit on a cell centre with a tiny sigma and keep 9
    # cells each; snapshot 1 is wide and keeps far more than the cap.
    means = np.array([[0.51, 0.51], [0.3, 0.3], [0.11, 0.71]])
    sigmas = np.array([0.002, 0.05, 0.002])
    radii = 4.0 * sigmas + PROB_DELTA
    cells, owners = PROB_GRID.cells_near_many(means, radii)
    spec = _pair_spec(PROB_GRID.cell_centers(), min_prob=1e-6, cap=20, delta=PROB_DELTA)
    chunk = (cells, owners, 0, means, sigmas)
    uncapped = _expected_entries(compiled_kernels, [chunk], **{**spec, "cap": len(cells)})
    kept = np.bincount(uncapped[1], minlength=3)
    assert kept[0] == kept[2] == 9 and kept[1] > spec["cap"]
    handed = []
    reference = compiled_mod.place_pairs_reference

    def spy(prob_within, cells_, owners_, *rest):
        handed.append(owners_.copy())
        return reference(prob_within, cells_, owners_, *rest)

    monkeypatch.setattr(compiled_mod, "place_pairs_reference", spy)
    capacity = PROB_GRID.cells_near_counts([(means, radii)])
    _fill_both(compiled_kernels, [chunk], capacity, **spec)
    assert len(handed) == 1 and np.array_equal(handed[0], owners[owners == 1])


@pytest.mark.parametrize("cap", [4096, 3])
def test_compiled_disk_build_is_the_reference_build(compiled_kernels, small_dataset, cap):
    """The disk model evaluates through scipy on both backends, so a
    compiled engine's disk-model build -- capped or not -- installs the
    numpy engine's CSR bit for bit."""
    kw = dict(prob_model=ProbModel.DISK, max_cells_per_snapshot=cap)
    got = _engine(small_dataset, backend="compiled", **kw)
    want = _engine(small_dataset, backend="numpy", **kw)
    assert got.n_index_entries > 0
    for name in INDEX_ARRAYS:
        _assert_same_bits(getattr(got, name), getattr(want, name))


def test_index_ids_must_fit_int32(monkeypatch):
    """Rows beyond ``int32`` are refused by the engine; cell ids beyond it
    by the grid itself, before it builds its 2^32 cell centres."""
    from repro.core.engine import _check_index_shape

    def no_centres(*args, **kwargs):
        pytest.fail("the grid built its cell centres")

    with monkeypatch.context() as patch:
        patch.setattr(np, "meshgrid", no_centres)
        with pytest.raises(ValueError, match="int32"):
            Grid(BoundingBox.unit(), 1 << 16, 1 << 16)
    limit = np.iinfo(np.int32).max
    _check_index_shape(limit)
    with pytest.raises(ValueError, match="snapshots"):
        _check_index_shape(limit + 1)


@pytest.mark.parametrize("cap", [None, 3])
def test_compiled_build_matches_reference_install(compiled_kernels, small_dataset, cap):
    """A compiled engine's own build installs exactly the CSR and segment
    arrays that the reference composition over the compiled Prob and the
    numpy install derive from the same pairs -- with the per-snapshot cap
    trimming entries or not -- and so does a numpy engine adopting the
    compiled engine's CSR."""
    kw = {} if cap is None else {"max_cells_per_snapshot": cap}
    eng = _engine(small_dataset, backend="compiled", **kw)
    if cap is not None:
        assert eng.n_index_entries <= cap * small_dataset.total_snapshots()
    csr = eng._collect_index_entries()
    assert csr[0].dtype == csr[2].dtype == np.int32
    for a, b in zip(csr, eng.index_csr()):
        _assert_same_bits(a, b)
    # The same pairs as the build lists them, in row chunks of 16, placed
    # by the reference composition at the capacity the grid counts.
    config = eng.config
    means, sigmas = small_dataset.all_means(), small_dataset.all_sigmas()
    radii = config.effective_radius_sigmas() * sigmas + config.delta
    chunks = [
        (*eng.grid.cells_near_many(means[lo : lo + 16], radii[lo : lo + 16]), lo,
         means[lo : lo + 16], sigmas[lo : lo + 16])
        for lo in range(0, eng._total_rows, 16)
    ]  # fmt: skip
    capacity = eng.grid.cells_near_counts([(means, radii)])
    assert capacity.sum() == eng.n_index_pairs > eng.n_index_entries
    sorted_ref = _fill_both(
        compiled_kernels, chunks, capacity, centres=eng.grid.cell_centers(),
        delta=config.delta, model=config.prob_model, min_prob=config.min_prob,
        cap=config.max_cells_per_snapshot,
    )  # fmt: skip
    ref = _engine(small_dataset, backend="numpy", **kw)
    ref._install_csr(*sorted_ref)
    adopted = _engine(small_dataset, backend="numpy", csr=eng.index_csr(), **kw)
    for name in INDEX_ARRAYS:
        _assert_same_bits(getattr(eng, name), getattr(ref, name))
        _assert_same_bits(getattr(eng, name), getattr(adopted, name))


# -- index replacement & cache invalidation ----------------------------------


def test_adopt_index_invalidates_caches(small_dataset):
    """A warmed engine adopting a new index must match a cold engine bit-exactly.

    Exercises the ``_segment_maxima`` / entry-bounds / column caches: all
    are populated by the first evaluation round and must not leak across
    ``adopt_index``.
    """
    warm = _engine(small_dataset)
    patterns = _candidates(warm)
    warm.match_batch(patterns)
    warm.nm_batch(patterns)
    warm_singular = warm.singular_nm_table()  # populates _seg_max
    assert warm._seg_max is not None

    # A genuinely different index over the same dataset/grid: the first
    # half of the active cells, with rescaled values.
    cell_ids, cell_bounds, rows, vals = warm.index_csr()
    half = len(cell_ids) // 2
    n = int(cell_bounds[half])
    new = (cell_ids[:half], cell_bounds[: half + 1], rows[:n], vals[:n] * 0.75)
    epoch = warm.index_epoch
    warm.adopt_index(small_dataset, new)
    assert warm.index_epoch == epoch + 1
    assert warm._seg_max is None  # caches dropped with the old index

    cold = _engine(small_dataset, csr=new)
    assert np.array_equal(warm.match_batch(patterns), cold.match_batch(patterns))
    assert np.array_equal(warm.nm_batch(patterns), cold.nm_batch(patterns))
    assert warm.singular_nm_table() == cold.singular_nm_table()
    assert warm.singular_nm_table() != warm_singular

    # Shrinking to an empty index must also reset every derived structure.
    warm.nm_batch(patterns)
    warm.adopt_index(small_dataset, EMPTY_CSR)
    assert warm.n_index_entries == 0
    floor = warm.nm_batch(patterns)
    assert np.all(np.isfinite(floor))


def _assert_cache_refuses(dataset, tmp_path, bad_csr) -> None:
    """On every backend, an engine whose index cache holds ``bad_csr``
    rebuilds instead of installing it, scores exactly as a build without
    the cache, and overwrites the file with its own index."""
    grid = dataset.make_grid(CELL)
    for backend in kernels.available_backends():
        config = EngineConfig(backend=backend, **BASE, cache_dir=str(tmp_path))
        clean = NMEngine(dataset, grid, replace(config, cache_dir=None))
        patterns = _candidates(clean)
        key = dataset_cache_key(dataset, grid, config)
        index_cache.save_index(tmp_path, key, *bad_csr)
        eng = NMEngine(dataset, grid, config)
        assert not eng.index_cache_hit, backend
        for name in INDEX_ARRAYS:
            _assert_same_bits(getattr(eng, name), getattr(clean, name))
        assert np.array_equal(eng.nm_batch(patterns), clean.nm_batch(patterns))
        assert eng.singular_nm_table() == clean.singular_nm_table()
        assert NMEngine(dataset, grid, config).index_cache_hit


def test_install_index_rejects_repeated_entries(small_dataset, tmp_path):
    """Entries are unique per (cell, row): an index that repeats one --
    next to itself, later in its cell's run, or in a second run of its
    cell -- with the same or another value, never installs from the
    cache, so no entry counts twice in an NM."""
    cell_ids, cell_bounds, rows, vals = _engine(small_dataset).index_csr()
    k = int(np.argmax(np.diff(cell_bounds)))  # the longest run
    lo, hi = int(cell_bounds[k]), int(cell_bounds[k + 1])
    assert hi - lo >= 2
    shifted = np.concatenate([cell_bounds[: k + 1], cell_bounds[k + 1 :] + 1])
    for value in (vals[lo], vals[lo] - 1.0):
        for at in (lo + 1, hi):  # next to the original, or at the run's end
            _assert_cache_refuses(
                small_dataset, tmp_path,
                (cell_ids, shifted, np.insert(rows, at, rows[lo]), np.insert(vals, at, value)),
            )  # fmt: skip
        second_run = (
            np.insert(cell_ids, k + 1, cell_ids[k]),
            np.concatenate([cell_bounds[: k + 2], [hi + 1], cell_bounds[k + 2 :] + 1]),
            np.insert(rows, hi, rows[lo]),
            np.insert(vals, hi, value),
        )
        _assert_cache_refuses(small_dataset, tmp_path, second_run)


def test_install_index_rejects_values_outside_floor_and_zero(small_dataset, tmp_path):
    """An entry value below the floor or above log 1 never installs from
    the cache.  The backends disagree on such a value: the compiled
    ``batch_devmax`` skips a deviation at or below zero, numpy adds it."""
    eng = _engine(small_dataset)
    cell_ids, cell_bounds, rows, vals = eng.index_csr()
    for bad in (eng.floor_log_prob - 5.0, 0.7):
        changed = vals.copy()
        changed[len(changed) // 2] = bad
        _assert_cache_refuses(small_dataset, tmp_path, (cell_ids, cell_bounds, rows, changed))


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
    eng.adopt_index(small_dataset, EMPTY_CSR)
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
        snap = engine.obs_snapshot()
        assert snap["backend"] == engine.backend_name
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
