"""Perf-trajectory benchmark suite: engine, kernels, mining and serving.

Runs the engine micro-benchmarks (index construction, candidate
evaluation), the kernel-backend comparison (numpy vs compiled, gap-DP
throughput), a fig4a-style mining workload, the sharded
parallel-scaling sweep (1/2/4/8 workers), the index-cache cold/warm
comparison and the columnar-store suite (``.tjc`` open/scan/size
economics plus an out-of-core RSS demonstration: a sharded mine over a
store ~4x larger than the parent's resident-set budget), then writes
``BENCH_engine.json`` so subsequent PRs have a recorded perf trajectory.  The ``serve`` section additionally stands up an
in-process :class:`~repro.serve.PatternServer` and drives it with the load
generator, comparing micro-batched against per-request evaluation at
fixed concurrency and recording shedding behaviour under deliberate 2x
overload; its report goes to ``BENCH_serve.json``.  Each run is
*appended* to the file's ``history`` list (keyed by git SHA + timestamp);
the top-level sections always describe the latest run.  Unlike the
pytest-benchmark modules this module needs no plugins and explicitly
compares the batched paths against the scalar reference paths
(per-pattern ``nm`` loop, per-snapshot index collection, one-item
serving batches), reporting throughput ratios.

Usage::

    repro bench [--suite all|engine|kernels|serve]
    PYTHONPATH=src python benchmarks/run_benches.py [--sections engine,serve]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine
from repro.core.pattern import TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.core.wildcards import Gap, GapPattern, nm_gap_pattern
from repro.experiments.datasets import grid_with_cells, zebranet_dataset
from repro.obs import metrics as obs_metrics
from repro.obs import tracing


class _capture_metrics:
    """Enable the global registry for a block and keep its final snapshot.

    The benches report instrument values (index-build time, cache hit/miss
    counts, batch sizes) straight from the observability layer instead of
    duplicating hand-rolled timers; the registry is returned to its
    default-off state afterwards so the timed default-path sections stay
    uninstrumented.
    """

    def __enter__(self) -> "_capture_metrics":
        registry = obs_metrics.get_registry()
        registry.reset()
        registry.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        registry = obs_metrics.get_registry()
        self.snapshot = registry.snapshot()
        registry.disable()
        registry.reset()

#: Engine micro-bench workload (mirrors benchmarks/test_bench_engine.py).
ENGINE_WORKLOAD = dict(n_trajectories=50, n_ticks=60, sigma=0.01, seed=7)
ENGINE_CELL_SIZE = 0.02
ENGINE_MIN_PROB = 1e-4

#: Mining workload (mirrors the fig4a bench baseline in conftest.py).
MINING_WORKLOAD = dict(n_trajectories=30, n_ticks=40, sigma=0.01, seed=7)
MINING_TARGET_CELLS = 1024
MINING_K = 5

#: Parallel-scaling workload: larger so the build amortises pool startup.
PARALLEL_WORKLOAD = dict(n_trajectories=120, n_ticks=80, sigma=0.01, seed=7)
PARALLEL_JOBS = (1, 2, 4, 8)
PARALLEL_N_CANDIDATES = 400

#: Kernel-backend comparison: candidate frontier size and gap patterns.
KERNEL_N_CANDIDATES = 400
KERNEL_N_GAP_PATTERNS = 24

#: Serving workload: big enough that per-pattern evaluation dominates the
#: NDJSON framing, so the batched-vs-naive ratio measures the batcher.
SERVE_WORKLOAD = dict(n_trajectories=120, n_ticks=80, sigma=0.01, seed=7)
SERVE_CONCURRENCY = 32
SERVE_REQUESTS = 640
SERVE_OVERLOAD_FACTOR = 2.0
TELEMETRY_PAIRS = 5

#: Columnar-store comparison workload (same scale as the parallel sweep).
STORE_WORKLOAD = dict(n_trajectories=120, n_ticks=80, sigma=0.01, seed=7)

#: Distributed-dispatch comparison: loopback worker pools vs the fork-pool
#: ParallelNMEngine at a fixed span width, so every pool count is compared
#: against the *same-width* parallel engine (bit-identical results by
#: construction) and the measured delta is pure dispatch/wire overhead.
DIST_POOLS = (1, 2, 4)
DIST_JOBS = 4
DIST_N_CANDIDATES = 200

#: Routed-serving comparison: replicas behind one router vs one direct
#: server, both driven at the standard serving concurrency.
ROUTER_REPLICAS = 2

#: Out-of-core demonstration: a sparse-hotspot store several times larger
#: than the parent process's resident-set budget, mined via store-span
#: workers.  95%+ of snapshots are diffuse (sigma chosen so no cell clears
#: the ``min_prob`` floor -> zero index entries) and a thin corridor of
#: precise trajectories carries the signal, so the *index* stays small
#: while the *dataset* dwarfs the budget -- exactly the regime the store
#: exists for.
STORE_RSS_BUDGET_BYTES = 128 * 1024 * 1024
STORE_RSS_ROWS_PER_TRAJ = 16384
STORE_RSS_N_TRAJ = 1376  # ~22.5M rows of f64 columns -> ~540 MB on disk
STORE_RSS_HOTSPOT_EVERY = 50  # every 50th trajectory rides the corridor
STORE_RSS_MINE_ARGS = (
    "--jobs", "2",
    "--cell-size", "0.02",
    "--delta", "0.02",
    "--gamma", "0.05",
    "--min-prob", "0.2",
    "--radius-sigmas", "0.25",
    "-k", "5",
    "--max-length", "3",
)


def _best_of(fn, rounds: int) -> tuple[float, object]:
    """Best wall time over ``rounds`` calls, plus the last return value."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_index_build(dataset, grid, config, rounds: int) -> dict:
    """Vectorised vs scalar (reference) index entry collection."""
    with _capture_metrics() as captured:
        engine = NMEngine(dataset, grid, config)
    vec_s, _ = _best_of(engine._collect_index_entries, rounds)
    scalar_s, _ = _best_of(engine._collect_index_entries_scalar, rounds)
    return {
        "n_snapshots": dataset.total_snapshots(),
        "n_entries": engine.n_index_entries,
        "scalar_s": scalar_s,
        "vectorised_s": vec_s,
        "speedup": scalar_s / vec_s if vec_s > 0 else float("inf"),
        # engine.index_build_ns as observed by the metrics registry.
        "metrics": captured.snapshot["histograms"],
    }


def bench_candidate_eval(engine, rounds: int, n_candidates: int = 400) -> dict:
    """Batched vs scalar evaluation of one mixed-length candidate frontier."""
    rng = np.random.default_rng(11)
    cells = engine.active_cells
    candidates = [
        TrajectoryPattern(
            tuple(int(c) for c in rng.choice(cells, size=rng.integers(2, 6)))
        )
        for _ in range(n_candidates)
    ]
    batched_s, batched_values = _best_of(
        lambda: engine.nm_batch(candidates), rounds
    )
    scalar_s, scalar_values = _best_of(
        lambda: np.array([engine.nm(p) for p in candidates]), rounds
    )
    assert np.allclose(batched_values, scalar_values, atol=1e-9)
    return {
        "n_candidates": n_candidates,
        "scalar_s": scalar_s,
        "scalar_candidates_per_s": n_candidates / scalar_s,
        "batched_s": batched_s,
        "batched_candidates_per_s": n_candidates / batched_s,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
    }


def _gap_frontier(engine, n: int, seed: int = 13) -> list[GapPattern]:
    """Seeded two- and three-segment gap patterns over the active alphabet."""
    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    out = []
    for _ in range(n):
        n_segments = int(rng.integers(2, 4))
        segments = []
        gaps = []
        for s in range(n_segments):
            seg_len = int(rng.integers(1, 4))
            segments.append(
                TrajectoryPattern(
                    tuple(int(c) for c in rng.choice(cells, size=seg_len))
                )
            )
            if s < n_segments - 1:
                lo = int(rng.integers(0, 3))
                gaps.append((lo, lo + int(rng.integers(0, 4))))
        out.append(
            GapPattern(tuple(segments), tuple(Gap(lo, hi) for lo, hi in gaps))
        )
    return out


def bench_kernel_backends(rounds: int) -> dict:
    """Throughput of every kernel backend on the engine workload.

    Three axes per backend, keyed by the resolved name (``numpy``,
    ``cnative``), all on the standard engine workload:

    * ``index_build_s`` -- a cold :class:`NMEngine` construction with the
      index cache off: the capacity pass, neighbourhood enumeration,
      ``Prob``, the fill and compaction, and the install.
      ``index_pairs`` (snapshot, cell) pairs are enumerated (the build's
      capacity) and ``index_entries`` of them kept;
      ``index_pairs_per_s`` / ``index_entries_per_s`` divide each by the
      build time.
    * ``eval_s`` / ``eval_candidates_per_s`` -- one mixed-length frontier
      of :data:`KERNEL_N_CANDIDATES` candidates through ``nm_batch`` (the
      sort/segment-reduce hot loop).
    * ``gap_s`` / ``gap_evals_per_s`` -- :data:`KERNEL_N_GAP_PATTERNS`
      variable-gap patterns through the wildcard DP.

    ``compiled_vs_numpy_eval_speedup`` (candidate-eval throughput ratio)
    is the acceptance number for the compiled backend; results are
    asserted bitwise-equal across backends before any ratio is reported.
    """
    dataset = zebranet_dataset(**ENGINE_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)

    unavailable = kernels.compiled_unavailable_reason()
    rng = np.random.default_rng(11)
    reference = None
    gap_reference = None
    backends: dict[str, dict] = {}
    for backend in kernels.available_backends():
        config = EngineConfig(
            delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB, backend=backend
        )
        engine = NMEngine(dataset, grid, config)
        if reference is None:
            cells = engine.active_cells
            candidates = [
                TrajectoryPattern(
                    tuple(int(c) for c in rng.choice(cells, size=rng.integers(2, 6)))
                )
                for _ in range(KERNEL_N_CANDIDATES)
            ]
            gap_frontier = _gap_frontier(engine, KERNEL_N_GAP_PATTERNS)
        build_s, _ = _best_of(lambda: NMEngine(dataset, grid, config), rounds)
        n_pairs = engine.n_index_pairs
        eval_s, values = _best_of(lambda: engine.nm_batch(candidates), rounds)
        gap_s, gap_values = _best_of(
            lambda: [nm_gap_pattern(engine, gp) for gp in gap_frontier], rounds
        )
        if reference is None:
            reference, gap_reference = values, np.asarray(gap_values)
        else:
            assert np.allclose(values, reference, rtol=1e-12)
            assert np.allclose(gap_values, gap_reference, rtol=1e-12)
        backends[engine.backend_name] = {
            "requested": backend,
            "resolved": engine.backend_name,
            "index_build_s": build_s,
            "index_pairs": n_pairs,
            "index_entries": engine.n_index_entries,
            "index_pairs_per_s": n_pairs / build_s if build_s > 0 else float("inf"),
            "index_entries_per_s": (
                engine.n_index_entries / build_s if build_s > 0 else float("inf")
            ),
            "eval_s": eval_s,
            "eval_candidates_per_s": (
                KERNEL_N_CANDIDATES / eval_s if eval_s > 0 else float("inf")
            ),
            "gap_s": gap_s,
            "gap_evals_per_s": (
                KERNEL_N_GAP_PATTERNS / gap_s if gap_s > 0 else float("inf")
            ),
        }

    report = {
        "workload": {
            **ENGINE_WORKLOAD,
            "cell_size": ENGINE_CELL_SIZE,
            "min_prob": ENGINE_MIN_PROB,
        },
        "n_candidates": KERNEL_N_CANDIDATES,
        "n_gap_patterns": KERNEL_N_GAP_PATTERNS,
        "available": kernels.available_backends(),
        "backends": backends,
    }
    if unavailable is not None:
        report["compiled_unavailable_reason"] = unavailable
    else:
        ref, fast = backends["numpy"], backends["cnative"]
        report["compiled_vs_numpy_eval_speedup"] = (
            ref["eval_s"] / fast["eval_s"] if fast["eval_s"] > 0 else float("inf")
        )
        report["compiled_vs_numpy_gap_speedup"] = (
            ref["gap_s"] / fast["gap_s"] if fast["gap_s"] > 0 else float("inf")
        )
    return report


def bench_mining() -> dict:
    """Fig. 4(a)-style mining wall time with batch instrumentation."""
    dataset = zebranet_dataset(**MINING_WORKLOAD)
    grid = grid_with_cells(dataset, MINING_TARGET_CELLS)
    cell = min(grid.gx, grid.gy)
    engine = NMEngine(
        dataset, grid, EngineConfig(delta=cell, min_prob=ENGINE_MIN_PROB)
    )
    result = TrajPatternMiner(engine, k=MINING_K).mine()
    stats = result.stats
    return {
        "k": MINING_K,
        "wall_time_s": stats.wall_time_s,
        "eval_time_s": stats.eval_time_s,
        "candidates_evaluated": stats.candidates_evaluated,
        "candidates_per_s": (
            stats.candidates_evaluated / stats.eval_time_s
            if stats.eval_time_s > 0
            else float("inf")
        ),
        "eval_batches": stats.eval_batches,
        "max_batch_size": stats.max_batch_size,
        "iterations": stats.iterations,
        # The run's own registry: miner.eval_ns / miner.batch_size are the
        # source of truth behind the fields above.
        "metrics": stats.metrics.snapshot(),
    }


def _random_candidates(engine, n: int, seed: int = 11) -> list[TrajectoryPattern]:
    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    return [
        TrajectoryPattern(
            tuple(int(c) for c in rng.choice(cells, size=rng.integers(2, 6)))
        )
        for _ in range(n)
    ]


def bench_parallel_scaling(rounds: int) -> dict:
    """Sharded build + frontier eval at 1/2/4/8 workers vs the serial engine.

    Times are honest wall-clock on this machine; ``cpu_count`` is recorded
    because multi-worker speedups are only physically possible with
    multiple cores (on a 1-core box the sharded paths measure pure
    orchestration overhead).
    """
    dataset = zebranet_dataset(**PARALLEL_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)
    config = EngineConfig(delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB)

    t0 = time.perf_counter()
    serial = NMEngine(dataset, grid, config)
    serial_build_s = time.perf_counter() - t0
    candidates = _random_candidates(serial, PARALLEL_N_CANDIDATES)
    serial_eval_s, reference = _best_of(lambda: serial.nm_batch(candidates), rounds)

    workers = {}
    for jobs in PARALLEL_JOBS:
        t0 = time.perf_counter()
        engine = ParallelNMEngine(dataset, grid, config, jobs=jobs)
        build_s = time.perf_counter() - t0
        try:
            eval_s, values = _best_of(lambda: engine.nm_batch(candidates), rounds)
            assert np.allclose(values, reference, atol=1e-9)
            assert engine.n_index_entries == serial.n_index_entries
        finally:
            engine.close()
        workers[str(jobs)] = {"build_s": build_s, "eval_s": eval_s}
    base = workers[str(PARALLEL_JOBS[0])]
    for entry in workers.values():
        entry["build_speedup_vs_1worker"] = base["build_s"] / entry["build_s"]
        entry["eval_speedup_vs_1worker"] = base["eval_s"] / entry["eval_s"]
    return {
        "cpu_count": os.cpu_count(),
        "workload": {**PARALLEL_WORKLOAD, "cell_size": ENGINE_CELL_SIZE},
        "n_candidates": PARALLEL_N_CANDIDATES,
        "serial": {"build_s": serial_build_s, "eval_s": serial_eval_s},
        "workers": workers,
    }


def bench_index_cache(rounds: int) -> dict:
    """Cold index build vs warm start from the on-disk cache.

    Uses the larger parallel workload: the cache pays off proportionally to
    the probability enumeration it skips, so a trivially small index would
    mostly measure ``.npz`` open overhead.
    """
    dataset = zebranet_dataset(**PARALLEL_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)
    config = EngineConfig(delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB)
    cold_s = float("inf")
    with _capture_metrics() as captured:
        with tempfile.TemporaryDirectory() as tmp:
            cached = replace(config, cache_dir=tmp)
            for i in range(rounds):
                with tempfile.TemporaryDirectory() as cold_dir:
                    t0 = time.perf_counter()
                    NMEngine(dataset, grid, replace(config, cache_dir=cold_dir))
                    cold_s = min(cold_s, time.perf_counter() - t0)
            NMEngine(dataset, grid, cached)  # populate the warm cache
            warm_s, engine = _best_of(
                lambda: NMEngine(dataset, grid, cached), rounds
            )
            assert engine.index_cache_hit
    counters = captured.snapshot["counters"]
    assert counters.get("index.cache.hit", 0) >= rounds
    return {
        "workload": {**PARALLEL_WORKLOAD, "cell_size": ENGINE_CELL_SIZE},
        "n_entries": engine.n_index_entries,
        "cold_build_s": cold_s,
        "warm_load_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        # Cache hit/miss/write counts and per-build timings straight from
        # the observability layer.
        "metrics": {
            "counters": counters,
            "index_build_ns": captured.snapshot["histograms"].get(
                "engine.index_build_ns"
            ),
        },
    }


def bench_columnar_store(rounds: int) -> dict:
    """Open/scan/engine-build economics of the ``.tjc`` columnar store.

    Writes the standard workload as JSONL and as three store variants
    (mmap-able raw float64, zlib-compressed, quantised+zlib), then
    measures what the format buys: O(footer) opens vs a full JSONL parse
    (the ``open_speedup_vs_jsonl`` acceptance number), bounded-``pread``
    sequential scan throughput, and an engine build over the lazy
    store-backed dataset vs the in-RAM dataset (entry counts asserted
    equal -- the store path must not change results).
    """
    from repro.storage import open_store, write_store
    from repro.trajectory.io import load_dataset_jsonl, save_dataset_jsonl

    dataset = zebranet_dataset(**STORE_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)
    config = EngineConfig(delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB)

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        tmp = Path(tmp)
        jsonl = tmp / "dataset.jsonl"
        save_dataset_jsonl(dataset, jsonl)
        jsonl_bytes = jsonl.stat().st_size
        variants = {
            "f64-none": dict(compression="none", positions="f64"),
            "f64-zlib": dict(compression="zlib", positions="f64"),
            "q32-zlib": dict(
                compression="zlib", positions="q32", quant_scale=1e-7
            ),
        }
        formats = {}
        for name, kwargs in variants.items():
            path = tmp / f"dataset-{name}.tjc"
            write_store(dataset, path, **kwargs)
            with open_store(path) as store:
                formats[name] = {
                    "size_bytes": store.size_bytes,
                    "bytes_per_row": store.size_bytes / store.total_snapshots,
                    "supports_mmap": store.supports_mmap,
                }
        main = tmp / "dataset-f64-none.tjc"

        jsonl_load_s, _ = _best_of(lambda: load_dataset_jsonl(jsonl), rounds)
        t0 = time.perf_counter()
        open_store(main).close()
        cold_open_s = time.perf_counter() - t0
        warm_open_s, _ = _best_of(lambda: open_store(main).close(), rounds)

        def _scan() -> int:
            with open_store(main) as store:
                return sum(
                    hi - lo
                    for lo, hi, _, _ in store.iter_row_chunks(mode="read")
                )

        scan_s, n_rows = _best_of(_scan, rounds)

        t0 = time.perf_counter()
        ram_engine = NMEngine(dataset, grid, config)
        ram_build_s = time.perf_counter() - t0
        with open_store(main) as store:
            t0 = time.perf_counter()
            store_engine = NMEngine(store.dataset(), grid, config)
            store_build_s = time.perf_counter() - t0
            assert store_engine.n_index_entries == ram_engine.n_index_entries

    return {
        "workload": {**STORE_WORKLOAD, "cell_size": ENGINE_CELL_SIZE},
        "jsonl_bytes": jsonl_bytes,
        "formats": formats,
        "jsonl_load_s": jsonl_load_s,
        "cold_open_s": cold_open_s,
        "warm_open_s": warm_open_s,
        "open_speedup_vs_jsonl": (
            jsonl_load_s / warm_open_s if warm_open_s > 0 else float("inf")
        ),
        "sequential_scan_s": scan_s,
        "scan_rows_per_s": n_rows / scan_s if scan_s > 0 else float("inf"),
        "engine_build_ram_s": ram_build_s,
        "engine_build_store_s": store_build_s,
        "n_index_entries": store_engine.n_index_entries,
    }


def _write_sparse_hotspot_store(path: Path) -> dict:
    """Stream the RSS-demo dataset straight to ``path`` (never in RAM whole)."""
    from repro.storage import StoreWriter, open_store

    rng = np.random.default_rng(7)
    n_rows = STORE_RSS_ROWS_PER_TRAJ
    with StoreWriter(
        path, metadata={"generator": "bench.sparse-hotspot", "seed": 7}
    ) as writer:
        for i in range(STORE_RSS_N_TRAJ):
            if i % STORE_RSS_HOTSPOT_EVERY == 0:
                # Corridor trajectory: precise fixes along y=0.5.
                x = np.linspace(0.3, 0.7, n_rows)
                y = 0.5 + rng.normal(0.0, 0.002, n_rows)
                sigmas = np.full(n_rows, 0.008)
            else:
                # Diffuse trajectory: a clipped random walk whose sigma is
                # large enough that no single cell clears the floor.
                steps = rng.normal(0.0, 0.004, size=(n_rows, 2))
                walk = np.clip(
                    rng.uniform(0.1, 0.9, size=2) + np.cumsum(steps, axis=0),
                    0.0,
                    1.0,
                )
                x, y = walk[:, 0], walk[:, 1]
                sigmas = np.full(n_rows, 0.06)
            writer.append_arrays(
                np.column_stack([x, y]), sigmas, object_id=f"rss-{i}"
            )
    with open_store(path) as store:
        return {
            "dataset_bytes": store.size_bytes,
            "n_trajectories": store.n_trajectories,
            "total_snapshots": store.total_snapshots,
        }


def bench_store_rss() -> dict:
    """Sharded mine over a store several times larger than the RSS budget.

    The mine runs as a subprocess (so its ``ru_maxrss`` is untainted by
    the bench's own allocations) with suggestion scanning disabled via
    explicit ``--cell-size/--delta/--gamma``; the parent process hands
    workers lazy store spans instead of data, so its peak RSS
    must stay under :data:`STORE_RSS_BUDGET_BYTES` even though the store
    is ~4x larger.  Worker (child) peak RSS is recorded separately --
    children map their own span, which is the point of the split.
    """
    import sys

    import repro
    from repro.obs.manifest import load_manifest

    src_root = Path(repro.__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="repro-bench-rss-") as tmp:
        tmp = Path(tmp)
        store_path = tmp / "sparse-hotspot.tjc"
        t0 = time.perf_counter()
        info = _write_sparse_hotspot_store(store_path)
        write_s = time.perf_counter() - t0
        manifest_path = tmp / "mine.manifest.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "mine",
                str(store_path),
                *STORE_RSS_MINE_ARGS,
                "--output",
                str(tmp / "patterns.json"),
                "--manifest-out",
                str(manifest_path),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        mine_wall_s = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"store RSS mine failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        manifest = load_manifest(manifest_path)

    runtime = manifest["runtime"]
    peak = int(runtime["peak_rss_bytes"])
    report = {
        **info,
        "budget_bytes": STORE_RSS_BUDGET_BYTES,
        "dataset_to_budget_ratio": info["dataset_bytes"] / STORE_RSS_BUDGET_BYTES,
        "store_write_s": write_s,
        "mine_args": list(STORE_RSS_MINE_ARGS),
        "mine_wall_s": mine_wall_s,
        "peak_rss_bytes": peak,
        "peak_rss_children_bytes": int(
            runtime.get("peak_rss_children_bytes") or 0
        ),
        "under_budget": peak <= STORE_RSS_BUDGET_BYTES,
    }
    assert report["dataset_to_budget_ratio"] >= 4.0, report
    assert report["under_budget"], (
        f"parent peak RSS {peak} exceeds budget {STORE_RSS_BUDGET_BYTES}"
    )
    return report


def bench_distributed(rounds: int) -> dict:
    """Loopback worker-pool dispatch overhead vs the fork-pool engine.

    Writes the parallel workload as a ``.tjc`` store, starts
    :data:`DIST_POOLS` loopback ``WorkerPoolServer`` processes per leg and
    evaluates one frontier through :class:`ParallelNMEngine` with those
    remote pools at a fixed :data:`DIST_JOBS`-span width.  The baseline is
    the same engine over fork pools at the same width, so results are
    asserted *bit-identical* and ``dispatch_overhead_vs_parallel``
    isolates what the NDJSON socket hop costs over fork pipes.  On a 1-core box every
    configuration shares the core, so the numbers measure orchestration
    overhead, not scaling -- ``cpu_count`` is recorded for that reason.
    """
    from contextlib import ExitStack

    from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer
    from repro.storage import open_store, write_store

    dataset = zebranet_dataset(**PARALLEL_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)
    config = EngineConfig(delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB)

    with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as tmp:
        store_path = Path(tmp) / "dataset.tjc"
        write_store(dataset, store_path)
        with open_store(store_path) as store:
            store_dataset = store.dataset()

            t0 = time.perf_counter()
            par = ParallelNMEngine(dataset, grid, config, jobs=DIST_JOBS)
            par_build_s = time.perf_counter() - t0
            try:
                candidates = _random_candidates(par, DIST_N_CANDIDATES)
                par_eval_s, reference = _best_of(
                    lambda: par.nm_batch(candidates), rounds
                )
            finally:
                par.close()

            pools = {}
            for n_pools in DIST_POOLS:
                with ExitStack() as stack:
                    specs = []
                    for i in range(n_pools):
                        server = stack.enter_context(
                            WorkerPoolServer(
                                WorkerPoolConfig(
                                    store_path=str(store_path),
                                    name=f"bench-{i}",
                                )
                            )
                        )
                        specs.append(f"{server.config.host}:{server.port}")
                    t0 = time.perf_counter()
                    engine = stack.enter_context(
                        ParallelNMEngine(
                            store_dataset, grid, config,
                            pools=specs, jobs=DIST_JOBS,
                        )
                    )
                    build_s = time.perf_counter() - t0
                    eval_s, values = _best_of(
                        lambda: engine.nm_batch(candidates), rounds
                    )
                    assert np.array_equal(values, reference), (
                        "distributed evaluation must be bit-identical to the "
                        "same-width parallel engine"
                    )
                pools[str(n_pools)] = {
                    "build_s": build_s,
                    "eval_s": eval_s,
                    "eval_candidates_per_s": (
                        DIST_N_CANDIDATES / eval_s if eval_s > 0 else float("inf")
                    ),
                    "dispatch_overhead_vs_parallel": (
                        eval_s / par_eval_s if par_eval_s > 0 else float("inf")
                    ),
                }

    return {
        "cpu_count": os.cpu_count(),
        "workload": {**PARALLEL_WORKLOAD, "cell_size": ENGINE_CELL_SIZE},
        "jobs": DIST_JOBS,
        "n_candidates": DIST_N_CANDIDATES,
        "parallel_baseline": {"build_s": par_build_s, "eval_s": par_eval_s},
        "bit_identical_to_parallel": True,
        "pools": pools,
    }


def run_dist(rounds: int = 3) -> dict:
    """The ``distributed`` report section (suite ``dist``)."""
    return {"distributed": bench_distributed(rounds)}


#: Incremental-maintenance workload: dataset size and the delta fraction
#: the acceptance target speaks about (appends of <= 5% of the rows should
#: beat a full rebuild by >= 5x).
INCREMENTAL_WORKLOAD = dict(n_trajectories=200, n_ticks=60, sigma=0.01, seed=13)
INCREMENTAL_DELTA_FRACTION = 0.05
INCREMENTAL_MINE_K = 8


def bench_incremental(rounds: int) -> dict:
    """Append-vs-rebuild cost of the incremental index, plus warm mining.

    One engine is built over all but the last ~5% of trajectories; each
    round re-installs that base index from its prebuilt arrays (cheap,
    array-speed) and times a single :meth:`IncrementalIndexer.append` of
    the held-out tail, against the cost of rebuilding the full index from
    scratch.  The folded result is asserted bit-identical to the rebuild.
    The mining leg compares a cold top-k run with one warm-started from the
    base dataset's converged frontier.
    """
    from repro.core.incremental import IncrementalIndexer
    from repro.trajectory.dataset import TrajectoryDataset

    dataset = zebranet_dataset(**INCREMENTAL_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)
    config = EngineConfig(delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB)
    trajs = list(dataset)
    n_delta = max(1, int(len(trajs) * INCREMENTAL_DELTA_FRACTION))
    base_dataset = TrajectoryDataset(trajs[:-n_delta])
    delta_trajs = trajs[-n_delta:]

    base = NMEngine(base_dataset, grid, config)
    base_arrays = base.index_arrays()
    rebuild_s, full_engine = _best_of(
        lambda: NMEngine(dataset, grid, config), rounds
    )

    append_s = float("inf")
    evict_s = float("inf")
    indexer = None
    for _ in range(rounds):
        engine = NMEngine(base_dataset, grid, config, prebuilt=base_arrays)
        indexer = IncrementalIndexer(engine)
        t0 = time.perf_counter()
        indexer.append(delta_trajs)
        append_s = min(append_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        indexer.evict(n_delta)
        evict_s = min(evict_s, time.perf_counter() - t0)
    # Correctness guard on the timed artefact itself: re-fold once and
    # compare against the from-scratch build.
    engine = NMEngine(base_dataset, grid, config, prebuilt=base_arrays)
    IncrementalIndexer(engine).append(delta_trajs)
    bit_identical = all(
        np.array_equal(a, b)
        for a, b in zip(engine.index_arrays(), full_engine.index_arrays())
    )

    previous = TrajPatternMiner(base, k=INCREMENTAL_MINE_K).mine()
    t0 = time.perf_counter()
    cold = TrajPatternMiner(full_engine, k=INCREMENTAL_MINE_K).mine()
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = TrajPatternMiner(
        full_engine, k=INCREMENTAL_MINE_K, warm_state=previous.warm_state
    ).mine()
    warm_s = time.perf_counter() - t0
    topk_identical = [
        (p.cells, nm) for p, nm in cold.as_pairs()
    ] == [(p.cells, nm) for p, nm in warm.as_pairs()]

    delta_rows = sum(len(t) for t in delta_trajs)
    return {
        "n_trajectories": len(trajs),
        "total_rows": dataset.total_snapshots(),
        "delta_trajectories": n_delta,
        "delta_rows": delta_rows,
        "delta_fraction": delta_rows / dataset.total_snapshots(),
        "full_rebuild_s": rebuild_s,
        "append_s": append_s,
        "evict_s": evict_s,
        "append_speedup": rebuild_s / append_s if append_s > 0 else float("inf"),
        "bit_identical": bit_identical,
        "mining": {
            "k": INCREMENTAL_MINE_K,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_iterations": cold.stats.iterations,
            "warm_iterations": warm.stats.iterations,
            "warm_seeds": len(previous.warm_state),
            "topk_identical": topk_identical,
        },
    }


def run_incremental(rounds: int = 3) -> dict:
    """The ``incremental`` report section (suite ``incremental``)."""
    return {"incremental": bench_incremental(rounds)}


def _print_incremental(section: dict) -> None:
    mining = section["mining"]
    print(
        f"incremental:    append {section['append_s'] * 1e3:.1f}ms vs rebuild "
        f"{section['full_rebuild_s'] * 1e3:.0f}ms "
        f"({section['append_speedup']:.1f}x, "
        f"{section['delta_fraction'] * 100:.1f}% delta, "
        f"bit-identical={section['bit_identical']}); "
        f"warm mine {mining['warm_s'] * 1e3:.0f}ms/"
        f"{mining['warm_iterations']}it vs cold "
        f"{mining['cold_s'] * 1e3:.0f}ms/{mining['cold_iterations']}it"
    )


def run_store(rounds: int = 3) -> dict:
    """The ``columnar_store`` report section (suite ``store``)."""
    return {
        "columnar_store": {
            **bench_columnar_store(rounds),
            "rss": bench_store_rss(),
        }
    }


def bench_obs_overhead(engine, rounds: int, n_candidates: int = 400) -> dict:
    """Batched-evaluation throughput with observability off vs fully on.

    ``disabled`` is the default state every other bench runs in (no
    registry, no tracer: hot paths pay one global read per instrumentation
    point); ``enabled`` turns on both the metrics registry and an
    in-memory tracer.  The acceptance bar for the instrumentation layer is
    that ``disabled`` throughput stays within a few percent of the
    pre-instrumentation history entries.
    """
    candidates = _random_candidates(engine, n_candidates)
    disabled_s, _ = _best_of(lambda: engine.nm_batch(candidates), rounds)

    registry = obs_metrics.get_registry()
    sink = tracing.BufferSink()
    tracing.configure_tracing(sink=sink)
    registry.reset()
    registry.enable()
    try:
        enabled_s, _ = _best_of(lambda: engine.nm_batch(candidates), rounds)
    finally:
        tracing.disable_tracing()
        registry.disable()
        registry.reset()
    return {
        "n_candidates": n_candidates,
        "disabled_s": disabled_s,
        "disabled_candidates_per_s": n_candidates / disabled_s,
        "enabled_s": enabled_s,
        "enabled_candidates_per_s": n_candidates / enabled_s,
        "enabled_overhead_pct": (
            (enabled_s / disabled_s - 1.0) * 100.0 if disabled_s > 0 else 0.0
        ),
        "spans_emitted": len(sink.records),
    }


async def _serve_leg(
    snapshot, serve_kwargs: dict, loadgen_kwargs: dict
) -> tuple[dict, dict]:
    """One server lifetime driven by one loadgen run.

    Returns ``(loadgen_report, server_stats)``; the server is stopped
    before returning so legs never share an event-loop or a port.
    """
    from repro.serve import LoadgenConfig, PatternServer, ServeConfig, SnapshotStore
    from repro.serve.loadgen import run_loadgen

    server = PatternServer(SnapshotStore(snapshot), ServeConfig(port=0, **serve_kwargs))
    host, port = await server.start()
    try:
        report = await run_loadgen(
            LoadgenConfig(host=host, port=port, **loadgen_kwargs)
        )
        stats = server.stats()
    finally:
        await server.stop()
    return report, stats


def bench_serve() -> dict:
    """Micro-batched vs per-request serving throughput, plus overload.

    Three legs against the same snapshot:

    * ``batched``  -- closed loop at ``SERVE_CONCURRENCY`` with the default
      micro-batcher (coalesces concurrent requests into one
      ``nm_batch`` call).
    * ``naive``    -- identical load, ``max_batch=1``: every request pays
      its own executor hop and single-pattern evaluation.  The
      ``batching_speedup`` ratio is the acceptance number.
    * ``overload`` -- open loop at ``SERVE_OVERLOAD_FACTOR`` x the batched
      throughput with a small queue and tight deadline: the server must
      shed explicitly (``overloaded`` responses) while the admitted
      requests keep a bounded p99.
    * ``telemetry`` -- the batched leg rerun with the full server-side
      observability stack on: metrics registry, in-memory tracer and a
      running :class:`~repro.obs.export.TelemetryExporter`.
      ``telemetry_overhead_pct`` is the acceptance number (bar: <= 5%);
      the ``batched`` leg doubles as proof the disabled path is untouched.
      Methodology: this box's throughput drifts +-10% between runs (far
      more than the overhead being measured), so the leg runs
      ``TELEMETRY_PAIRS`` ABBA blocks (off, on, on, off) at 2x request
      count and reports the *median of per-block ratios* -- the ABBA
      order cancels linear drift inside a block exactly, the median
      cancels outlier blocks hit by contention bursts.  The
      loadgen stays untraced here: client and server share one core in
      this bench, so a traced client would double-count its own span
      cost into server throughput.  A final ``wire_traced`` leg (traced
      loadgen, spans propagated over the wire and joined server-side) is
      recorded for information only -- its cost is dominated by the
      colocated client instrumentation, not the server.
    """
    from repro.serve import ServingSnapshot

    dataset = zebranet_dataset(**SERVE_WORKLOAD)
    with tempfile.TemporaryDirectory() as cache_dir:
        snapshot = ServingSnapshot.from_dataset(
            dataset,
            min_prob=ENGINE_MIN_PROB,
            cache_dir=cache_dir,
            source="bench",
        )
        load = dict(
            requests=SERVE_REQUESTS,
            concurrency=SERVE_CONCURRENCY,
            op="score",
            measure="nm",
            patterns_per_request=1,
            seed=0,
        )

        def best_leg(serve_kwargs: dict, loadgen_kwargs: dict, n: int = 3):
            """Best-of-n runs of one leg (single runs see ~±7% scheduler
            noise at these request sizes, swamping small overheads)."""
            best = None
            for _ in range(n):
                report, stats = asyncio.run(
                    _serve_leg(snapshot, serve_kwargs, loadgen_kwargs)
                )
                if best is None or report["achieved_qps"] > best[0]["achieved_qps"]:
                    best = (report, stats)
            return best

        batched_kwargs = dict(max_batch=64, max_delay_ms=2.0, max_queue=2048,
                              default_timeout_ms=60_000.0)
        batched, batched_stats = best_leg(batched_kwargs, load)
        naive, _ = asyncio.run(
            _serve_leg(
                snapshot,
                dict(max_batch=1, max_delay_ms=0.0, max_queue=2048,
                     default_timeout_ms=60_000.0),
                load,
            )
        )
        overload_qps = SERVE_OVERLOAD_FACTOR * batched["achieved_qps"]
        overload, overload_stats = asyncio.run(
            _serve_leg(
                snapshot,
                dict(max_batch=64, max_delay_ms=2.0, max_queue=128,
                     default_timeout_ms=250.0),
                {**load, "qps": overload_qps,
                 "requests": max(SERVE_REQUESTS, int(overload_qps * 2.0))},
            )
        )

        # Telemetry leg: interleaved ABBA blocks -- see the docstring for
        # why block medians instead of best-of-n.
        from statistics import median

        from repro.obs.export import TelemetryExporter

        registry = obs_metrics.get_registry()
        sink = tracing.BufferSink()
        pair_load = {**load, "requests": SERVE_REQUESTS * 2}
        block_ratios: list[float] = []
        telemetry = None
        with tempfile.TemporaryDirectory() as export_dir:
            exporter = TelemetryExporter(export_dir, interval_s=0.5)
            exporter.start()
            def off_leg() -> dict:
                report, _ = asyncio.run(
                    _serve_leg(snapshot, batched_kwargs, pair_load)
                )
                assert report["errors"] == 0
                return report

            def on_leg() -> dict:
                tracing.configure_tracing(sink=sink)
                registry.enable()
                try:
                    report, _ = asyncio.run(
                        _serve_leg(snapshot, batched_kwargs, pair_load)
                    )
                finally:
                    tracing.disable_tracing()
                    registry.disable()
                assert report["errors"] == 0
                return report

            try:
                for _ in range(TELEMETRY_PAIRS):
                    a1, b1, b2, a2 = off_leg(), on_leg(), on_leg(), off_leg()
                    block_ratios.append(
                        (a1["achieved_qps"] + a2["achieved_qps"])
                        / (b1["achieved_qps"] + b2["achieved_qps"])
                        - 1.0
                    )
                    for on_report in (b1, b2):
                        if (
                            telemetry is None
                            or on_report["achieved_qps"]
                            > telemetry["achieved_qps"]
                        ):
                            telemetry = on_report
                server_spans = len(sink.records)
                # Informational: loadgen originates traces and propagates
                # them over the wire.  Client spans are recorded in the
                # same process, so this is not held to the overhead bar.
                tracing.configure_tracing(sink=sink)
                registry.enable()
                try:
                    wire_traced, _ = asyncio.run(
                        _serve_leg(
                            snapshot, batched_kwargs, {**load, "trace": True}
                        )
                    )
                finally:
                    tracing.disable_tracing()
                    registry.disable()
            finally:
                exporter.stop()
                registry.reset()

    assert batched["errors"] == 0 and naive["errors"] == 0
    assert overload["errors"] == 0 and wire_traced["errors"] == 0
    telemetry_overhead_pct = median(block_ratios) * 100.0
    speedup = (
        batched["achieved_qps"] / naive["achieved_qps"]
        if naive["achieved_qps"] > 0
        else float("inf")
    )
    shed_fraction = (
        overload["overloaded"] / overload["completed"]
        if overload["completed"]
        else 0.0
    )
    return {
        "workload": dict(SERVE_WORKLOAD),
        "snapshot": snapshot.describe(),
        "concurrency": SERVE_CONCURRENCY,
        "requests": SERVE_REQUESTS,
        "batched": {**batched, "batcher": batched_stats.get("batcher")},
        "naive": naive,
        "batching_speedup": speedup,
        "overload": {
            **overload,
            "target_qps": overload_qps,
            "shed_fraction": shed_fraction,
            "batcher": overload_stats.get("batcher"),
        },
        "telemetry": {
            **{k: v for k, v in telemetry.items() if k != "requests"},
            "abba_blocks": TELEMETRY_PAIRS,
            "block_overhead_pcts": [r * 100.0 for r in block_ratios],
            "spans_emitted": server_spans,
            "exported_records": exporter.exported_records,
        },
        "telemetry_overhead_pct": telemetry_overhead_pct,
        "wire_traced": {
            **{k: v for k, v in wire_traced.items() if k != "requests"},
            "spans_emitted": len(sink.records) - server_spans,
        },
    }


async def _routed_leg(
    snapshot, n_replicas: int, serve_kwargs: dict, loadgen_kwargs: dict
) -> tuple[dict, dict]:
    """One router lifetime over ``n_replicas`` fresh replicas."""
    from repro.dist.router import PatternRouter, RouterConfig
    from repro.serve import LoadgenConfig, PatternServer, ServeConfig, SnapshotStore
    from repro.serve.loadgen import run_loadgen

    servers = []
    addresses = []
    router = None
    try:
        for _ in range(n_replicas):
            server = PatternServer(
                SnapshotStore(snapshot), ServeConfig(port=0, **serve_kwargs)
            )
            addresses.append(await server.start())
            servers.append(server)
        router = PatternRouter(RouterConfig(replicas=tuple(addresses)))
        host, port = await router.start()
        report = await run_loadgen(
            LoadgenConfig(host=host, port=port, **loadgen_kwargs)
        )
        stats = router.stats()
    finally:
        if router is not None:
            await router.stop()
        for server in servers:
            await server.stop()
    return report, stats


def bench_routed_serving() -> dict:
    """Replica fan-out behind the router vs one direct server.

    ``ROUTER_REPLICAS`` replicas behind a :class:`PatternRouter` against a
    single direct server, identical load at :data:`SERVE_CONCURRENCY`.
    With spare cores, two replicas must beat one server (the >=1.5x
    acceptance bar); on a 1-core box all replicas and the router time-share
    the core, so the ratio measures pure router dispatch overhead instead
    and ``note`` explains the gap.  Router sheds must all be explained
    (zero with healthy replicas and an adequate queue).
    """
    from repro.serve import ServingSnapshot

    dataset = zebranet_dataset(**SERVE_WORKLOAD)
    with tempfile.TemporaryDirectory() as cache_dir:
        snapshot = ServingSnapshot.from_dataset(
            dataset,
            min_prob=ENGINE_MIN_PROB,
            cache_dir=cache_dir,
            source="bench",
        )
        serve_kwargs = dict(
            max_batch=64, max_delay_ms=2.0, max_queue=2048,
            default_timeout_ms=60_000.0,
        )
        load = dict(
            requests=SERVE_REQUESTS,
            concurrency=SERVE_CONCURRENCY,
            op="score",
            measure="nm",
            patterns_per_request=1,
            seed=0,
        )
        single, _ = asyncio.run(_serve_leg(snapshot, serve_kwargs, load))
        routed, router_stats = asyncio.run(
            _routed_leg(snapshot, ROUTER_REPLICAS, serve_kwargs, load)
        )

    assert single["errors"] == 0 and routed["errors"] == 0
    assert routed.get("overloaded", 0) == 0, (
        f"unexplained sheds through the router: {routed}"
    )
    speedup = (
        routed["achieved_qps"] / single["achieved_qps"]
        if single["achieved_qps"] > 0
        else float("inf")
    )
    router = router_stats.get("router", {})
    report = {
        "replicas": ROUTER_REPLICAS,
        "concurrency": SERVE_CONCURRENCY,
        "requests": SERVE_REQUESTS,
        "cpu_count": os.cpu_count(),
        "single": single,
        "routed": routed,
        "throughput_vs_single": speedup,
        "router_overhead_pct": (1.0 / speedup - 1.0) * 100.0 if speedup else 0.0,
        "router": {
            "requests_routed": router.get("requests_routed"),
            "retries": router.get("retries"),
            "sheds": router.get("sheds"),
            "replicas_up": router.get("replicas_up"),
            "per_replica_forwarded": {
                name: entry.get("forwarded")
                for name, entry in (router.get("replicas") or {}).items()
            },
        },
    }
    if speedup < 1.5:
        report["note"] = (
            f"{ROUTER_REPLICAS} replicas reached only {speedup:.2f}x a single "
            f"server: this box has {os.cpu_count()} core(s), so replicas, "
            "router and loadgen time-share the CPU and the ratio measures "
            "router dispatch overhead, not parallel serving capacity"
        )
    return report


def run_serve() -> dict:
    return {
        "generated_by": "repro.bench",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "serve": bench_serve(),
        "routed_serving": bench_routed_serving(),
    }


def run(rounds: int = 3) -> dict:
    dataset = zebranet_dataset(**ENGINE_WORKLOAD)
    grid = dataset.make_grid(ENGINE_CELL_SIZE)
    config = EngineConfig(delta=ENGINE_CELL_SIZE, min_prob=ENGINE_MIN_PROB)

    index_build = bench_index_build(dataset, grid, config, rounds)
    engine = NMEngine(dataset, grid, config)
    candidate_eval = bench_candidate_eval(engine, rounds)
    kernel_backends = bench_kernel_backends(rounds)
    obs_overhead = bench_obs_overhead(engine, rounds)
    mining = bench_mining()
    parallel_scaling = bench_parallel_scaling(rounds)
    index_cache = bench_index_cache(rounds)
    distributed = bench_distributed(rounds)

    return {
        "generated_by": "repro.bench",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rounds": rounds,
        "engine_workload": {
            **ENGINE_WORKLOAD,
            "cell_size": ENGINE_CELL_SIZE,
            "min_prob": ENGINE_MIN_PROB,
        },
        "mining_workload": {
            **MINING_WORKLOAD,
            "target_cells": MINING_TARGET_CELLS,
            "k": MINING_K,
        },
        "index_build": index_build,
        "candidate_eval": candidate_eval,
        "kernel_backends": kernel_backends,
        "obs_overhead": obs_overhead,
        "mining": mining,
        "parallel_scaling": parallel_scaling,
        "index_cache": index_cache,
        "distributed": distributed,
    }


def _repo_root() -> Path:
    """Nearest ancestor with a pyproject.toml (fallback: the working dir)."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return Path.cwd()


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=_repo_root(),
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _load_history(output: Path) -> list:
    """History entries from a previous report file, tolerating old formats."""
    if not output.exists():
        return []
    try:
        previous = json.loads(output.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    history = previous.get("history")
    if isinstance(history, list):
        return history
    # Pre-history report: preserve it as the first entry rather than drop it.
    previous.pop("history", None)
    return [{"git_sha": "unknown", "timestamp": None, "report": previous}]


def _host_fingerprint() -> dict:
    """What makes perf numbers comparable: the machine and the runtime."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _write_report(output: Path, report: dict) -> int:
    """Append ``report`` to ``output``'s history and rewrite the file.

    History entries carry the bench process's own ``peak_rss_bytes``, a
    ``host`` fingerprint (cpu count, platform, python version -- perf
    deltas against an entry from a different machine are noise, and the
    bench warns when the newest entries straddle hosts), and -- when the
    report has a ``columnar_store`` section -- the RSS-demo
    ``dataset_bytes``.  All keys are additive: old entries without them
    stay valid.
    """
    from repro.obs.manifest import peak_rss_bytes

    history = _load_history(output)
    entry = {
        "git_sha": _git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "peak_rss_bytes": peak_rss_bytes(),
        "host": _host_fingerprint(),
        "report": report,
    }
    if history:
        previous_host = history[-1].get("host")
        if previous_host is not None and previous_host != entry["host"]:
            print(
                f"warning: previous {output.name} entry was recorded on a "
                f"different host ({previous_host}); numbers are not "
                f"comparable with this run's ({entry['host']})"
            )
    rss = report.get("columnar_store", {}).get("rss") if isinstance(
        report.get("columnar_store"), dict
    ) else None
    if rss:
        entry["dataset_bytes"] = rss.get("dataset_bytes")
    history.append(entry)
    output.write_text(
        json.dumps({**report, "history": history}, indent=2) + "\n",
        encoding="utf-8",
    )
    return len(history)


def _print_serve(sv: dict) -> None:
    batched, naive, overload = sv["batched"], sv["naive"], sv["overload"]
    print(f"serve batched:  {batched['achieved_qps']:.0f} req/s "
          f"p99 {batched['latency']['p99_ms']:.1f}ms  "
          f"(batches of up to {batched['batcher']['max_batch_size']})")
    print(f"serve naive:    {naive['achieved_qps']:.0f} req/s "
          f"p99 {naive['latency']['p99_ms']:.1f}ms  "
          f"-> batching {sv['batching_speedup']:.1f}x")
    print(f"serve overload: {overload['target_qps']:.0f} req/s offered, "
          f"{overload['ok']} ok / {overload['overloaded']} shed "
          f"({overload['shed_fraction']:.0%}), "
          f"admitted p99 {overload['latency']['p99_ms']:.1f}ms")
    telemetry = sv.get("telemetry")
    if telemetry:
        print(f"serve telemetry: {telemetry['achieved_qps']:.0f} req/s "
              f"with tracing+metrics+exporter "
              f"({sv['telemetry_overhead_pct']:+.1f}% median of "
              f"{telemetry['abba_blocks']} ABBA blocks, "
              f"{telemetry['spans_emitted']} spans, "
              f"{telemetry['exported_records']} exports)")
    wire = sv.get("wire_traced")
    if wire:
        print(f"serve wire-traced: {wire['achieved_qps']:.0f} req/s "
              f"with a trace-propagating loadgen in-process "
              f"({wire['spans_emitted']} client+server spans, "
              f"informational)")


def _print_kernels(kb: dict) -> None:
    for key, entry in kb["backends"].items():
        print(
            f"kernels {key:>16s}: build {entry['index_build_s']:.3f}s "
            f"({entry['index_entries_per_s']:.0f} entries/s)  "
            f"eval {entry['eval_candidates_per_s']:.0f}/s  "
            f"gap {entry['gap_evals_per_s']:.0f}/s"
        )
    if "compiled_vs_numpy_eval_speedup" in kb:
        print(
            f"kernels compiled vs numpy: "
            f"eval {kb['compiled_vs_numpy_eval_speedup']:.1f}x  "
            f"gap {kb['compiled_vs_numpy_gap_speedup']:.1f}x"
        )
    else:
        print(f"kernels compiled: unavailable "
              f"({kb.get('compiled_unavailable_reason', 'unknown')})")


def _print_store(cs: dict) -> None:
    print(
        f"store open:     jsonl load {cs['jsonl_load_s'] * 1e3:.1f}ms  "
        f"warm open {cs['warm_open_s'] * 1e3:.2f}ms  "
        f"({cs['open_speedup_vs_jsonl']:.0f}x)"
    )
    sizes = "  ".join(
        f"{name} {entry['size_bytes'] / 1024:.0f}KiB"
        for name, entry in cs["formats"].items()
    )
    print(f"store sizes:    jsonl {cs['jsonl_bytes'] / 1024:.0f}KiB  {sizes}")
    print(
        f"store scan:     {cs['scan_rows_per_s']:.0f} rows/s  "
        f"engine build ram {cs['engine_build_ram_s']:.3f}s / "
        f"store {cs['engine_build_store_s']:.3f}s"
    )
    rss = cs["rss"]
    print(
        f"store rss:      {rss['dataset_bytes'] / 2**20:.0f}MiB dataset "
        f"({rss['dataset_to_budget_ratio']:.1f}x budget), sharded mine "
        f"parent peak {rss['peak_rss_bytes'] / 2**20:.0f}MiB "
        f"(children {rss['peak_rss_children_bytes'] / 2**20:.0f}MiB) "
        f"{'UNDER' if rss['under_budget'] else 'OVER'} "
        f"{rss['budget_bytes'] / 2**20:.0f}MiB budget, "
        f"{rss['mine_wall_s']:.0f}s wall"
    )


def _print_dist(dist: dict) -> None:
    base = dist["parallel_baseline"]
    legs = "  ".join(
        f"{n}p {entry['eval_s'] * 1e3:.0f}ms"
        f" ({entry['dispatch_overhead_vs_parallel']:.2f}x)"
        for n, entry in dist["pools"].items()
    )
    print(
        f"distributed:    parallel[{dist['jobs']}] eval "
        f"{base['eval_s'] * 1e3:.0f}ms; loopback pools eval/overhead: {legs}"
        f"  (bit-identical)"
    )


def _print_routed(rs: dict) -> None:
    print(
        f"routed serving: {rs['replicas']} replicas "
        f"{rs['routed']['achieved_qps']:.0f} req/s vs single "
        f"{rs['single']['achieved_qps']:.0f} req/s "
        f"({rs['throughput_vs_single']:.2f}x, cpus {rs['cpu_count']})"
    )
    if rs.get("note"):
        print(f"                note: {rs['note']}")


def _print_engine(report: dict) -> None:
    ib, ce, mi = report["index_build"], report["candidate_eval"], report["mining"]
    print(f"index build:    scalar {ib['scalar_s']:.3f}s  "
          f"vectorised {ib['vectorised_s']:.3f}s  ({ib['speedup']:.1f}x)")
    print(f"candidate eval: scalar {ce['scalar_candidates_per_s']:.0f}/s  "
          f"batched {ce['batched_candidates_per_s']:.0f}/s  ({ce['speedup']:.1f}x)")
    _print_kernels(report["kernel_backends"])
    print(f"mining:         {mi['wall_time_s']:.3f}s wall, "
          f"{mi['candidates_evaluated']} candidates in {mi['eval_batches']} batches")
    oo = report["obs_overhead"]
    print(f"obs overhead:   off {oo['disabled_candidates_per_s']:.0f}/s  "
          f"on {oo['enabled_candidates_per_s']:.0f}/s  "
          f"({oo['enabled_overhead_pct']:+.1f}%)")
    ps, ic = report["parallel_scaling"], report["index_cache"]
    scaling = "  ".join(
        f"{jobs}w {entry['build_s']:.2f}s/{entry['eval_s'] * 1e3:.0f}ms"
        for jobs, entry in ps["workers"].items()
    )
    print(f"parallel:       cpus {ps['cpu_count']}, serial build "
          f"{ps['serial']['build_s']:.2f}s, build/eval per workers: {scaling}")
    print(f"index cache:    cold {ic['cold_build_s']:.3f}s  "
          f"warm {ic['warm_load_s']:.3f}s  ({ic['speedup']:.1f}x)")
    if "distributed" in report:
        _print_dist(report["distributed"])


def _existing_sections(output: Path) -> dict:
    """The top-level sections of a previous report file, minus history."""
    if not output.exists():
        return {}
    try:
        loaded = json.loads(output.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(loaded, dict):
        return {}
    return {k: v for k, v in loaded.items() if k != "history"}


def run_suites(
    suite: str = "all",
    output_dir: str | Path | None = None,
    rounds: int = 3,
) -> int:
    """The ``repro bench`` entry point; returns a process exit code.

    ``engine`` runs the full engine report (kernel backends included) into
    ``BENCH_engine.json``; ``kernels`` runs only the backend comparison
    and merges its ``kernel_backends`` section into ``BENCH_engine.json``
    (fast iteration loop); ``serve`` writes
    ``BENCH_serve.json``; ``store`` runs the columnar-store suite (format
    economics + the out-of-core RSS demonstration) and merges its
    ``columnar_store`` section into ``BENCH_engine.json`` without
    re-running the engine benches; ``dist`` likewise runs only the
    distributed-dispatch comparison (merged into ``BENCH_engine.json``)
    plus the routed-serving leg (merged into ``BENCH_serve.json``);
    ``incremental`` runs the append-vs-rebuild and warm-mining comparison
    and merges its ``incremental`` section into ``BENCH_engine.json``;
    ``all`` = engine + store + serve (both of which now include the
    distributed sections).
    """
    valid = ("all", "engine", "kernels", "serve", "store", "dist", "incremental")
    if suite not in valid:
        raise ValueError(f"unknown bench suite {suite!r}")
    base = Path(output_dir) if output_dir is not None else _repo_root()
    base.mkdir(parents=True, exist_ok=True)

    if suite == "kernels":
        # Same merge discipline as ``store``/``dist``: refresh only this
        # section of the engine report.
        output = base / "BENCH_engine.json"
        report = {
            **_existing_sections(output),
            "generated_by": "repro.bench",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel_backends": bench_kernel_backends(rounds),
        }
        n = _write_report(output, report)
        _print_kernels(report["kernel_backends"])
        print(f"wrote {output} ({n} history entries)")
        return 0

    if suite in ("all", "serve"):
        serve_report = run_serve()
        output = base / "BENCH_serve.json"
        n = _write_report(output, serve_report)
        _print_serve(serve_report["serve"])
        _print_routed(serve_report["routed_serving"])
        print(f"wrote {output} ({n} history entries)")
    store_section = run_store(rounds) if suite in ("all", "store") else None
    if suite in ("all", "engine"):
        report = run(rounds=rounds)
        if store_section is not None:
            report.update(store_section)
        output = base / "BENCH_engine.json"
        n = _write_report(output, report)
        _print_engine(report)
        if store_section is not None:
            _print_store(report["columnar_store"])
        print(f"wrote {output} ({n} history entries)")
    elif suite == "store":
        # Merge into the existing engine report's top level so the file
        # keeps describing the latest state of every section.
        output = base / "BENCH_engine.json"
        report = {
            **_existing_sections(output),
            "generated_by": "repro.bench",
            "python": platform.python_version(),
            "numpy": np.__version__,
            **store_section,
        }
        n = _write_report(output, report)
        _print_store(report["columnar_store"])
        print(f"wrote {output} ({n} history entries)")
    elif suite == "incremental":
        # Same merge discipline as ``store``/``dist``: refresh only this
        # section of the engine report.
        inc_section = run_incremental(rounds)
        output = base / "BENCH_engine.json"
        report = {
            **_existing_sections(output),
            "generated_by": "repro.bench",
            "python": platform.python_version(),
            "numpy": np.__version__,
            **inc_section,
        }
        n = _write_report(output, report)
        _print_incremental(report["incremental"])
        print(f"wrote {output} ({n} history entries)")
    elif suite == "dist":
        # Fast iteration on the distributed sections alone: merge the
        # dispatch comparison into the engine report and the routed leg
        # into the serving report, re-running neither full suite.
        dist_section = run_dist(rounds)
        output = base / "BENCH_engine.json"
        report = {
            **_existing_sections(output),
            "generated_by": "repro.bench",
            "python": platform.python_version(),
            "numpy": np.__version__,
            **dist_section,
        }
        n = _write_report(output, report)
        _print_dist(report["distributed"])
        print(f"wrote {output} ({n} history entries)")

        routed = bench_routed_serving()
        output = base / "BENCH_serve.json"
        report = {
            **_existing_sections(output),
            "generated_by": "repro.bench",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "routed_serving": routed,
        }
        n = _write_report(output, report)
        _print_routed(routed)
        print(f"wrote {output} ({n} history entries)")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=_repo_root() / "BENCH_engine.json",
        help="where to write the engine JSON report (default: repo root)",
    )
    parser.add_argument(
        "--serve-output",
        type=Path,
        default=_repo_root() / "BENCH_serve.json",
        help="where to write the serving JSON report (default: repo root)",
    )
    parser.add_argument(
        "--sections",
        default="engine,serve",
        help="comma-separated sections to run: engine, serve, store, dist",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds per measurement"
    )
    args = parser.parse_args()
    sections = {s.strip() for s in args.sections.split(",") if s.strip()}
    unknown = sections - {"engine", "serve", "store", "dist"}
    if unknown:
        parser.error(f"unknown sections: {sorted(unknown)}")

    if "serve" in sections:
        serve_report = run_serve()
        n = _write_report(args.serve_output, serve_report)
        _print_serve(serve_report["serve"])
        _print_routed(serve_report["routed_serving"])
        print(f"wrote {args.serve_output} ({n} history entries)")
    if "engine" in sections:
        report = run(rounds=args.rounds)
        n_entries = _write_report(args.output, report)
        _print_engine(report)
        print(f"wrote {args.output} ({n_entries} history entries)")
    if "store" in sections:
        # Runs after (or without) the engine section; merges the
        # ``columnar_store`` section into the same report file.
        run_suites(
            suite="store", output_dir=args.output.parent, rounds=args.rounds
        )
    if "dist" in sections and "engine" not in sections:
        # The engine section already includes the distributed comparison;
        # standalone, merge it (and the routed leg) into the reports.
        run_suites(
            suite="dist", output_dir=args.output.parent, rounds=args.rounds
        )


if __name__ == "__main__":
    main()
