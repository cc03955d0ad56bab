"""The differential oracle: every execution path, one frontier, pinned ULPs.

The repo evaluates NM/match through several independent implementations:
the scalar reference (:mod:`repro.core.measures`), the batched
:class:`~repro.core.engine.NMEngine`, sharded
:class:`~repro.core.parallel.ParallelNMEngine` workers, cold- and
warm-cache index loads, out-of-core streaming chunks, engines over
``.tjc`` columnar stores (serial and store-span sharded,
:mod:`repro.storage`), and a live
:class:`~repro.serve.server.PatternServer` round-trip.  The paper's
guarantees hold only if they all agree; this module checks that they do,
for a seeded dataset and a seeded candidate frontier, and pins *how much*
they may disagree in ULPs (units in the last place -- the spacing between
adjacent float64 values).

ULP budgets, not tolerances: paths that merely reorder an exact reduction
(shard sums, chunk sums, the per-window scalar max) are allowed a small
float-associativity budget; paths that should be bit-identical (cache
round-trips, the JSON serve round-trip over the same engine) get a budget
of **zero**, so a single flipped mantissa bit fails the check.  A relative
tolerance would hide exactly the class of bug this oracle exists to catch.

Entry points: :func:`run_oracle` (one seed, one report) drives both the
pytest suite (``tests/test_testkit_oracle.py``) and the ``repro
selfcheck`` CLI command.
"""

from __future__ import annotations

import asyncio
import json
import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core import kernels, measures
from repro.core.engine import NMEngine
from repro.core.incremental import IncrementalIndexer
from repro.core.parallel import ParallelNMEngine
from repro.core.pattern import WILDCARD, TrajectoryPattern
from repro.core.trajpattern import TrajPatternMiner
from repro.trajectory.dataset import TrajectoryDataset
from repro.serve import protocol
from repro.serve.server import PatternServer, ServeConfig
from repro.serve.snapshot import ServingSnapshot, SnapshotStore
from repro.storage import open_as_store, open_store, write_store
from repro.testkit.datasets import DEFAULT_SEEDS, OracleSetup, oracle_setup
from repro.trajectory.io import save_dataset_jsonl

__all__ = [
    "DEFAULT_SEEDS",
    "ULP_BUDGETS",
    "PathCheck",
    "OracleReport",
    "candidate_frontier",
    "max_ulps",
    "run_oracle",
    "ulps_between",
]

#: Maximum allowed ULP distance from the batched-engine baseline, per path.
#:
#: * ``scalar`` re-derives every window max with Python-loop arithmetic in
#:   a different evaluation order than the vectorised engine; the worst
#:   observed disagreement across the default seeds is 64 ULPs, so 4096
#:   (~1e-12 relative) is two orders of magnitude of headroom while still
#:   catching any real divergence.
#: * ``parallel`` and ``streaming`` are exact reductions re-associated
#:   across shards/chunks; observed disagreement is <= 4 ULPs, budget 512.
#: * cache and serve round-trips move bits, not values: zero -- one
#:   flipped mantissa bit anywhere fails the check.
ULP_BUDGETS = {
    "scalar": 4096,
    "parallel": 512,
    "cache-cold": 0,
    "cache-warm": 0,
    "streaming": 512,
    "serve": 0,
    # The columnar store moves bytes, not values: an engine over the
    # store-backed dataset reads back the exact float64 arrays it was
    # written from, so the serial path is bit-identical to the baseline.
    "store": 0,
    # Store-span fork workers shard the same trajectory boundaries as the
    # in-RAM fork workers and reduce in the same order, so each width is
    # compared against *its own* in-RAM parallel run -- also bit-identical
    # (the re-association budget already lives on the ``parallel`` paths).
    "store-parallel": 0,
    # Remote pools get the same span partition and their results take the
    # same flat fold over global span order; the NDJSON wire round-trips
    # float64 exactly (shortest-repr).  Compared against the same-width parallel run:
    # a socket hop must not move a bit, whichever pool computed a span.
    "dist": 0,
    # Kernel-backend paths (``--backends all``).  ``kernel`` covers
    # engines on the compiled backend building their *own* index:
    # compiled Prob kernels use libm ``erf`` (<= 2 ULPs from scipy in
    # probability space), which propagates to a handful of float64 ULPs in
    # the final scores; 4096 keeps the scalar path's headroom policy.  The
    # evaluation kernels themselves are bit-identical over a shared index
    # (pinned at 0 ULPs in tests/test_kernels.py, not here).
    "kernel": 4096,
    # Incremental index maintenance splices already-computed entries into
    # already-sorted arrays -- no value is recomputed, so the index after
    # any append/evict sequence must be *bit-identical* to a from-scratch
    # build over the surviving trajectories, and warm-started mining must
    # return the cold run's exact top-k.
    "incremental": 0,
}

#: ULP distance reported for a NaN-vs-number disagreement (worse than any
#: finite budget, so the check always fails).
_ULPS_INCOMPARABLE = 1 << 63


def _ordered(x: float) -> int:
    """Map a float64 onto integers so ULP distance is plain subtraction.

    The IEEE-754 trick: reinterpret the bits as a signed int64; negative
    floats (sign bit set) order backwards, so reflect them with
    ``-2**63 - bits``.  Adjacent floats map to adjacent integers across
    the whole line, and +0.0 / -0.0 both map to 0.  Python ints carry the
    arithmetic, so nothing overflows.
    """
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(1 << 63) - bits


def ulps_between(a: float, b: float) -> int:
    """ULP distance between two float64 values (0 means bit-identical)."""
    if math.isnan(a) or math.isnan(b):
        return 0 if (math.isnan(a) and math.isnan(b)) else _ULPS_INCOMPARABLE
    return abs(_ordered(float(a)) - _ordered(float(b)))


def max_ulps(a: Sequence[float], b: Sequence[float]) -> int:
    """The worst per-element ULP distance between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return max(
        (ulps_between(float(x), float(y)) for x, y in zip(a, b)), default=0
    )


# -- frontier -----------------------------------------------------------------


def candidate_frontier(
    engine: NMEngine, seed: int, n_patterns: int
) -> list[TrajectoryPattern]:
    """A seeded candidate frontier over the engine's active alphabet.

    Mixes every pattern shape the paths must agree on: singulars (the
    miner's level 1), seeded multi-cell candidates of lengths 2-4 (level-k
    extensions, including repeated cells), and a few wildcard-bearing
    patterns (the serve protocol admits ``-1`` positions, so the oracle
    must too).
    """
    rng = np.random.default_rng(seed * 7919 + 1)
    cells = [int(c) for c in engine.active_cells]
    if not cells:
        raise ValueError("engine has no active cells; dataset/grid mismatch")
    frontier = [TrajectoryPattern((c,)) for c in cells[: max(4, n_patterns // 3)]]
    while len(frontier) < n_patterns:
        length = int(rng.integers(2, 5))
        chosen = [int(c) for c in rng.choice(cells, size=length)]
        if length >= 3 and rng.random() < 0.25:
            chosen[length // 2] = WILDCARD
        frontier.append(TrajectoryPattern(tuple(chosen)))
    return frontier[:n_patterns]


# -- report types -------------------------------------------------------------


@dataclass(frozen=True)
class PathCheck:
    """Agreement of one execution path against the batched baseline.

    ``skipped`` marks a path that could not run on this machine (e.g. the
    compiled backend without a toolchain): it counts as passing but is
    reported loudly with the reason in ``detail`` -- a skip is a notice,
    never a silent pass.
    """

    path: str
    budget_ulps: int
    nm_ulps: int
    match_ulps: int
    detail: str = ""
    skipped: bool = False

    @property
    def ok(self) -> bool:
        if self.skipped:
            return True
        return self.nm_ulps <= self.budget_ulps and self.match_ulps <= self.budget_ulps

    def describe(self) -> str:
        if self.skipped:
            return (
                f"SKIP {self.path:<12s} not run"
                + (f" [{self.detail}]" if self.detail else "")
            )
        status = "ok" if self.ok else "FAIL"
        return (
            f"{status:4s} {self.path:<12s} nm={self.nm_ulps} "
            f"match={self.match_ulps} (budget {self.budget_ulps} ulps)"
            + (f" [{self.detail}]" if self.detail else "")
        )


@dataclass(frozen=True)
class OracleReport:
    """Every path's agreement for one seeded scenario."""

    seed: int
    regime: str
    n_trajectories: int
    n_patterns: int
    checks: tuple[PathCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def describe(self) -> str:
        head = (
            f"seed {self.seed} ({self.regime}): {self.n_trajectories} "
            f"trajectories, {self.n_patterns} candidates"
        )
        return "\n".join([head] + [f"  {c.describe()}" for c in self.checks])


# -- the oracle ---------------------------------------------------------------


def run_oracle(
    seed: int,
    *,
    quick: bool = False,
    jobs_grid: Sequence[int] = (1, 2, 4),
    include_serve: bool = True,
    include_dist: bool = False,
    work_dir: str | Path | None = None,
    budgets: dict[str, int] | None = None,
    backends: str = "default",
) -> OracleReport:
    """Evaluate one seeded frontier through every path and report agreement.

    ``work_dir`` hosts the cache directory and the streaming JSONL file; a
    temporary directory is used (and removed) when it is ``None``.
    ``include_serve=False`` skips the live-server round-trip (the one path
    needing an event loop), for callers already inside one.

    ``include_dist=True`` adds the distributed paths (``repro selfcheck
    --dist``): for each width in ``jobs_grid`` a
    :class:`~repro.core.parallel.ParallelNMEngine` mixing one local fork
    pool with one loopback socket worker pool scores the frontier,
    compared bit-for-bit against the same-width in-RAM parallel run.

    ``backends="all"`` additionally scores the frontier on the compiled
    kernel backend (``repro selfcheck --backends all``): a
    ``kernel[cnative]`` path.  When the machine cannot run it (no compiled
    toolchain) it is reported as an explicit ``kernel[compiled]`` skip,
    never silently dropped.
    """
    if backends not in ("default", "all"):
        raise ValueError(
            f"backends must be 'default' or 'all', got {backends!r}"
        )
    budgets = {**ULP_BUDGETS, **(budgets or {})}
    setup = oracle_setup(seed, quick=quick)
    baseline = NMEngine(setup.dataset, setup.grid, setup.config)
    frontier = candidate_frontier(baseline, seed, 12 if quick else 36)
    nm_ref = np.asarray(baseline.nm_batch(frontier), dtype=np.float64)
    match_ref = np.asarray(baseline.match_batch(frontier), dtype=np.float64)
    if not (np.isfinite(nm_ref).all() and np.isfinite(match_ref).all()):
        raise RuntimeError(f"seed {seed}: baseline produced non-finite scores")

    def check(path: str, nm, match, detail: str = "") -> PathCheck:
        budget = budgets[path.split("[")[0]]
        return PathCheck(
            path=path,
            budget_ulps=budget,
            nm_ulps=max_ulps(nm_ref, nm),
            match_ulps=max_ulps(match_ref, match),
            detail=detail,
        )

    checks: list[PathCheck] = []

    # Path 1: the scalar reference, straight off the paper's equations.
    cfg = setup.config
    scalar_kwargs = dict(
        model=cfg.prob_model, min_log_prob=cfg.min_log_prob
    )
    nm_scalar = [
        measures.nm_pattern_dataset(
            p, setup.dataset, setup.grid, cfg.delta, **scalar_kwargs
        )
        for p in frontier
    ]
    match_scalar = [
        measures.match_pattern_dataset(
            p, setup.dataset, setup.grid, cfg.delta, **scalar_kwargs
        )
        for p in frontier
    ]
    checks.append(check("scalar", nm_scalar, match_scalar))

    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        work = Path(work_dir) if work_dir is not None else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)

        # Paths 2+3: cold cache (build + persist), then warm (pure load).
        cached_cfg = replace(cfg, cache_dir=str(work / "cache"))
        cold = NMEngine(setup.dataset, setup.grid, cached_cfg)
        checks.append(
            check(
                "cache-cold",
                cold.nm_batch(frontier),
                cold.match_batch(frontier),
                detail="hit" if cold.index_cache_hit else "build+persist",
            )
        )
        warm = NMEngine(setup.dataset, setup.grid, cached_cfg)
        detail = "hit" if warm.index_cache_hit else "UNEXPECTED MISS"
        checks.append(
            check(
                "cache-warm",
                warm.nm_batch(frontier),
                warm.match_batch(frontier),
                detail=detail,
            )
        )
        if not warm.index_cache_hit:
            checks[-1] = replace(checks[-1], nm_ulps=_ULPS_INCOMPARABLE)

        # Path 4: sharded workers at every requested width.  Results are
        # kept per width: the store-parallel paths below compare against
        # the *same-width* in-RAM run, where agreement is exact.
        par_results: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for jobs in jobs_grid:
            with ParallelNMEngine(setup.dataset, setup.grid, cfg, jobs=jobs) as par:
                nm_par = np.asarray(par.nm_batch(frontier), dtype=np.float64)
                match_par = np.asarray(par.match_batch(frontier), dtype=np.float64)
                par_results[jobs] = (nm_par, match_par)
                checks.append(
                    check(
                        f"parallel[{jobs}]",
                        nm_par,
                        match_par,
                        detail=f"{par.n_spans} spans",
                    )
                )

        # Path 5: out-of-core streaming -- the inline pool over a JSONL
        # file stream-converted to a store, exactly as `repro score` runs
        # it, forced through three spans.
        stream_path = work / "oracle-dataset.jsonl"
        save_dataset_jsonl(setup.dataset, stream_path)
        with open_as_store(stream_path) as stream_dataset, ParallelNMEngine(
            stream_dataset, setup.grid, cfg, jobs=3, pools=("inline",)
        ) as stream:
            checks.append(
                check(
                    "streaming",
                    stream.nm_batch(frontier),
                    stream.match_batch(frontier),
                    detail=f"{stream.n_spans} spans",
                )
            )

        # Path 5b: incremental index maintenance.  Build over a prefix,
        # fold the remaining trajectories in as two report waves, evict the
        # oldest -- the live engine must agree with a from-scratch build of
        # the surviving dataset bit-for-bit (budget 0), and the CSR arrays
        # themselves must be identical in dtype and bytes.  The frontier is
        # scored on both engines directly (nm_ref covers the *full*
        # dataset, not this one).
        trajs = list(setup.dataset)
        n_base = max(2, len(trajs) - 4)
        n_evict = min(2, n_base - 1)
        base_dataset = TrajectoryDataset(trajs[:n_base])
        indexer = IncrementalIndexer(NMEngine(base_dataset, setup.grid, cfg))
        wave_split = n_base + (len(trajs) - n_base) // 2
        indexer.append(trajs[n_base:wave_split])
        indexer.append(trajs[wave_split:])
        indexer.evict(n_evict)
        live = indexer.engine
        final_dataset = TrajectoryDataset(trajs[n_evict:])
        fresh = NMEngine(final_dataset, setup.grid, cfg)
        arrays_equal = all(
            a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in zip(live.index_csr(), fresh.index_csr())
        )
        inc_check = PathCheck(
            path="incremental",
            budget_ulps=budgets["incremental"],
            nm_ulps=max_ulps(fresh.nm_batch(frontier), live.nm_batch(frontier)),
            match_ulps=max_ulps(
                fresh.match_batch(frontier), live.match_batch(frontier)
            ),
            detail=(
                f"{indexer.appends} appends + {n_evict} evicted; arrays "
                + ("identical" if arrays_equal else "DIVERGED")
            ),
        )
        if not arrays_equal:
            inc_check = replace(inc_check, nm_ulps=_ULPS_INCOMPARABLE)
        checks.append(inc_check)

        # Path 5c: warm-started mining over the incremental engine must
        # return exactly the cold top-k (patterns and NM values) over the
        # same final dataset -- seeding only raises the starting threshold.
        mine_k = 4
        previous = TrajPatternMiner(
            NMEngine(base_dataset, setup.grid, cfg), k=mine_k
        ).mine()
        warm_run = TrajPatternMiner(
            live, k=mine_k, warm_state=previous.warm_state
        ).mine()
        cold_run = TrajPatternMiner(fresh, k=mine_k).mine()
        warm_pairs = [(p.cells, nm) for p, nm in warm_run.as_pairs()]
        cold_pairs = [(p.cells, nm) for p, nm in cold_run.as_pairs()]
        identical = warm_pairs == cold_pairs
        checks.append(
            PathCheck(
                path="incremental[warm-mine]",
                budget_ulps=budgets["incremental"],
                nm_ulps=0 if identical else _ULPS_INCOMPARABLE,
                match_ulps=0,
                detail=(
                    f"warm {warm_run.stats.iterations} vs cold "
                    f"{cold_run.stats.iterations} iterations, "
                    f"{len(previous.warm_state)} seeds"
                    if identical
                    else "top-k DIVERGED"
                ),
            )
        )

        # Paths 6+7: the columnar store.  Writing the dataset to a ``.tjc``
        # file and evaluating over the store-backed (lazy, pread-decoded)
        # dataset must not move a bit; fork workers over store spans must
        # agree bit-for-bit with fork workers over in-RAM slices of the
        # same width.
        store_file = work / "oracle-dataset.tjc"
        write_store(setup.dataset, store_file)
        with open_store(store_file) as store:
            store_dataset = store.dataset()
            store_engine = NMEngine(store_dataset, setup.grid, cfg)
            checks.append(
                check(
                    "store",
                    store_engine.nm_batch(frontier),
                    store_engine.match_batch(frontier),
                    detail=f"{store.positions}/{store.compression}",
                )
            )
            for jobs in jobs_grid:
                with ParallelNMEngine(
                    store_dataset, setup.grid, cfg, jobs=jobs
                ) as spar:
                    nm_ram, match_ram = par_results[jobs]
                    checks.append(
                        PathCheck(
                            path=f"store-parallel[{jobs}]",
                            budget_ulps=budgets["store-parallel"],
                            nm_ulps=max_ulps(nm_ram, spar.nm_batch(frontier)),
                            match_ulps=max_ulps(
                                match_ram, spar.match_batch(frontier)
                            ),
                            detail=f"{spar.n_spans} spans vs parallel[{jobs}]",
                        )
                    )

            # Path 8 (``--dist``): the coordinator over mixed pools -- one
            # local fork pool plus one socket worker pool on loopback -- at
            # every width, against the same-width in-RAM parallel run.  The
            # span partition and the global fold order are the same, so a
            # socket in the middle must not move a bit.
            if include_dist:
                from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer

                with WorkerPoolServer(
                    WorkerPoolConfig(store_path=str(store_file), name="oracle")
                ) as pool_server:
                    pool = f"{pool_server.config.host}:{pool_server.port}"
                    for jobs in jobs_grid:
                        with ParallelNMEngine(
                            store_dataset,
                            setup.grid,
                            cfg,
                            jobs=jobs,
                            pools=["local", pool],
                        ) as dist_engine:
                            nm_ram, match_ram = par_results[jobs]
                            checks.append(
                                PathCheck(
                                    path=f"dist[{jobs}]",
                                    budget_ulps=budgets["dist"],
                                    nm_ulps=max_ulps(
                                        nm_ram, dist_engine.nm_batch(frontier)
                                    ),
                                    match_ulps=max_ulps(
                                        match_ram,
                                        dist_engine.match_batch(frontier),
                                    ),
                                    detail=(
                                        f"{len(dist_engine.pool_names)} pools"
                                        f" vs parallel[{jobs}]"
                                    ),
                                )
                            )

    # Path 6: the compiled kernel backend.  Its engine builds its own index,
    # so the path also exercises the compiled Prob kernel.  An unavailable
    # backend becomes an explicit skip.
    if backends == "all":
        unavailable = kernels.compiled_unavailable_reason()
        if unavailable is not None:
            checks.append(
                PathCheck(
                    path="kernel[compiled]",
                    budget_ulps=0,
                    nm_ulps=0,
                    match_ulps=0,
                    detail=unavailable,
                    skipped=True,
                )
            )
        else:
            eng = NMEngine(
                setup.dataset, setup.grid, replace(cfg, backend="compiled")
            )
            checks.append(
                check(
                    f"kernel[{eng.backend_name}]",
                    eng.nm_batch(frontier),
                    eng.match_batch(frontier),
                )
            )

    # Path 7: a live server round-trip over the baseline engine -- isolates
    # the protocol + batcher + JSON layers, which must not move a bit.
    if include_serve:
        nm_serve, match_serve = _serve_roundtrip(setup, baseline, frontier)
        checks.append(check("serve", nm_serve, match_serve))

    return OracleReport(
        seed=seed,
        regime=setup.regime,
        n_trajectories=len(setup.dataset),
        n_patterns=len(frontier),
        checks=tuple(checks),
    )


def _serve_roundtrip(
    setup: OracleSetup, engine: NMEngine, frontier: Sequence[TrajectoryPattern]
) -> tuple[np.ndarray, np.ndarray]:
    """Score the frontier through a real socket against a live server.

    The snapshot wraps the *baseline* engine, so any disagreement is
    attributable to the serving stack alone (admission, batching, JSON
    encode/decode) -- and JSON round-trips float64 exactly (shortest-repr),
    so the budget is zero.
    """
    snapshot = ServingSnapshot(f"oracle-{setup.seed}", engine)

    async def go() -> tuple[np.ndarray, np.ndarray]:
        server = PatternServer(
            SnapshotStore(snapshot), ServeConfig(default_timeout_ms=None)
        )
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            cells = [[int(c) for c in p.cells] for p in frontier]
            for measure in ("nm", "match"):
                writer.write(
                    protocol.encode(
                        {
                            "op": "score",
                            "id": measure,
                            "measure": measure,
                            "patterns": cells,
                        }
                    )
                )
            await writer.drain()
            values: dict[str, np.ndarray] = {}
            for _ in range(2):
                line = await reader.readline()
                response = json.loads(line)
                if not response.get("ok"):
                    raise RuntimeError(f"serve path failed: {response}")
                values[response["id"]] = np.asarray(
                    response["values"], dtype=np.float64
                )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return values["nm"], values["match"]
        finally:
            await server.stop()

    return asyncio.run(go())
