"""Record ``BENCH_engine.json`` and ``BENCH_serve.json`` from repeated runs.

Usage, from the repository root (no options)::

    python3 benchmarks/record.py

Runs ``benchmarks/e2e/run.py --trace 1`` on every workload of
``BENCHMARK.json``, for seeds 0-4 at the spec's ``run_seconds``, then the
three suites that a two-core host cannot show end to end: parallel
scaling, loopback worker-pool dispatch and routed serving, each as five
interleaved rounds.  Every number is written as its median, quartiles,
sample count and unit; the quartiles are ``statistics.quantiles(n=4)``,
as ``benchmarks/e2e/compare.py`` computes them.  Each file carries one
git SHA, a timestamp and a host fingerprint.  ``BENCH_engine.json``
takes the ``mine-*`` workloads, parallel scaling and dispatch;
``BENCH_serve.json`` takes the ``serve-*`` workloads and routed serving.
A run whose output check fails raises before either file is written.
The files keep no history of their own: git keeps it.

Importing this module imports nothing from ``repro``; each suite imports
the program when it runs, so tests can load the module by path.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(5)
ROUNDS = 5

#: The suites' herd: large enough that the index build amortises pool
#: start-up, small enough that eight workers fit on a laptop.
HERD = dict(n_trajectories=120, n_ticks=80, sigma=0.01, seed=7)
CELL_SIZE = 0.02
MIN_PROB = 1e-4
PARALLEL_JOBS = (1, 2, 4, 8)
PARALLEL_N_CANDIDATES = 400
#: Dispatch is compared at one span width, so every pool count is judged
#: against the same-width fork-pool engine, whose results it must match
#: bit for bit; the difference is the socket hop alone.
DIST_POOLS = (1, 2, 4)
DIST_JOBS = 4
DIST_N_CANDIDATES = 200
ROUTER_REPLICAS = 2
SERVE_KWARGS = dict(max_batch=64, max_delay_ms=2.0, max_queue=2048, default_timeout_ms=60_000.0)
SERVE_LOAD = dict(
    requests=640, concurrency=32, op="score", measure="nm", patterns_per_request=1, seed=0
)


# -- summaries ----------------------------------------------------------------


def summarise(values: list[float], unit: str) -> dict:
    """Median, quartiles, sample count and unit of one number's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


class Samples:
    """Samples of named numbers, grouped by leg: ``{leg: {number: summary}}``."""

    def __init__(self) -> None:
        self._values: dict[str, dict[str, tuple[str, list[float]]]] = {}

    def add(self, leg: str, number: str, value: float, unit: str) -> None:
        self._values.setdefault(leg, {}).setdefault(number, (unit, []))[1].append(value)

    def summary(self) -> dict:
        return {
            leg: {name: summarise(values, unit) for name, (unit, values) in numbers.items()}
            for leg, numbers in self._values.items()
        }


# -- the end-to-end workloads -------------------------------------------------


def run_e2e(workload: str, seed: int, seconds: float) -> str:
    """Standard output of one traced ``run.py`` run."""
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )  # fmt: skip
    if not proc.stdout.strip():
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return proc.stdout


def parse_run(stdout: str, workload: str) -> dict[str, tuple[float, str]]:
    """``{metric: (value, unit)}`` of one run: its printed lines and its JSON.

    Raises when the run's output check failed.
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: an output check failed\n{stdout}")
    metrics = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            metrics[fields[1]] = (float(fields[2]), fields[3])
    metrics.update({name: (m["value"], m["unit"]) for name, m in result["metrics"].items()})
    return metrics


def e2e_workloads(spec: dict, run=run_e2e) -> dict:
    """``{workload: {metric: summary}}`` over :data:`SEEDS`, seeds outermost."""
    samples = Samples()
    for seed in SEEDS:
        for workload in spec["workloads"]:
            name = workload["name"]
            for metric, (value, unit) in parse_run(
                run(name, seed, spec["run_seconds"]), name
            ).items():
                samples.add(name, metric, value, unit)
    return samples.summary()


# -- suites a two-core host cannot show end to end ----------------------------


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise RuntimeError(message)


def _engine_inputs():
    from repro.core.engine import EngineConfig
    from repro.experiments.datasets import zebranet_dataset

    dataset = zebranet_dataset(**HERD)
    return dataset, dataset.make_grid(CELL_SIZE), EngineConfig(delta=CELL_SIZE, min_prob=MIN_PROB)


def _candidates(engine, n: int, seed: int = 11) -> list:
    import numpy as np

    from repro.core.pattern import TrajectoryPattern

    rng = np.random.default_rng(seed)
    cells = engine.active_cells
    return [
        TrajectoryPattern(tuple(int(c) for c in rng.choice(cells, size=rng.integers(2, 6))))
        for _ in range(n)
    ]


def _evaluate(engine, candidates) -> tuple[float, object]:
    """Seconds of one ``nm_batch`` after an untimed first call, and its values."""
    engine.nm_batch(candidates)
    return _timed(lambda: engine.nm_batch(candidates))


def parallel_scaling(rounds: int = ROUNDS) -> dict:
    """Sharded build and frontier evaluation at 1/2/4/8 workers, and serial.

    Every round builds each configuration afresh, in turn.  Results must be
    allclose to the serial engine's, with equal entry counts.  A speed-up
    needs as many cores as workers: ``host.cpu_count`` gives this host's.
    """
    import numpy as np

    from repro.core.engine import NMEngine
    from repro.core.parallel import ParallelNMEngine

    dataset, grid, config = _engine_inputs()
    samples = Samples()
    for _ in range(rounds):
        build_s, serial = _timed(lambda: NMEngine(dataset, grid, config))
        candidates = _candidates(serial, PARALLEL_N_CANDIDATES)
        eval_s, reference = _evaluate(serial, candidates)
        samples.add("serial", "build_s", build_s, "s")
        samples.add("serial", "eval_s", eval_s, "s")
        for jobs in PARALLEL_JOBS:
            build_s, engine = _timed(lambda: ParallelNMEngine(dataset, grid, config, jobs=jobs))
            try:
                eval_s, values = _evaluate(engine, candidates)
                _check(np.allclose(values, reference, atol=1e-9), f"{jobs} workers: NM differs")
                _check(
                    engine.n_index_entries == serial.n_index_entries,
                    f"{jobs} workers: index entry count differs",
                )
            finally:
                engine.close()
            if jobs == 1:
                one_worker_s = eval_s
            leg = f"{jobs}_workers"
            samples.add(leg, "build_s", build_s, "s")
            samples.add(leg, "eval_s", eval_s, "s")
            samples.add(leg, "eval_speedup_vs_1worker", one_worker_s / eval_s, "ratio")
    return {
        "workload": {**HERD, "cell_size": CELL_SIZE, "min_prob": MIN_PROB},
        "n_candidates": PARALLEL_N_CANDIDATES,
        **samples.summary(),
    }


def distributed(rounds: int = ROUNDS) -> dict:
    """Loopback worker-pool dispatch against the same-width fork-pool engine.

    Every round evaluates one frontier on the fork-pool engine at
    :data:`DIST_JOBS` spans, then through 1, 2 and 4 loopback
    ``WorkerPoolServer`` pools over a ``.tjc`` store of the same herd.  The
    pools' results must be bit-identical to the fork pools'.
    """
    from contextlib import ExitStack

    import numpy as np

    from repro.core.parallel import ParallelNMEngine
    from repro.dist.worker import WorkerPoolConfig, WorkerPoolServer
    from repro.storage import open_store, write_store

    dataset, grid, config = _engine_inputs()
    samples = Samples()
    with tempfile.TemporaryDirectory(prefix="repro-record-dist-") as tmp:
        store_path = Path(tmp) / "dataset.tjc"
        write_store(dataset, store_path)
        with open_store(store_path) as store:
            store_dataset = store.dataset()
            for _ in range(rounds):
                build_s, par = _timed(
                    lambda: ParallelNMEngine(dataset, grid, config, jobs=DIST_JOBS)
                )
                try:
                    candidates = _candidates(par, DIST_N_CANDIDATES)
                    par_eval_s, reference = _evaluate(par, candidates)
                finally:
                    par.close()
                samples.add("fork_pools", "build_s", build_s, "s")
                samples.add("fork_pools", "eval_s", par_eval_s, "s")
                for n_pools in DIST_POOLS:
                    with ExitStack() as stack:
                        specs = []
                        for i in range(n_pools):
                            server = stack.enter_context(
                                WorkerPoolServer(
                                    WorkerPoolConfig(store_path=str(store_path), name=f"record-{i}")
                                )
                            )
                            specs.append(f"{server.config.host}:{server.port}")
                        build_s, engine = _timed(
                            lambda: stack.enter_context(
                                ParallelNMEngine(
                                    store_dataset, grid, config, pools=specs, jobs=DIST_JOBS
                                )
                            )
                        )
                        eval_s, values = _evaluate(engine, candidates)
                    _check(
                        np.array_equal(values, reference),
                        f"{n_pools} pools: not bit-identical to the same-width fork pools",
                    )
                    leg = f"{n_pools}_pools"
                    samples.add(leg, "build_s", build_s, "s")
                    samples.add(leg, "eval_s", eval_s, "s")
                    overhead = eval_s / par_eval_s
                    samples.add(leg, "dispatch_overhead_vs_fork_pools", overhead, "ratio")
    return {
        "workload": {**HERD, "cell_size": CELL_SIZE, "min_prob": MIN_PROB},
        "jobs": DIST_JOBS,
        "n_candidates": DIST_N_CANDIDATES,
        **samples.summary(),
    }


async def _serve_leg(snapshot, replicas: int) -> tuple[dict, dict | None]:
    """One closed-loop load against one server, or ``replicas`` behind a router.

    Returns the load generator's report and the router's stats.
    """
    from repro.dist.router import PatternRouter, RouterConfig
    from repro.serve import LoadgenConfig, PatternServer, ServeConfig, SnapshotStore
    from repro.serve.loadgen import run_loadgen

    servers, addresses, router = [], [], None
    try:
        for _ in range(max(replicas, 1)):
            server = PatternServer(SnapshotStore(snapshot), ServeConfig(port=0, **SERVE_KWARGS))
            addresses.append(await server.start())
            servers.append(server)
        host, port = addresses[0]
        if replicas:
            router = PatternRouter(RouterConfig(replicas=tuple(addresses)))
            host, port = await router.start()
        report = await run_loadgen(LoadgenConfig(host=host, port=port, **SERVE_LOAD))
        return report, router.stats() if router else None
    finally:
        if router is not None:
            await router.stop()
        for server in servers:
            await server.stop()


def routed_serving(rounds: int = ROUNDS) -> dict:
    """:data:`ROUTER_REPLICAS` replicas behind the router against one server.

    Every round drives one direct server, then the routed replicas, with
    the same closed-loop load.  Both legs must answer without errors, and
    the router must shed nothing.  With spare cores the replicas should
    outrun one server; on a host with fewer cores than replicas, router and
    load generator, the ratio measures the router's dispatch overhead.
    """
    import asyncio

    from repro.experiments.datasets import zebranet_dataset
    from repro.serve import ServingSnapshot

    samples = Samples()
    with tempfile.TemporaryDirectory(prefix="repro-record-serve-") as cache_dir:
        snapshot = ServingSnapshot.from_dataset(
            zebranet_dataset(**HERD), min_prob=MIN_PROB, cache_dir=cache_dir, source="record"
        )
        for _ in range(rounds):
            single, _ = asyncio.run(_serve_leg(snapshot, 0))
            routed, router = asyncio.run(_serve_leg(snapshot, ROUTER_REPLICAS))
            _check(single["errors"] == 0 and routed["errors"] == 0, "serving errors")
            _check(routed.get("overloaded", 0) == 0, f"unexplained router sheds: {router}")
            for leg, report in (("single", single), ("routed", routed)):
                samples.add(leg, "achieved_qps", report["achieved_qps"], "req/s")
                samples.add(leg, "p50_ms", report["latency"]["p50_ms"], "ms")
                samples.add(leg, "p99_ms", report["latency"]["p99_ms"], "ms")
            ratio = routed["achieved_qps"] / single["achieved_qps"]
            samples.add("routed", "throughput_vs_single", ratio, "ratio")
    return {
        "workload": {**HERD, "min_prob": MIN_PROB},
        "replicas": ROUTER_REPLICAS,
        **{k: SERVE_LOAD[k] for k in ("requests", "concurrency")},
        **samples.summary(),
    }


SUITES = (parallel_scaling, distributed, routed_serving)


# -- the files ------------------------------------------------------------------


def git_sha() -> str:
    """The checkout's commit, suffixed ``-dirty`` when tracked files differ."""
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() or "unknown"


def host_fingerprint() -> dict:
    """What makes two recordings comparable: the machine and the runtime."""
    import numpy as np

    from repro.core import kernels

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.resolve_backend("auto").name,
    }


def record(out_dir: Path = ROOT, run=run_e2e, suites=SUITES) -> None:
    """Measure everything, then write both files into ``out_dir``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = e2e_workloads(spec, run)
    suite_results = {suite.__name__: suite(ROUNDS) for suite in suites}
    stamp = {
        "recorded_by": "benchmarks/record.py",
        "git_sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": host_fingerprint(),
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "rounds": ROUNDS,
    }
    files = {
        "BENCH_engine.json": ("mine-", ("parallel_scaling", "distributed")),
        "BENCH_serve.json": ("serve-", ("routed_serving",)),
    }
    for name, (prefix, suite_names) in files.items():
        report = {
            **stamp,
            "workloads": {w: m for w, m in workloads.items() if w.startswith(prefix)},
            **{s: suite_results[s] for s in suite_names if s in suite_results},
        }
        (out_dir / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out_dir / name}")


def main() -> None:
    # Build outputs stay in the checkout, as run.py keeps them.
    os.environ.setdefault("REPRO_KERNELS_CACHE", str(ROOT / ".bench_build" / "kernels"))
    sys.path.insert(0, str(ROOT / "src"))
    record()


if __name__ == "__main__":
    main()
