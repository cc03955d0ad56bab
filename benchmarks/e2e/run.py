"""End-to-end benchmark of ``repro mine`` and ``repro serve``.

Runs the real program as child processes on seeded inputs it generates,
checks every output, and prints each metric by name and unit.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload mine-wide --seed 0 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py --workload all --smoke

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` measures the workload untraced, then again with the layer
wrappers of ``spans.py`` installed, and reports the per-layer metrics
(``layers.py``).  ``--workload all`` runs every workload in turn and
prints each workload's metrics.  ``--smoke`` scales every workload down
to about two seconds of measurement.  The exit code is 1 when an output
check fails and 2 when the program's sources are missing.

Build outputs (the compiled kernel library), temporary files and the
per-run inputs stay under ``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import workloads
from client import WARMUP_S, Client

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: The end-to-end metrics; every workload reports each of them.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MiB")]

#: Offered rates of the serve-score ladder.  The steps between 1000 and
#: 5000 req/s are left out: every step lasts a quarter of ``--seconds``
#: (4 s in a full run), and the knee lies near 7000-9000 req/s on two
#: cores, so the steps worth their run time are 1000, 5000 and up.
LADDER = [1000, *range(5000, 10001, 1000)]
STEPS_PER_RUN = 4
#: A ladder step passes at this p99 with at least this share answered ok.
P99_LIMIT_MS = 20.0
OK_SHARE = 0.999
#: Nominal length of one ``repro mine`` run.  The repeat count of a mine
#: workload is ``--seconds`` over this, whatever the program's speed, so
#: two builds compared at one ``--seconds`` take the fastest of equally
#: many repeats.
MINE_REPEAT_S = 2.5
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Settings:
    seconds: float
    boots: int = 3
    warmup_s: float = WARMUP_S

    @property
    def mine_repeats(self) -> int:
        return max(1, round(self.seconds / MINE_REPEAT_S))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)
    specific: dict = field(default_factory=dict)
    layers: dict | None = None

    @property
    def correct(self) -> bool:
        return not self.errors


# -- child processes ----------------------------------------------------------


class Spawner:
    """The small process (``spawner.py``) that starts and reaps the program."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.live: set[int] = set()

    def request(self, message: dict) -> dict:
        self._proc.stdin.write(json.dumps(message) + "\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        """Kill and reap every program process still running, then exit."""
        for pid in list(self.live):
            _kill(pid)
            self.request({"wait": pid})
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass(frozen=True)
class Bench:
    """What every workload runner needs: settings, a work directory, a spawner."""

    settings: Settings
    work: Path
    spawner: Spawner


class Child:
    """One ``launch.py`` process running a ``repro`` command."""

    def __init__(self, bench: Bench, command, tag: str, *, spans=None, ready=None) -> None:
        self.spawner = bench.spawner
        self.log = bench.work / f"{tag}.log"
        argv = [sys.executable, str(HERE / "launch.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        if ready is not None:
            argv += ["--ready", str(ready)]
        reply = self.spawner.request({"spawn": [*argv, "--", *command], "log": str(self.log)})
        self.pid, self.spawn_ns = reply["pid"], reply["spawn_ns"]
        self.spawner.live.add(self.pid)

    def running(self) -> bool:
        try:
            state = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        return state != "Z"

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> tuple[int, int, float]:
        """``(exit code, exit time ns, peak RSS MiB)``; kills after ``timeout``."""
        timer = threading.Timer(timeout, _kill, (self.pid,))
        timer.start()
        try:
            reply = self.spawner.request({"wait": self.pid})
        finally:
            timer.cancel()
            timer.join()
        self.spawner.live.discard(self.pid)
        # wait4 folds the child's reaped children into ru_maxrss (KiB), so
        # this is the largest process of the tree.
        return reply["code"], reply["exit_ns"], reply["maxrss_kib"] / 1024


def _port(child: Child, timeout: float = CHILD_TIMEOUT_S) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        match = re.search(rb"serving snapshot \S+ on [^\s:]+:(\d+)", child.log.read_bytes())
        if match:
            return int(match.group(1))
        if not child.running():
            break
        time.sleep(0.002)
    raise RuntimeError(f"server did not start: {child.log.read_text(errors='replace')[-2000:]}")


def boot(bench: Bench, snapshot: Path, tag: str, extra=(), spans=None):
    """Cold-start ``repro serve``; set-up ends at the first ``health`` ok."""
    child = Child(bench, ["serve", str(snapshot), "--port", "0", *extra], tag, spans=spans)
    client = Client(_port(child))
    health = client.call({"op": "health"})
    setup_s = (time.monotonic_ns() - child.spawn_ns) / 1e9
    if not health.get("ok"):
        raise RuntimeError(f"health check failed: {health}")
    return child, client, setup_s


def shutdown(child: Child, client: Client) -> float:
    """Stop the server through the protocol; returns its peak RSS in MiB."""
    client.call({"op": "shutdown"})
    client.close()
    code, _, rss = child.wait(60.0)
    if code != 0:
        raise RuntimeError(f"server exited with {code}")
    return rss


# -- mining -------------------------------------------------------------------


def _mine_repeats(bench: Bench, w, store: Path, want, out: Outcome, traced: bool):
    work = bench.work
    runs = []
    for attempt in range(bench.settings.mine_repeats):
        tag = f"{'traced' if traced else 'mine'}-{attempt}"
        output, ready = work / f"{tag}.json", work / f"{tag}.ready"
        spans = work / f"{tag}.spans" if traced else None
        if spans is not None:
            spans.mkdir()
        child = Child(bench, w.command(store, output), tag, spans=spans, ready=ready)
        code, exit_ns, rss = child.wait()
        out.attempted += 1
        if code != 0 or not ready.exists():
            out.failed += 1
            continue
        mine_s = (exit_ns - child.spawn_ns) / 1e9
        if not workloads.same_topk(workloads.read_topk(output), want):
            out.errors.append(f"{w.name} {tag}: top-k differs from the serial reference")
        run = {
            "setup_s": (int(ready.read_text()) - child.spawn_ns) / 1e9,
            "mine_s": mine_s,
            "peak_rss_mb": rss,
        }
        if traced:
            run["layers"] = layers.mine_layers(spans, child.pid, exit_ns, mine_s)
        runs.append(run)
    if not runs:
        raise RuntimeError(f"{w.name}: every repro mine run failed")
    return runs


def run_mine(bench: Bench, w, seed: int, traced: bool) -> Outcome:
    """Repeated ``repro mine`` runs; the mine time is the fastest repeat.

    Every repeat does the same deterministic work, so time above the
    fastest repeat is interference from outside the program.  On a
    shared two-core host that interference comes in phases: over ten
    runs of ``mine-deep`` the median repeat had an interquartile range of
    16% of its median, the fastest repeat 10%.
    """
    store = workloads.write_store(w, seed, bench.work / "herd.tjc")
    want = workloads.mine_reference(w, store)
    out = Outcome()
    runs = _mine_repeats(bench, w, store, want, out, traced=False)
    fastest = min(runs, key=lambda r: r["mine_s"])
    out.e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    out.specific = {"mine_s": fastest["mine_s"]}
    if traced:
        traced_runs = _mine_repeats(bench, w, store, want, out, traced=True)
        breakdown = min(traced_runs, key=lambda r: r["mine_s"])
        out.layers = breakdown["layers"]
        out.layers["trace_overhead_pct"] = 100.0 * (
            breakdown["mine_s"] / fastest["mine_s"] - 1.0
        )
    return out


# -- serving ------------------------------------------------------------------


def _batcher_stats(client: Client) -> dict:
    return client.call({"op": "stats"})["stats"]["batcher"]


def _batch_layers(before: dict, after: dict) -> dict:
    batches = max(after["batches"] - before["batches"], 1)
    closed = {k: after["closed_on"][k] - before["closed_on"][k] for k in after["closed_on"]}
    return {
        "batcher.mean_batch": (after["items"] - before["items"]) / batches,
        "batcher.closed_delay_frac": closed["delay"] / batches,
        "batcher.closed_size_frac": closed["size"] / batches,
        "batcher.closed_boundary_frac": closed["boundary"] / batches,
        "batcher.shed": sum(after["shed"].values()) - sum(before["shed"].values()),
    }


def _rate_schedule(rate: float, seconds: float, make) -> list:
    return [(i / rate, make()) for i in range(max(1, int(rate * seconds)))]


def _passes(step) -> bool:
    ok_share = 1.0 - step.failed / len(step)
    return (
        step.valid
        and step.percentile(99) <= P99_LIMIT_MS
        and ok_share >= OK_SHARE
        and not step.growing_backlog
    )


def _read_layers(directory: Path, step, mask) -> dict:
    reads = {
        int(i): int(latency * 1e6)
        for i, latency in zip(step.ids[mask], step.latency_ms[mask])
    }
    window = (int(step.due.min()), int(step.done.max()))
    return layers.serve_layers(directory, reads, window)


def _check_scores(step, snapshot, out: Outcome) -> None:
    """Served NM values equal ``nm_batch`` of the same patterns, bit for bit."""
    from repro.core.pattern import TrajectoryPattern

    indices = sorted(step.responses)
    patterns = [step.requests[i]["patterns"][0] for i in indices]
    want = snapshot.engine.nm_batch([TrajectoryPattern(tuple(p)) for p in patterns])
    got = [step.responses[i]["values"][0] for i in indices if step.responses[i].get("ok")]
    if len(got) != len(indices) or list(map(float, want)) != got:
        out.errors.append("serve-score: served NM differs from nm_batch")


def run_score(bench: Bench, w, seed: int, traced: bool) -> Outcome:
    from repro.serve import ServingSnapshot

    settings, work = bench.settings, bench.work
    snapshot_dir = workloads.write_serve_snapshot(w, seed, work / "snapshot")
    local = ServingSnapshot.load(snapshot_dir)
    cells = np.asarray(local.engine.active_cells)
    rng = workloads.stream(seed, 1)

    def request():
        return workloads.score_request(rng, cells)

    step_s = settings.seconds / STEPS_PER_RUN
    out = Outcome()
    setups = []
    for b in range(settings.boots):
        child, client, setup_s = boot(bench, snapshot_dir, f"serve-{b}")
        setups.append(setup_s)
        out.attempted += 1
        if b < settings.boots - 1:
            shutdown(child, client)
    client.run(_rate_schedule(1000, settings.warmup_s, request))
    steps = {}
    for rate in LADDER:
        steps[rate] = client.run(
            _rate_schedule(rate, step_s, request), keep=lambda op: rate == 1000
        )
        if not _passes(steps[rate]):
            break
    if 5000 not in steps:
        steps[5000] = client.run(_rate_schedule(5000, step_s, request))
    rss = shutdown(child, client)

    max_rps = max((rate for rate, step in steps.items() if _passes(step)), default=0)
    for rate, step in steps.items():
        # Steps above the highest passing rate probe overload; their
        # failures end the ladder and are not counted as failed work.
        if rate <= max_rps or rate == 1000:
            out.attempted += len(step)
            out.failed += step.failed
    r1000, r5000 = steps[1000], steps[5000]
    _check_scores(r1000, local, out)
    out.e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": rss}
    out.specific = {
        "score_p50_ms.r1000": r1000.percentile(50),
        "score_p99_ms.r1000": r1000.percentile(99),
        "score_p50_ms.r5000": r5000.percentile(50),
        "score_p99_ms.r5000": r5000.percentile(99),
        "max_rps": float(max_rps),
    }
    if traced:
        spans = work / "serve.spans"
        spans.mkdir()
        child, client, _ = boot(bench, snapshot_dir, "serve-traced", spans=spans)
        client.run(_rate_schedule(1000, settings.warmup_s, request))
        before = _batcher_stats(client)
        step = client.run(_rate_schedule(1000, step_s, request), keep=lambda op: True)
        batch = _batch_layers(before, _batcher_stats(client))
        shutdown(child, client)
        out.attempted += len(step)
        out.failed += step.failed
        _check_scores(step, local, out)
        out.layers = _read_layers(spans, step, step.mask("score"))
        out.layers.update(batch)
        out.layers.update(
            {
                "client.gen_late_ms.p99": max(s.late_p99_ms for s in steps.values()),
                "client.backlog_max": max(s.backlog_max for s in steps.values()),
                "trace_overhead_pct": 100.0 * (step.percentile(50) / r1000.percentile(50) - 1),
            }
        )
    return out


def _ingest_schedule(w, seconds: float, rng, cells, reports, waves) -> list:
    schedule = []
    for i in range(int(w.read_rate * seconds)):
        if i % 2 == 0:
            request = workloads.score_request(rng, cells, n_patterns=4)
        else:
            request = workloads.predict_request(rng, reports)
        schedule.append((i / w.read_rate, request))
    for i, wave in enumerate(waves):
        schedule.append(((i + 0.5) * seconds / len(waves), {"op": "ingest", "reports": wave}))
    return sorted(schedule, key=lambda item: item[0])


def _ingest_session(bench, w, snapshot_dir, tag, schedule, warmup, want, out, spans=None):
    """Boot, warm up, run the read/ingest schedule and check the last top-k.

    Returns the step, set-up time, peak RSS and the batcher counters of
    the schedule.
    """
    child, client, setup_s = boot(bench, snapshot_dir, tag, w.serve_flags(), spans=spans)
    client.run(warmup)
    before = _batcher_stats(client)
    step = client.run(schedule, drain_s=10.0, keep=lambda op: op == "ingest")
    batch = _batch_layers(before, _batcher_stats(client))
    rss = shutdown(child, client)
    acks = [step.responses.get(i, {}) for i in range(len(step)) if step.ops[i] == "ingest"]
    if not all(a.get("ok") and a.get("republished") for a in acks):
        out.errors.append(f"serve-ingest {tag}: an ingest wave was not republished")
    elif [(tuple(e["cells"]), float(e["nm"])) for e in acks[-1]["top_k"]] != want:
        out.errors.append(f"serve-ingest {tag}: republished top-k != from-scratch mine")
    return step, setup_s, rss, batch


def run_ingest(bench: Bench, w, seed: int, traced: bool) -> Outcome:
    from repro.serve import ServingSnapshot

    settings, work = bench.settings, bench.work
    snapshot_dir, reports, waves = workloads.ingest_inputs(w, seed, work / "snapshot")
    local = ServingSnapshot.load(snapshot_dir)
    want = workloads.ingest_reference(local, reports, waves, w.k)
    cells = np.asarray(local.engine.active_cells)
    rng = workloads.stream(seed, 2)
    warmup = _ingest_schedule(w, settings.warmup_s, rng, cells, reports, [])
    schedule = _ingest_schedule(w, settings.seconds, rng, cells, reports, waves)

    out = Outcome()
    setups = []
    for b in range(settings.boots - 1):
        child, client, setup_s = boot(bench, snapshot_dir, f"ingest-{b}", w.serve_flags())
        setups.append(setup_s)
        out.attempted += 1
        shutdown(child, client)
    step, setup_s, rss, _ = _ingest_session(
        bench, w, snapshot_dir, "ingest-load", schedule, warmup, want, out
    )
    setups.append(setup_s)
    out.attempted += 1 + len(step)
    out.failed += step.failed
    reads = step.mask("score", "predict")
    out.e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": rss}
    out.specific = {
        "read_p50_ms": step.percentile(50, reads),
        "read_p99_ms": step.percentile(99, reads),
        "ingest_p50_ms": step.percentile(50, step.mask("ingest")),
    }
    if traced:
        spans = work / "ingest.spans"
        spans.mkdir()
        traced_step, _, _, batch = _ingest_session(
            bench, w, snapshot_dir, "ingest-traced", schedule, warmup, want, out, spans
        )
        out.attempted += len(traced_step)
        out.failed += traced_step.failed
        out.layers = _read_layers(spans, traced_step, reads)
        out.layers.update(batch)
        out.layers.update(
            {
                "client.gen_late_ms.p99": step.late_p99_ms,
                "client.backlog_max": step.backlog_max,
                "trace_overhead_pct": 100.0
                * (traced_step.percentile(50, reads) / step.percentile(50, reads) - 1),
            }
        )
    return out


RUNNERS = {
    "mine-wide": run_mine,
    "mine-deep": run_mine,
    "serve-score": run_score,
    "serve-ingest": run_ingest,
}


# -- entry point --------------------------------------------------------------


def _prepare_environment() -> None:
    """Keep every file the program writes inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD / "kernels")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]


def _build() -> None:
    """Compile the native kernels and byte-compile the program once.

    Both would otherwise land inside the first timed set-up.
    """
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    from repro.core import kernels

    kernels.available_backends()


def _metrics_json(out: Outcome, traced: bool) -> dict:
    if not traced:
        return {m: {"value": out.e2e[m], "unit": unit} for m, unit in END_TO_END}
    values = {**out.layers, **out.specific, "failed_frac": out.failed / out.attempted}
    return {m: {"value": float(values[m]), "unit": unit} for m, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*RUNNERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()
    _build()
    settings = (
        Settings(seconds=2.0, boots=1, warmup_s=0.2)
        if args.smoke
        else Settings(seconds=args.seconds)
    )
    names = list(RUNNERS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    total = Outcome()
    metrics = {}
    spawner = Spawner()
    try:
        for name in names:
            w = workloads.WORKLOADS[name]
            if args.smoke:
                w = workloads.smoke(w)
            bench = Bench(settings, BUILD / "e2e" / f"{name}-{args.seed}-{os.getpid()}", spawner)
            shutil.rmtree(bench.work, ignore_errors=True)
            bench.work.mkdir(parents=True)
            try:
                out = RUNNERS[name](bench, w, args.seed, traced)
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
            total.attempted += out.attempted
            total.failed += out.failed
            total.errors += out.errors
            shown = {m: (out.e2e[m], unit) for m, unit in END_TO_END}
            shown.update({m: (v, layers.UNITS[m]) for m, v in out.specific.items()})
            shown["failed_frac"] = (out.failed / out.attempted, "ratio")
            for metric, (value, unit) in shown.items():
                print(f"{name:<13} {metric:<22} {value:12.4f} {unit}")
            for error in out.errors:
                print(f"{name:<13} CHECK FAILED: {error}")
            workload_metrics = _metrics_json(out, traced)
            if args.workload == "all":
                metrics.update({f"{m}@{name}": v for m, v in workload_metrics.items()})
            else:
                metrics = workload_metrics
    finally:
        spawner.close()
    print(
        json.dumps(
            {
                "correct": total.correct,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
