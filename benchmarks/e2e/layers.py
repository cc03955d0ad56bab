"""Per-layer metrics from the span files of a traced run.

:data:`PER_LAYER` is the list ``BENCHMARK.json`` names under
``per_layer``; every traced run reports all of them, with 0 for a layer
the workload never enters.  Units say how a value is aggregated:

* ``s`` -- total over one unit of work, summed over every process of the
  program (a ``repro mine`` run; for serving, one server session);
* ``ms`` -- mean per call, or the stated percentile, over the measured
  window of a serving session;
* ``count`` / ``ratio`` -- totals and quotients over the same unit.

Each span-timed layer reports its total and its self time (``.self_s`` /
``.self_ms``: its own time minus the wrapped calls made inside it).  The
first ten entries are the workload-specific numbers that every untraced
run prints, measured untraced in the same run; ``compare.py`` judges
them from those printed lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Workload-specific end-to-end numbers; 0 on workloads they do not apply to.
SPECIFIC = [
    ("mine_s", "s"),
    ("score_p50_ms.r1000", "ms"),
    ("score_p99_ms.r1000", "ms"),
    ("score_p50_ms.r5000", "ms"),
    ("score_p99_ms.r5000", "ms"),
    ("max_rps", "req/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("failed_frac", "ratio"),
]

#: Layers reported as per-unit totals, by span name.
TOTALS = [
    "storage.open",
    "storage.read",
    "grid.neighbourhood",
    "kernels.prob",
    "kernels.devmax",
    "kernels.segmax",
    "engine.nm_batch",
    "engine.singular",
    "parallel.start",
    "parallel.nm_batch",
    "parallel.merge",
    "parallel.wait",
    "parallel.close",
    "groups.discover",
    "results.save",
    "snapshot.load",
    "snapshot.swap",
]

#: Layers reported as mean milliseconds per call in the measured window.
MEANS = [
    ("protocol.decode", "protocol.decode"),
    ("protocol.parse", "protocol.parse"),
    ("protocol.encode", "protocol.encode"),
    ("apps.predict", "apps.predict"),
    ("ingest.parse", "ingest.parse"),
    ("ingest.append", "ingest.append"),
    ("ingest.evict", "ingest.evict"),
    ("ingest.remine", "miner.mine"),
]

#: Span counts and summed ``n`` attributes: (metric, span name, field).
COUNTS = [
    ("storage.rows_read", "storage.read", "n"),
    ("grid.pairs", "grid.neighbourhood", "n"),
    ("kernels.prob_pairs", "kernels.prob", "n"),
    ("kernels.devmax_calls", "kernels.devmax", None),
    ("engine.entries", "engine.build", "n"),
    ("engine.nm_batch_calls", "engine.nm_batch", None),
    ("engine.patterns_scored", "engine.nm_batch", "n"),
    ("miner.iterations", "miner.mine", "iterations"),
    ("miner.candidates_generated", "miner.mine", "generated"),
    ("miner.candidates_evaluated", "miner.mine", "evaluated"),
    ("miner.candidates_bound_pruned", "miner.mine", "bound_pruned"),
    ("miner.patterns_pruned", "miner.mine", "pruned"),
]

PER_LAYER = (
    SPECIFIC
    + [
        ("process.boot_s", "s"),
        ("process.import_s", "s"),
        ("process.exit_s", "s"),
        ("cli.self_s", "s"),
        ("engine.build_s", "s"),
        ("engine.install_s", "s"),
        ("miner.mine_s", "s"),
        ("miner.self_s", "s"),
    ]
    + [(f"{name}{part}_s", "s") for name in TOTALS for part in ("", ".self")]
    + [(f"{stem}{part}_ms", "ms") for stem, _ in MEANS for part in ("", ".self")]
    + [(name, "count") for name, _, _ in COUNTS]
    + [
        ("miner.eval_ratio", "ratio"),
        ("parallel.shard_skew", "ratio"),
        ("parallel.eval_skew", "ratio"),
        ("ingest.remine_iterations", "count"),
        ("batcher.submit_ms.p50", "ms"),
        ("batcher.submit_ms.p99", "ms"),
        ("batcher.mean_batch", "count"),
        ("batcher.closed_delay_frac", "ratio"),
        ("batcher.closed_size_frac", "ratio"),
        ("batcher.closed_boundary_frac", "ratio"),
        ("batcher.shed", "count"),
        ("serve.eval_ms.p50", "ms"),
        ("serve.eval_ms.p99", "ms"),
        ("serve.residence_ms.p50", "ms"),
        ("serve.residence_ms.p99", "ms"),
        ("serve.net_ms.p50", "ms"),
        ("client.gen_late_ms.p99", "ms"),
        ("client.backlog_max", "count"),
        ("trace_overhead_pct", "%"),
        ("trace.coverage_pct", "%"),
    ]
)

UNITS = dict(PER_LAYER)


class Spans:
    """All span records of one traced unit of work."""

    def __init__(self, directory: Path) -> None:
        self.records = []
        self._by_name = defaultdict(list)
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            pid = int(path.stem.split("-")[1])
            with path.open(encoding="utf-8") as fh:
                for line in fh:
                    record = (pid, *json.loads(line))
                    self.records.append(record)
                    self._by_name[record[3]].append(record)

    def named(self, name: str, window=None):
        """``(pid, id, parent, name, start, end, child, key, attrs)`` records."""
        out = self._by_name.get(name, [])
        if window is not None:
            lo, hi = window
            out = [r for r in out if lo <= r[4] <= hi]
        return out


def _dur(r) -> int:
    return r[5] - r[4]


def _self(r) -> int:
    return r[5] - r[4] - r[6]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _totals(spans: Spans, metrics: dict) -> None:
    for name in TOTALS:
        records = spans.named(name)
        metrics[f"{name}_s"] = sum(map(_dur, records)) / 1e9
        metrics[f"{name}.self_s"] = sum(map(_self, records)) / 1e9
    build = spans.named("engine.build")
    metrics["engine.build_s"] = sum(map(_dur, build)) / 1e9
    metrics["engine.install_s"] = sum(map(_self, build)) / 1e9
    mine = spans.named("miner.mine")
    metrics["miner.mine_s"] = sum(map(_dur, mine)) / 1e9
    metrics["miner.self_s"] = sum(map(_self, mine)) / 1e9
    for metric, name, field in COUNTS:
        records = spans.named(name)
        metrics[metric] = (
            len(records) if field is None else sum((r[8] or {}).get(field, 0) for r in records)
        )
    generated = metrics["miner.candidates_generated"]
    metrics["miner.eval_ratio"] = (
        metrics["miner.candidates_evaluated"] / generated if generated else 0.0
    )
    skews = spans.named("parallel.obs")
    if skews:
        metrics["parallel.shard_skew"] = skews[-1][8]["shard_skew"]
        metrics["parallel.eval_skew"] = skews[-1][8]["eval_skew"]


def _means(spans: Spans, metrics: dict, window=None) -> None:
    for stem, name in MEANS:
        records = spans.named(name, window)
        n = max(len(records), 1)
        metrics[f"{stem}_ms"] = sum(map(_dur, records)) / n / 1e6
        metrics[f"{stem}.self_ms"] = sum(map(_self, records)) / n / 1e6


def _empty() -> dict:
    return {name: 0.0 for name, _ in PER_LAYER}


def mine_layers(directory: Path, root_pid: int, exit_ns: int, mine_s: float) -> dict:
    """Per-layer metrics of one traced ``repro mine`` run."""
    spans = Spans(directory)
    metrics = _empty()
    _totals(spans, metrics)
    for stage in ("process.boot", "process.import"):
        metrics[f"{stage}_s"] = sum(map(_dur, spans.named(stage))) / 1e9
    (main,) = spans.named("cli.main")
    metrics["process.exit_s"] = (exit_ns - main[5]) / 1e9
    metrics["cli.self_s"] = _self(main) / 1e9
    # The mine process's own timeline: spawn, imports, the command, exit.
    # Everything but the command's own unwrapped code is attributed.
    attributed = sum(
        _self(r) for r in spans.records if r[0] == root_pid and r[3] != "cli.main"
    )
    metrics["trace.coverage_pct"] = 100.0 * (attributed / 1e9 + metrics["process.exit_s"]) / mine_s
    return metrics


def serve_layers(directory: Path, reads, window) -> dict:
    """Per-layer metrics of one traced server session.

    ``reads`` maps request id to its client latency in ns for the read
    requests of the measured window ``(start_ns, end_ns)``; request-level
    layers are taken over that window.
    """
    spans = Spans(directory)
    metrics = _empty()
    _totals(spans, metrics)
    _means(spans, metrics, window)
    decode = {r[7]: r for r in spans.named("protocol.decode") if r[7] in reads}
    encode = {r[7]: r for r in spans.named("protocol.encode") if r[7] in reads}
    joined = [i for i in reads if i in decode and i in encode]
    residence = np.array([encode[i][5] - decode[i][4] for i in joined], dtype=float)
    latency = np.array([reads[i] for i in joined], dtype=float)
    net = latency - residence
    submit = [_dur(r) for r in spans.named("batcher.submit", window)]
    evals = [_dur(r) for r in spans.named("serve.eval", window)]
    remines = spans.named("miner.mine", window)
    metrics.update(
        {
            "ingest.remine_iterations": (
                float(np.mean([r[8]["iterations"] for r in remines])) if remines else 0.0
            ),
            "batcher.submit_ms.p50": _pct(submit, 50) / 1e6,
            "batcher.submit_ms.p99": _pct(submit, 99) / 1e6,
            "serve.eval_ms.p50": _pct(evals, 50) / 1e6,
            "serve.eval_ms.p99": _pct(evals, 99) / 1e6,
            "serve.residence_ms.p50": _pct(residence, 50) / 1e6,
            "serve.residence_ms.p99": _pct(residence, 99) / 1e6,
            "serve.net_ms.p50": _pct(net, 50) / 1e6,
        }
    )
    # Client latency = server residence + everything outside the server
    # (net).  Residence splits into the wrapped request layers plus the
    # server's unwrapped glue, which is the unattributed part.
    parse = sum(map(_dur, spans.named("protocol.parse", window)))
    attributed = (
        sum(_dur(decode[i]) + _dur(encode[i]) for i in joined)
        + parse
        + sum(submit)
        + float(net.sum())
    )
    total = float(latency.sum())
    metrics["trace.coverage_pct"] = 100.0 * attributed / total if total else 0.0
    return metrics
