"""Render observability artifacts into human-readable tables.

``trajpattern report <files...>`` routes here: a JSONL span trace becomes
a per-phase timing table (plus a span tree for small traces and a
per-shard breakdown when worker spans are present), a run manifest
becomes a key/metric summary, a metrics snapshot or telemetry series
becomes counter/histogram tables.  Several trace files render as one
merged tree -- the client (loadgen) and server write separate files, but
wire-propagated trace ids stitch their spans into a single request tree.

The loaders validate schemas strictly and raise ``ValueError`` on
malformed records -- CI runs ``report`` over the artifacts of traced
runs, so a schema regression fails the build instead of shipping
silently.  *Empty* artifacts, though, are a fact of life (a server that
served nothing, a run with tracing off) and render as an explicit "no
spans recorded" instead of raising.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.manifest import MANIFEST_FORMAT, load_manifest
from repro.obs.metrics import NS_PER_S
from repro.obs.tracing import SPAN_RECORD_KEYS


# -- trace loading -----------------------------------------------------------


def load_trace(path: str | Path) -> list[dict]:
    """Parse and validate a span JSONL file.

    Every line must be a JSON object carrying all of
    :data:`~repro.obs.tracing.SPAN_RECORD_KEYS`; anything else raises
    ``ValueError`` with the offending line number.  A zero-byte or
    blank-lines-only file is a *valid empty trace* and returns ``[]`` --
    rendering decides how to say "nothing here".
    """
    path = Path(path)
    spans: list[dict] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(record, dict) or record.get("kind") != "span":
                raise ValueError(f"{path}:{lineno}: not a span record")
            missing = [k for k in SPAN_RECORD_KEYS if k not in record]
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: span record missing {missing}"
                )
            spans.append(record)
    return spans


def span_children(spans: list[dict]) -> dict[str | None, list[dict]]:
    """Parent span id -> child records (roots under ``None``/unknown ids)."""
    ids = {s["span"] for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(s)
    return children


# -- formatting helpers -------------------------------------------------------


def _fmt_s(ns: float) -> str:
    return f"{ns / NS_PER_S:.3f}s"


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.1f}ms"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        # First column left-aligned, numbers right-aligned.
        out = [cells[0].ljust(widths[0])]
        out += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join(out)

    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


# -- trace rendering ----------------------------------------------------------


#: Traces up to this many spans also render an indented span tree.
_TREE_LIMIT = 200


def _span_tree_lines(spans: list[dict]) -> list[str]:
    """Indented parent->child rendering of a (small) trace."""
    children = span_children(spans)
    for group in children.values():
        group.sort(key=lambda s: s["ts_ns"])
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        attrs = span.get("attrs") or {}
        bits = "".join(f" {k}={v}" for k, v in sorted(attrs.items()))
        lines.append(
            f"  {'  ' * depth}{span['name']}  {_fmt_ms(span['dur_ns'])}{bits}"
        )
        for child in children.get(span["span"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return lines


def render_trace_report(spans: list[dict]) -> str:
    """Per-phase timing table (and per-shard breakdown) of one trace.

    An empty span list renders as an explicit "no spans recorded" line --
    the honest answer for a server that served nothing or a run that
    never opened a span.
    """
    if not spans:
        return "trace: no spans recorded"
    t_start = min(s["ts_ns"] for s in spans)
    t_end = max(s["ts_ns"] + s["dur_ns"] for s in spans)
    wall_ns = max(t_end - t_start, 1)

    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    rows = []
    for name, group in sorted(
        by_name.items(), key=lambda item: -sum(s["dur_ns"] for s in item[1])
    ):
        total = sum(s["dur_ns"] for s in group)
        rows.append(
            [
                name,
                str(len(group)),
                _fmt_s(total),
                _fmt_ms(total / len(group)),
                _fmt_ms(max(s["dur_ns"] for s in group)),
                f"{100.0 * total / wall_ns:.1f}%",
            ]
        )
    traces = {s["trace"] for s in spans}
    trace_label = (
        spans[0]["trace"] if len(traces) == 1 else f"{len(traces)} trace ids"
    )
    lines = [
        f"trace {trace_label}: {len(spans)} spans over "
        f"{wall_ns / NS_PER_S:.3f}s wall "
        f"({len({s['pid'] for s in spans})} process(es))",
        "",
        _table(["phase", "count", "total", "mean", "max", "wall%"], rows),
    ]
    if len(spans) <= _TREE_LIMIT:
        lines += ["", "span tree:"] + _span_tree_lines(spans)

    sharded: dict[tuple[str, object], list[int]] = {}
    for s in spans:
        shard = (s.get("attrs") or {}).get("shard")
        if shard is not None:
            sharded.setdefault((s["name"], shard), []).append(s["dur_ns"])
    if sharded:
        shard_rows = [
            [name, str(shard), str(len(durs)), _fmt_s(sum(durs))]
            for (name, shard), durs in sorted(sharded.items())
        ]
        lines += [
            "",
            "per-shard spans:",
            _table(["phase", "shard", "count", "total"], shard_rows),
        ]
    return "\n".join(lines)


# -- manifest rendering -------------------------------------------------------


def render_manifest_report(manifest: dict) -> str:
    """Key facts plus a timing table derived from the metric snapshot."""
    runtime = manifest.get("runtime") or {}
    lines = [
        f"run manifest: {manifest.get('command')}",
        f"  git sha:     {manifest.get('git_sha')}",
        f"  dataset:     {manifest.get('dataset_fingerprint', '')[:16]}…",
        f"  timestamp:   {runtime.get('timestamp')}",
        f"  wall time:   {runtime.get('wall_time_s'):.3f}s"
        if runtime.get("wall_time_s") is not None
        else "  wall time:   n/a",
        f"  cpu time:    {runtime.get('cpu_time_s'):.3f}s"
        if runtime.get("cpu_time_s") is not None
        else "  cpu time:    n/a",
        f"  peak rss:    {runtime.get('peak_rss_bytes', 0) / 2**20:.1f} MiB",
    ]
    arguments = manifest.get("arguments") or {}
    if arguments:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(arguments.items()))
        lines.append(f"  arguments:   {rendered}")

    metrics = manifest.get("metrics") or {}
    histograms = metrics.get("histograms") or {}
    timer_rows = [
        [
            name,
            str(data.get("count", 0)),
            _fmt_s(data.get("total", 0.0)),
            _fmt_ms(data.get("mean", 0.0)),
            _fmt_ms(data.get("max", 0.0)),
        ]
        for name, data in sorted(
            histograms.items(), key=lambda item: -item[1].get("total", 0.0)
        )
        if data.get("unit") == "ns"
    ]
    if timer_rows:
        lines += [
            "",
            "phase timings (metric snapshot):",
            _table(["phase", "count", "total", "mean", "max"], timer_rows),
        ]
    counters = metrics.get("counters") or {}
    if counters:
        counter_rows = [[n, str(v)] for n, v in sorted(counters.items())]
        lines += ["", "counters:", _table(["counter", "value"], counter_rows)]
    gauges = metrics.get("gauges") or {}
    if gauges:
        gauge_rows = [[n, f"{v:g}"] for n, v in sorted(gauges.items())]
        lines += ["", "gauges:", _table(["gauge", "value"], gauge_rows)]
    lines += _mining_lines(metrics)
    lines += _span_lines(metrics)
    return "\n".join(lines)


def _mining_lines(metrics: dict) -> list[str]:
    """The ``mining`` block of a ``repro mine`` run: why it stopped, per iteration.

    ``rss`` is the miner process's resident set as each iteration ended
    (``-`` for result files written before it was recorded).
    """
    mining = metrics.get("mining")
    if not isinstance(mining, dict):
        return []
    rows = [
        [
            str(row.get("iteration")),
            f"{row.get('omega', 0.0):.6g}",
            str(row.get("n_high")),
            str(row.get("candidates_evaluated")),
            str(row.get("batch_size")),
            f"{row.get('eval_time_s', 0.0) * 1e3:.1f}ms",
            f"{row['rss_bytes'] / 2**20:.1f}MiB" if row.get("rss_bytes") else "-",
        ]
        for row in mining.get("trace") or ()
    ]
    lines = [
        "",
        f"mining: {mining.get('stop_reason')} after {mining.get('iterations')} "
        f"iterations; candidates generated {mining.get('candidates_generated')}, "
        f"evaluated {mining.get('candidates_evaluated')}, bound-pruned "
        f"{mining.get('candidates_bound_pruned')}; patterns pruned "
        f"{mining.get('patterns_pruned')}; final Q {mining.get('final_q_size')}",
    ]
    if rows:
        lines.append(
            _table(
                [
                    "iteration", "omega", "n_high", "evaluated", "batch",
                    "eval time", "rss",
                ],  # fmt: skip
                rows,
            )
        )
    return lines


def _span_lines(metrics: dict) -> list[str]:
    """The ``parallel`` block (span coordinator snapshot) and ``streaming`` counters."""
    lines: list[str] = []
    snapshot = metrics.get("parallel")
    if isinstance(snapshot, dict) and snapshot.get("spans"):
        rows = [
            [
                str(span.get("span")),
                "{}-{}".format(*span.get("trajectories", ("?", "?"))),
                str(span.get("pool")),
                str(span.get("n_entries")),
                str(span.get("n_evaluations")),
                f"{span.get('cache_hits', 0)}/{span.get('opens', 0)}",
            ]
            for span in snapshot["spans"]
        ]
        lines += [
            "",
            f"spans: {snapshot.get('n_spans')} over pools "
            f"{', '.join(snapshot.get('pools', []))}; shard skew "
            f"{snapshot.get('shard_skew', 1.0):.2f}, eval skew "
            f"{snapshot.get('eval_skew', 1.0):.2f}",
            _table(
                ["span", "trajectories", "pool", "entries", "evals", "cache hits/opens"],
                rows,
            ),
        ]
    streaming = metrics.get("streaming")
    if isinstance(streaming, dict):
        lines += [
            "",
            f"streaming: {streaming.get('chunks_scanned')} span scans, "
            f"{streaming.get('span_cache_hits')} span cache hits",
        ]
    return lines


# -- metrics snapshot / telemetry rendering -----------------------------------


def render_metrics_report(snapshot: dict) -> str:
    """Counter/gauge/histogram tables from a bare metrics-snapshot JSON.

    An all-empty snapshot (metrics enabled but nothing recorded) renders
    as an explicit one-liner instead of raising.
    """
    lines: list[str] = ["metrics snapshot:"]
    counters = snapshot.get("counters") or {}
    if counters:
        rows = [[n, str(v)] for n, v in sorted(counters.items())]
        lines += ["", _table(["counter", "value"], rows)]
    gauges = snapshot.get("gauges") or {}
    if gauges:
        rows = [[n, f"{v:g}"] for n, v in sorted(gauges.items())]
        lines += ["", _table(["gauge", "value"], rows)]
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name, data in sorted(histograms.items()):
            quantiles = data.get("quantiles") or {}
            rows.append(
                [
                    name,
                    str(data.get("count", 0)),
                    f"{data.get('mean', 0.0):.3g}",
                    f"{quantiles.get('p99', 0.0):.3g}" if quantiles else "-",
                    data.get("unit", ""),
                ]
            )
        lines += ["", _table(["histogram", "count", "mean", "p99", "unit"], rows)]
    lines += _mining_lines(snapshot)
    lines += _span_lines(snapshot)
    if len(lines) == 1:
        return "metrics snapshot: no metrics recorded"
    return "\n".join(lines)


def render_series_report(records: list[dict]) -> str:
    """Summary of a telemetry JSONL series (see :mod:`repro.obs.export`)."""
    if not records:
        return "telemetry series: no records"
    first, last = records[0], records[-1]
    duration = last.get("ts_unix", 0.0) - first.get("ts_unix", 0.0)
    lines = [
        f"telemetry series: {len(records)} records over {duration:.1f}s",
    ]
    counters = last.get("counters") or {}
    if counters:
        rows = [
            [name, str(data.get("value", 0)), f"{data.get('rate_per_s', 0.0):.2f}/s"]
            for name, data in sorted(counters.items())
        ]
        lines += ["", _table(["counter", "value", "last rate"], rows)]
    histograms = last.get("histograms") or {}
    rows = []
    for name, data in sorted(histograms.items()):
        window = data.get("window") or {}
        quantiles = window.get("quantiles") or data.get("quantiles") or {}
        rows.append(
            [
                name,
                str(data.get("count", 0)),
                f"{quantiles.get('p50', 0.0):.3g}" if quantiles else "-",
                f"{quantiles.get('p99', 0.0):.3g}" if quantiles else "-",
                data.get("unit", ""),
            ]
        )
    if rows:
        lines += ["", _table(["histogram", "count", "p50", "p99", "unit"], rows)]
    return "\n".join(lines)


# -- dispatch -----------------------------------------------------------------


def _sniff_whole_json(path: Path) -> dict | None:
    """The file as one JSON object, or ``None`` (JSONL, empty, not a dict)."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return None  # multi-line JSONL (or empty) fails the single parse
    except OSError as exc:
        raise ValueError(f"{path}: unreadable: {exc}") from exc
    return document if isinstance(document, dict) else None


def render_file(path: str | Path) -> str:
    """Pretty-print one observability artifact, dispatching on content.

    Recognises (in order): a run manifest (format tag), a metrics
    snapshot (``counters``/``gauges``/``histograms`` object, even empty),
    a telemetry series (JSONL of ``kind: "telemetry"`` records) and a
    span trace (JSONL of ``kind: "span"`` records; empty files count).
    Raises ``ValueError`` for anything else.
    """
    path = Path(path)
    document = _sniff_whole_json(path)
    if document is not None:
        if document.get("format") == MANIFEST_FORMAT:
            return render_manifest_report(load_manifest(path))
        if document.get("kind") == "telemetry":
            return render_series_report([document])  # one-record series
        snapshot_keys = {"counters", "gauges", "histograms"}
        if snapshot_keys & set(document) or not document:
            # A metrics snapshot -- possibly with extra sections (e.g.
            # 'kernel_backend'), possibly entirely empty.
            return render_metrics_report(document)
        if document.get("kind") == "span":
            return render_trace_report(load_trace(path))
        raise ValueError(f"{path}: not a recognised observability artifact")
    # JSONL (or empty): telemetry series vs span trace by first record.
    first_line = None
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                first_line = line
                break
    if first_line is not None:
        try:
            first = json.loads(first_line)
        except ValueError:
            first = None
        if isinstance(first, dict) and first.get("kind") == "telemetry":
            from repro.obs.export import load_series

            return render_series_report(load_series(path))
    return render_trace_report(load_trace(path))


def render_files(paths: list) -> str:
    """Render one or more artifact files.

    A single path dispatches as :func:`render_file`.  Several paths must
    all be span traces: their spans merge into one report, which is how
    the client (loadgen) and server halves of a wire-propagated trace
    become a single request tree.
    """
    if len(paths) == 1:
        return render_file(paths[0])
    spans: list[dict] = []
    for path in paths:
        spans.extend(load_trace(path))
    return render_trace_report(spans)
