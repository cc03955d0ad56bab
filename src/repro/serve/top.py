"""``repro top``: a live terminal dashboard for a running PatternServer.

Two data sources, one frame renderer:

* **live mode** (default): poll the server's ``stats`` op over a plain
  blocking socket every ``interval_s`` -- no dependency on the serving
  event loop, works against any reachable server;
* **series mode** (``--series``): tail the telemetry JSONL written by
  :class:`~repro.obs.export.TelemetryExporter` -- works after the fact,
  or against a server whose port is not reachable from here.

Each frame shows QPS, per-op rolling-window and all-time latency
quantiles, queue depth, batch shape, shed reasons, snapshot generation
and peak RSS.  ``once=True`` prints a single frame without clearing the
screen -- the scriptable/CI mode asserted by the telemetry smoke job.

Everything here is stdlib-only and synchronous on purpose: a dashboard
must not require the server's own machinery to be healthy.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: ANSI: clear screen + home, for the refreshing display.
_CLEAR = "\x1b[2J\x1b[H"

#: Backoff schedule when the stats source is unreachable in loop mode:
#: doubling from the base, capped -- mirrors the router's reconnect pacing.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0

#: Bound on one ``stats`` round-trip: a live server answers in
#: milliseconds, so a frame waits at most this long before it reports the
#: source unreachable and backs off.
_FETCH_TIMEOUT_S = 5.0


@dataclass
class TopConfig:
    """Where to look and how often."""

    host: str = "127.0.0.1"
    port: int = 0
    interval_s: float = 2.0
    once: bool = False
    series: str | None = None  # telemetry.jsonl path -> series mode
    max_frames: int | None = None  # stop after N frames (tests)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


def fetch_stats(host: str, port: int, timeout_s: float = _FETCH_TIMEOUT_S) -> dict:
    """One blocking ``stats`` round-trip; raises ``OSError`` on failure."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(b'{"op":"stats"}\n')
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-response")
            buf += chunk
    response = json.loads(buf)
    if not response.get("ok"):
        raise RuntimeError(f"stats failed: {response}")
    return response["stats"]


def _fmt_bytes(n: float | None) -> str:
    if not n:
        return "-"
    return f"{n / 2**20:.1f}MiB"


def _fmt_ms(value: float | None) -> str:
    return f"{value:.2f}ms" if value is not None else "-"


def _latency_rows(latency: dict) -> list[str]:
    if not latency:
        return ["  (enable server metrics for latency quantiles)"]
    lines = [
        "  op       win p50    win p95    win p99   win qps    all p99      count"
    ]
    for op, entry in sorted(latency.items()):
        window = entry.get("window") or {}
        wq = window.get("quantiles_ms") or {}
        aq = entry.get("all_time_ms") or {}
        lines.append(
            f"  {op:<8}"
            f" {_fmt_ms(wq.get('p50')):>9}"
            f" {_fmt_ms(wq.get('p95')):>10}"
            f" {_fmt_ms(wq.get('p99')):>10}"
            f" {window.get('rate_per_s', 0.0):>8.1f}/s"
            f" {_fmt_ms(aq.get('p99')):>10}"
            f" {entry.get('count', 0):>10}"
        )
        exemplars = window.get("exemplars") or []
        if exemplars:
            lines.append(f"           tail traces: {', '.join(exemplars[:3])}")
    return lines


def render_stats_frame(
    stats: dict, prev: dict | None, dt_s: float | None, reconnects: int = 0
) -> str:
    """One dashboard frame from a ``stats`` op response.

    ``reconnects`` is the dashboard's own count of polls it lost and
    recovered from -- shown so a flapping server is visible even when
    its stats look healthy between the gaps.
    """
    uptime = stats.get("uptime_s", 0.0)
    served = stats.get("requests_served", 0)
    if prev is not None and dt_s and dt_s > 0:
        qps = (served - prev.get("requests_served", 0)) / dt_s
        qps_label = f"{qps:.1f}/s"
    elif uptime > 0:
        qps_label = f"{served / uptime:.1f}/s avg"
    else:
        qps_label = "-"
    batcher = stats.get("batcher", {})
    shed = batcher.get("shed", {})
    closed = batcher.get("closed_on", {})
    lines = [
        f"repro top — snapshot {stats.get('version', '?')}"
        f" (swaps: {stats.get('swaps', 0)})"
        f"  uptime {uptime:.0f}s  rss {_fmt_bytes(stats.get('rss_bytes'))}"
        f" (peak {_fmt_bytes(stats.get('rss_peak_bytes'))})",
        f"  requests {served}  qps {qps_label}"
        f"  queue depth {stats.get('queue_depth', 0)}"
        + (f"  reconnects {reconnects}" if reconnects else ""),
        f"  batches {batcher.get('batches', 0)}"
        f"  mean size {batcher.get('mean_batch_size', 0.0):.1f}"
        f"  max size {batcher.get('max_batch_size', 0)}"
        f"  ema {batcher.get('ema_batch_s', 0.0) * 1e3:.2f}ms"
        f"  closed size/delay/boundary"
        f" {closed.get('size', 0)}/{closed.get('delay', 0)}/{closed.get('boundary', 0)}",
        f"  shed queue_full {shed.get('queue_full', 0)}"
        f"  deadline {shed.get('deadline', 0)}"
        f"  expired {shed.get('deadline_expired', 0)}",
        "latency (60s window / all-time):",
    ]
    lines.extend(_latency_rows(stats.get("latency", {})))
    return "\n".join(lines)


def render_series_frame(record: dict, prev: dict | None) -> str:
    """One dashboard frame from the newest telemetry series record."""
    counters = record.get("counters", {})
    gauges = record.get("gauges", {})
    histograms = record.get("histograms", {})
    request_rate = sum(
        data.get("rate_per_s", 0.0)
        for name, data in counters.items()
        if name.startswith("serve.") and name.endswith(".requests")
    )
    shed_bits = []
    for reason in ("queue_full", "deadline", "deadline_expired"):
        data = counters.get(f"serve.shed.{reason}", {})
        shed_bits.append(f"{reason} {data.get('value', 0)}")
    lines = [
        f"repro top — telemetry series seq {record.get('seq')}"
        f"  interval {record.get('interval_s', 0.0):.1f}s",
        f"  request rate {request_rate:.1f}/s"
        f"  queue depth {gauges.get('serve.queue_depth', 0):.0f}",
        f"  shed: {'  '.join(shed_bits)}",
        "latency (60s window, ns histograms):",
    ]
    rows = False
    for name, hist in sorted(histograms.items()):
        if not name.endswith(".latency_ns"):
            continue
        window = hist.get("window") or {}
        quantiles = window.get("quantiles") or {}
        if not quantiles:
            continue
        rows = True
        op = name[len("serve.") : -len(".latency_ns")]
        lines.append(
            f"  {op:<8}"
            f" p50 {_fmt_ms(quantiles.get('p50', 0.0) / 1e6):>9}"
            f" p95 {_fmt_ms(quantiles.get('p95', 0.0) / 1e6):>9}"
            f" p99 {_fmt_ms(quantiles.get('p99', 0.0) / 1e6):>9}"
            f" count {window.get('count', 0):>8}"
        )
    if not rows:
        lines.append("  (no latency histograms in this record)")
    return "\n".join(lines)


def _last_series_record(path: Path) -> dict | None:
    """Newest record of a telemetry series file (cheap tail, no full load)."""
    try:
        with path.open("rb") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    for raw in reversed(lines):
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except ValueError:
            continue
        if record.get("kind") == "telemetry":
            return record
    return None


def run_top(config: TopConfig, out=None) -> int:
    """Run the dashboard loop; returns a process exit code.

    ``once`` prints a single frame (no screen clearing) and exits
    non-zero if the source is unreachable -- that is the CI contract.
    In loop mode a lost server keeps the dashboard alive and retrying.
    """
    out = out if out is not None else sys.stdout
    prev: dict | None = None
    prev_t: float | None = None
    frames = 0
    reconnects = 0
    backoff: float | None = None  # None = healthy, poll at interval_s
    while True:
        frame: str | None = None
        error: str | None = None
        if config.series is not None:
            record = _last_series_record(Path(config.series))
            if record is None:
                error = f"no telemetry records in {config.series}"
            else:
                frame = render_series_frame(record, prev)
                prev = record
        else:
            try:
                stats = fetch_stats(config.host, config.port)
            except (OSError, RuntimeError, ValueError) as exc:
                error = f"cannot fetch stats from {config.host}:{config.port}: {exc}"
            else:
                now = time.monotonic()
                dt = now - prev_t if prev_t is not None else None
                if backoff is not None:
                    reconnects += 1  # recovered from a lost server
                    backoff = None
                frame = render_stats_frame(stats, prev, dt, reconnects)
                prev = stats
                prev_t = now
        if frame is None:
            if config.once:
                print(f"repro top: {error}", file=out)
                return 1
            # Lost the source: keep the dashboard alive, back off the
            # polling exponentially (capped) instead of hammering a
            # server that is mid-restart.
            backoff = (
                _BACKOFF_BASE_S if backoff is None
                else min(backoff * 2, _BACKOFF_CAP_S)
            )
            frame = (
                f"repro top: {error}"
                f" (retrying in {backoff:.2f}s, reconnects {reconnects})"
            )
        if config.once:
            print(frame, file=out)
            return 0
        print(_CLEAR + frame, file=out, flush=True)
        frames += 1
        if config.max_frames is not None and frames >= config.max_frames:
            return 0
        try:
            time.sleep(config.interval_s if backoff is None else backoff)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0
