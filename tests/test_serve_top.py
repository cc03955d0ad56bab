"""Tests for the ``repro top`` dashboard: rendering, live and series modes.

Frame rendering is pure (dict in, text out) so most coverage is canned
payloads; the live-mode tests run a real server and drive ``run_top``
with ``once``/``max_frames`` so nothing loops forever.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.experiments.datasets import zebranet_dataset
from repro.obs import metrics, tracing
from repro.serve import PatternServer, ServeConfig, ServingSnapshot, SnapshotStore
from repro.serve.top import (
    TopConfig,
    fetch_stats,
    render_series_frame,
    render_stats_frame,
    run_top,
)


@pytest.fixture(scope="module")
def snapshot():
    dataset = zebranet_dataset(n_trajectories=10, n_ticks=20, seed=9)
    return ServingSnapshot.from_dataset(dataset, version="v-top")


@pytest.fixture(autouse=True)
def _obs_reset():
    tracing.disable_tracing()
    registry = metrics.get_registry()
    registry.disable()
    registry.reset()
    yield
    tracing.disable_tracing()
    registry = metrics.get_registry()
    registry.disable()
    registry.reset()


_STATS = {
    "version": "v1",
    "swaps": 2,
    "uptime_s": 120.0,
    "requests_served": 1200,
    "queue_depth": 3,
    "rss_peak_bytes": 256 << 20,
    "batcher": {
        "batches": 400,
        "mean_batch_size": 3.0,
        "max_batch_size": 8,
        "ema_batch_s": 0.002,
        "shed": {"queue_full": 5, "deadline": 1, "deadline_expired": 0},
        "closed_on": {"size": 10, "delay": 380, "boundary": 10},
    },
    "latency": {
        "score": {
            "count": 1200,
            "mean_ms": 2.0,
            "max_ms": 30.0,
            "all_time_ms": {"p50": 1.5, "p95": 6.0, "p99": 12.0},
            "window": {
                "window_s": 60.0,
                "count": 100,
                "rate_per_s": 1.7,
                "quantiles_ms": {"p50": 1.4, "p95": 5.0, "p99": 11.0},
                "exemplars": ["aaaa1111", "bbbb2222"],
            },
        }
    },
}


class TestStatsFrame:
    def test_first_frame_uses_lifetime_average(self):
        frame = render_stats_frame(_STATS, None, None)
        assert "snapshot v1" in frame
        assert "10.0/s avg" in frame  # 1200 / 120s
        assert "queue depth 3" in frame
        assert "queue_full 5" in frame
        assert "score" in frame and "11.00ms" in frame
        assert "aaaa1111" in frame  # tail-trace exemplars surface

    def test_shows_current_and_peak_rss(self):
        frame = render_stats_frame(dict(_STATS, rss_bytes=96 << 20), None, None)
        assert "rss 96.0MiB (peak 256.0MiB)" in frame
        # Without /proc/self the current gauge is None.
        frame = render_stats_frame(dict(_STATS, rss_bytes=None), None, None)
        assert "rss - (peak 256.0MiB)" in frame

    def test_delta_qps_between_frames(self):
        prev = dict(_STATS, requests_served=1000)
        frame = render_stats_frame(_STATS, prev, 2.0)
        assert "qps 100.0/s" in frame  # (1200-1000)/2

    def test_no_latency_hint(self):
        stats = dict(_STATS, latency={})
        frame = render_stats_frame(stats, None, None)
        assert "enable server metrics" in frame


class TestSeriesFrame:
    def test_renders_rates_and_quantiles(self):
        record = {
            "kind": "telemetry",
            "seq": 4,
            "interval_s": 10.0,
            "counters": {
                "serve.score.requests": {"value": 90, "delta": 30, "rate_per_s": 3.0},
                "serve.shed.queue_full": {"value": 2, "delta": 0, "rate_per_s": 0.0},
            },
            "gauges": {"serve.queue_depth": 1.0},
            "histograms": {
                "serve.score.latency_ns": {
                    "count": 90,
                    "window": {"count": 30,
                               "quantiles": {"p50": 2e6, "p95": 8e6, "p99": 9e6}},
                }
            },
        }
        frame = render_series_frame(record, None)
        assert "seq 4" in frame
        assert "request rate 3.0/s" in frame
        assert "queue_full 2" in frame
        assert "9.00ms" in frame

    def test_no_histograms(self):
        record = {"seq": 1, "interval_s": 1.0, "counters": {}, "gauges": {},
                  "histograms": {}}
        assert "no latency histograms" in render_series_frame(record, None)


def _serve_forever(snapshot, coro):
    """Run `coro(host, port)` against a live server."""

    async def run():
        server = PatternServer(SnapshotStore(snapshot), ServeConfig())
        host, port = await server.start()
        try:
            return await coro(host, port)
        finally:
            await server.stop()

    return asyncio.run(run())


class TestLiveMode:
    def test_fetch_stats_roundtrip(self, snapshot):
        async def go(host, port):
            return await asyncio.get_running_loop().run_in_executor(
                None, fetch_stats, host, port
            )

        stats = _serve_forever(snapshot, go)
        assert stats["version"] == "v-top"
        assert "rss_peak_bytes" in stats

    def test_run_top_once_against_live_server(self, snapshot):
        out = io.StringIO()

        async def go(host, port):
            config = TopConfig(host=host, port=port, once=True)
            return await asyncio.get_running_loop().run_in_executor(
                None, run_top, config, out
            )

        rc = _serve_forever(snapshot, go)
        assert rc == 0
        assert "snapshot v-top" in out.getvalue()

    def test_once_unreachable_exits_nonzero(self):
        out = io.StringIO()
        rc = run_top(TopConfig(host="127.0.0.1", port=1, once=True), out=out)
        assert rc == 1
        assert "repro top:" in out.getvalue()

    def test_loop_mode_max_frames(self, snapshot):
        out = io.StringIO()

        async def go(host, port):
            config = TopConfig(host=host, port=port, interval_s=0.01, max_frames=2)
            return await asyncio.get_running_loop().run_in_executor(
                None, run_top, config, out
            )

        rc = _serve_forever(snapshot, go)
        assert rc == 0
        assert out.getvalue().count("repro top —") == 2


class TestSeriesMode:
    def test_once_with_series_file(self, tmp_path):
        record = {"kind": "telemetry", "seq": 1, "interval_s": 5.0,
                  "counters": {}, "gauges": {}, "histograms": {}}
        path = tmp_path / "telemetry.jsonl"
        path.write_text(json.dumps(record) + "\n")
        out = io.StringIO()
        rc = run_top(TopConfig(series=str(path), once=True), out=out)
        assert rc == 0
        assert "telemetry series seq 1" in out.getvalue()

    def test_once_with_empty_series_fails(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text("")
        out = io.StringIO()
        rc = run_top(TopConfig(series=str(path), once=True), out=out)
        assert rc == 1
        assert "no telemetry records" in out.getvalue()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TopConfig(interval_s=0.0)


class TestReconnectBackoff:
    def test_frame_shows_reconnects_when_nonzero(self):
        frame = render_stats_frame(_STATS, None, None)
        assert "reconnects" not in frame
        frame = render_stats_frame(_STATS, None, None, reconnects=3)
        assert "reconnects 3" in frame

    def test_loop_mode_backs_off_exponentially_when_unreachable(self):
        out = io.StringIO()
        config = TopConfig(
            host="127.0.0.1", port=1, interval_s=0.01, max_frames=3
        )
        rc = run_top(config, out=out)
        assert rc == 0
        text = out.getvalue()
        # Three failed polls: backoff doubles from the base each frame.
        assert "retrying in 0.25s" in text
        assert "retrying in 0.50s" in text
        assert "retrying in 1.00s" in text
        assert "reconnects 0" in text

    def test_recovery_increments_reconnects(self, monkeypatch):
        """fail -> succeed: the success frame counts one reconnect."""
        from repro.serve import top as top_module

        calls = {"n": 0}

        def flaky_fetch(host, port, timeout_s=5.0):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConnectionRefusedError("first poll fails")
            return dict(_STATS)

        monkeypatch.setattr(top_module, "fetch_stats", flaky_fetch)
        out = io.StringIO()
        config = TopConfig(
            host="127.0.0.1", port=1, interval_s=0.01, max_frames=2
        )
        rc = run_top(config, out=out)
        assert rc == 0
        text = out.getvalue()
        assert "retrying in 0.25s" in text   # the failed poll backs off
        assert "reconnects 1" in text        # the recovery is counted
