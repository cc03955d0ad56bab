"""Integration tests: observability wired through the mining stack.

The contracts pinned here are the instrumentation layer's acceptance
criteria: a traced parallel mine produces a schema-valid JSONL trace in
which per-shard ``index.build`` / ``engine.nm_batch`` spans are children
of the parent run span; with observability disabled (the default) no
events are produced anywhere; run manifests are deterministic outside
their volatile sections; and the parallel obs snapshot exposes per-shard
counters plus the skew gauges.
"""

import json

import numpy as np
import pytest

import repro.cli as cli
from repro.core.engine import EngineConfig, NMEngine
from repro.core.parallel import ParallelNMEngine
from repro.core.trajpattern import TrajPatternMiner
from repro.geometry.bbox import BoundingBox
from repro.geometry.grid import Grid
from repro.obs import manifest as obs_manifest
from repro.obs import metrics, report, tracing
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.io import save_dataset_jsonl
from repro.trajectory.trajectory import UncertainTrajectory


@pytest.fixture(autouse=True)
def _obs_default_off():
    tracing.disable_tracing()
    registry = metrics.get_registry()
    registry.disable()
    registry.reset()
    yield
    tracing.disable_tracing()
    registry = metrics.get_registry()
    registry.disable()
    registry.reset()


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(3)
    trajectories = [
        UncertainTrajectory(
            rng.uniform(0, 10, (8, 2)),
            rng.uniform(0.1, 0.4, 8),
            object_id=f"o{i}",
        )
        for i in range(10)
    ]
    return TrajectoryDataset(trajectories)


GRID = Grid(BoundingBox(0.0, 0.0, 10.0, 10.0), nx=5, ny=5)
CONFIG = EngineConfig(delta=1.0)


class TestTracedParallelMine:
    def test_worker_spans_nest_under_parent_run_span(
        self, small_dataset, tmp_path
    ):
        trace_file = tmp_path / "trace.jsonl"
        tracing.configure_tracing(path=trace_file)
        with tracing.span("run", command="test") as run_span:
            run_id = run_span.span_id
            with ParallelNMEngine(small_dataset, GRID, CONFIG, jobs=2) as eng:
                TrajPatternMiner(eng, k=3).mine()
        tracing.disable_tracing()

        spans = report.load_trace(trace_file)  # schema round-trip
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert {"run", "miner.mine", "index.build", "engine.nm_batch"} <= set(
            by_name
        )

        # Worker spans carry their shard ordinal and a worker pid, and are
        # parented to the span that was current at engine construction --
        # the run root -- so the whole mine renders as one tree.
        parent_pid = by_name["run"][0]["pid"]
        worker_spans = [
            s for s in spans if (s.get("attrs") or {}).get("shard") is not None
        ]
        assert {s["attrs"]["shard"] for s in worker_spans} == {0, 1}
        for span in worker_spans:
            assert span["pid"] != parent_pid
            assert span["parent"] == run_id
            assert span["trace"] == by_name["run"][0]["trace"]
        assert {s["name"] for s in worker_spans} >= {
            "index.build",
            "engine.nm_batch",
        }

        # miner spans nest: evaluate under iteration under mine under run.
        children = report.span_children(spans)
        mine_span = by_name["miner.mine"][0]
        assert mine_span["parent"] == run_id
        iteration_ids = {s["span"] for s in by_name["miner.iteration"]}
        assert all(
            s["parent"] in iteration_ids for s in by_name["miner.evaluate"]
        )
        assert children[run_id]  # run has children

    def test_report_renders_per_phase_table(self, small_dataset, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        tracing.configure_tracing(path=trace_file)
        with tracing.span("run"):
            with ParallelNMEngine(small_dataset, GRID, CONFIG, jobs=2) as eng:
                eng.nm_batch([])
        tracing.disable_tracing()
        rendered = report.render_file(trace_file)
        assert "index.build" in rendered
        assert "per-shard spans:" in rendered


class TestIndexBuildSpan:
    def test_build_span_records_pairs_beside_entries(self, small_dataset, tmp_path):
        """A cold build's ``index.build`` span records the (snapshot, cell)
        pairs its capacity pass counted beside the entries it kept; a build
        that loads or adopts its index enumerates none."""
        from dataclasses import replace

        trace_file = tmp_path / "trace.jsonl"
        cached = replace(CONFIG, cache_dir=str(tmp_path / "cache"))
        tracing.configure_tracing(path=trace_file)
        cold = NMEngine(small_dataset, GRID, cached)
        warm = NMEngine(small_dataset, GRID, cached)
        NMEngine(small_dataset, GRID, CONFIG, csr=cold.index_csr())
        tracing.disable_tracing()

        builds = [s["attrs"] for s in report.load_trace(trace_file)
                  if s["name"] == "index.build"]  # fmt: skip
        assert len(builds) == 3
        first, *others = builds
        assert not first["cache_hit"] and not first["prebuilt"]
        assert first["n_pairs"] == cold.n_index_pairs > first["n_entries"] > 0
        assert others[0]["cache_hit"] and warm.n_index_pairs == 0
        assert [s["prebuilt"] for s in others] == [False, True]
        for attrs in others:
            assert attrs["n_pairs"] == 0
            assert attrs["n_entries"] == first["n_entries"]


class TestDisabledModeProducesNothing:
    def test_mining_emits_no_metrics_or_spans(self, small_dataset, tmp_path):
        registry = metrics.get_registry()
        assert not registry.enabled
        engine = NMEngine(small_dataset, GRID, CONFIG)
        result = TrajPatternMiner(engine, k=3).mine()
        assert list(metrics.instruments(registry)) == []
        assert tracing.get_tracer() is None
        # The stats thin view still works: its private registry is always on.
        assert result.stats.eval_batches > 0
        assert result.stats.max_batch_size > 0
        assert result.stats.eval_time_s > 0.0
        assert result.stats.eval_time_s < result.stats.wall_time_s

    def test_parallel_run_emits_nothing_when_disabled(self, small_dataset):
        registry = metrics.get_registry()
        with ParallelNMEngine(small_dataset, GRID, CONFIG, jobs=2) as eng:
            eng.nm_batch([])
            assert eng.drain_trace() == 0
        assert list(metrics.instruments(registry)) == []


class TestObsSnapshot:
    def test_per_shard_counters_and_skew_gauges(self, small_dataset):
        metrics.get_registry().enable()
        with ParallelNMEngine(small_dataset, GRID, CONFIG, jobs=2) as eng:
            serial = NMEngine(small_dataset, GRID, CONFIG)
            from repro.core.pattern import TrajectoryPattern

            patterns = [
                TrajectoryPattern((c,)) for c in serial.active_cells[:4]
            ]
            eng.nm_batch(patterns)
            snapshot = eng.obs_snapshot()

        assert snapshot["n_spans"] == 2
        assert snapshot["pools"] == ["local-0"]
        assert len(snapshot["spans"]) == 2
        for ordinal, span in enumerate(snapshot["spans"]):
            assert span["span"] == ordinal
            assert span["pool"] == "local-0"
            lo, hi = span["trajectories"]
            assert hi > lo
            assert span["n_entries"] > 0
            assert span["n_evaluations"] == len(patterns)
            assert span["opens"] == 1
            assert "counters" in span["metrics"]
        assert snapshot["n_evaluations"] == 2 * len(patterns)
        assert snapshot["shard_skew"] >= 1.0
        assert snapshot["eval_skew"] == 1.0
        # The gauges land on the global registry too.
        snap = metrics.get_registry().snapshot()
        assert snap["gauges"]["parallel.shard_skew"] == snapshot["shard_skew"]


class TestCliObservability:
    @pytest.fixture
    def dataset_file(self, small_dataset, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(small_dataset, path)
        return path

    def _mine(self, dataset_file, tmp_path, *extra):
        out = tmp_path / "patterns.json"
        code = cli.main(
            [
                "mine",
                str(dataset_file),
                "--output",
                str(out),
                "-k",
                "3",
                "--cell-size",
                "2.0",
                "--delta",
                "1.0",
                *extra,
            ]
        )
        assert code == 0
        return out

    def test_trace_metrics_manifest_outputs(
        self, dataset_file, tmp_path, capsys
    ):
        trace_file = tmp_path / "trace.jsonl"
        metrics_file = tmp_path / "metrics.json"
        out = self._mine(
            dataset_file,
            tmp_path,
            "--jobs",
            "2",
            "--trace-out",
            str(trace_file),
            "--metrics-out",
            str(metrics_file),
            "--manifest-out",
        )
        spans = report.load_trace(trace_file)
        names = {s["name"] for s in spans}
        assert {"run", "miner.mine", "index.build", "engine.nm_batch"} <= names
        assert any(
            (s.get("attrs") or {}).get("shard") is not None for s in spans
        )

        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["counters"]["parallel.workers_started"] == 2
        assert snapshot["parallel"]["n_spans"] == 2

        manifest_path = tmp_path / "patterns.json.manifest.json"
        document = obs_manifest.load_manifest(manifest_path)
        assert document["command"] == "mine"
        assert document["arguments"]["jobs"] == 2
        assert document["runtime"]["wall_time_s"] > 0
        assert document["metrics"]["counters"]

        # `report` renders both artifact kinds.
        capsys.readouterr()
        assert cli.main(["report", str(trace_file)]) == 0
        assert "per-shard spans:" in capsys.readouterr().out
        assert cli.main(["report", str(manifest_path)]) == 0
        rendered = capsys.readouterr().out
        assert "run manifest: mine" in rendered
        assert "spans: 2 over pools local-0" in rendered

    def test_mine_manifest_and_report_show_the_miner(
        self, dataset_file, tmp_path, capsys
    ):
        out = self._mine(dataset_file, tmp_path, "--manifest-out")
        manifest_path = tmp_path / "patterns.json.manifest.json"
        mining = obs_manifest.load_manifest(manifest_path)["metrics"]["mining"]
        # The manifest carries the result file's stats, trace rows included.
        assert mining == json.loads(out.read_text())["stats"]
        assert mining["stop_reason"] in ("converged", "max_iterations")
        assert len(mining["trace"]) == mining["iterations"] >= 1

        capsys.readouterr()
        assert cli.main(["report", str(manifest_path)]) == 0
        rendered = capsys.readouterr().out
        assert (
            f"mining: {mining['stop_reason']} after {mining['iterations']} iterations"
            in rendered
        )
        header = next(line for line in rendered.splitlines() if line.startswith("iteration"))
        assert header.split() == [
            "iteration", "omega", "n_high", "evaluated", "batch", "eval", "time", "rss"
        ]  # fmt: skip
        rows = rendered.split(header, 1)[1].splitlines()[2 : 2 + mining["iterations"]]
        for row, trace in zip(rows, mining["trace"]):
            iteration, omega, n_high, evaluated, batch, _, rss = row.split()
            assert rss == f"{trace['rss_bytes'] / 2**20:.1f}MiB"
            assert trace["rss_bytes"] > 0
            assert int(iteration) == trace["iteration"]
            assert float(omega) == pytest.approx(trace["omega"], rel=1e-5)
            assert int(n_high) == trace["n_high"]
            assert int(evaluated) == trace["candidates_evaluated"]
            assert int(batch) == trace["batch_size"]

    def test_manifest_deterministic_sections_stable(
        self, dataset_file, tmp_path
    ):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        views = []
        for run_dir in (a_dir, b_dir):
            out = run_dir / "patterns.json"
            code = cli.main(
                [
                    "mine",
                    str(dataset_file),
                    "--output",
                    str(out),
                    "-k",
                    "3",
                    "--cell-size",
                    "2.0",
                    "--delta",
                    "1.0",
                    "--manifest-out",
                    str(run_dir / "m.json"),
                ]
            )
            assert code == 0
            document = obs_manifest.load_manifest(run_dir / "m.json")
            view = obs_manifest.deterministic_view(document)
            # The output path is the only argument that differs by design.
            view["arguments"].pop("output")
            view["arguments"].pop("manifest_out")
            views.append(view)
        assert views[0] == views[1]

    def test_obs_state_restored_after_command(self, dataset_file, tmp_path):
        self._mine(
            dataset_file,
            tmp_path,
            "--trace-out",
            str(tmp_path / "t.jsonl"),
            "--metrics-out",
            str(tmp_path / "m.json"),
        )
        assert tracing.get_tracer() is None
        assert not metrics.get_registry().enabled
