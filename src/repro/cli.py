"""Command-line interface: ``trajpattern <command>``.

Two families of commands:

* **library commands** operating on user data (JSONL trajectory files or
  ``.tjc`` columnar stores, sniffed by magic): ``mine`` (top-k patterns ->
  pattern file), ``score`` (re-score a pattern file out-of-core),
  ``suggest`` (section 5 parameter guidance), plus the store tooling
  ``convert`` (JSONL/CSV -> ``.tjc``), ``ingest`` (Porto-taxi-style CSV ->
  ``.tjc``) and ``store-info`` (print a store's header);
* **reproduction commands** regenerating the paper's evaluation:
  ``run <experiment>`` (``table1``, ``fig3``, ``fig4``, ``ablations`` or
  ``all``) and ``report`` (everything into one markdown file);
* **serving commands**: ``serve`` (long-running NDJSON/TCP query server
  over a snapshot, :mod:`repro.serve`), ``loadgen`` (drive load against
  it, report latency percentiles; ``--trace-out`` originates a wire
  trace the server joins), ``top`` (live terminal dashboard polling the
  ``stats`` op or tailing a telemetry series) and ``slo`` (evaluate
  error budgets and burn rates over an exported telemetry series).

``mine`` and ``score`` accept the observability flags ``--log-level``,
``--trace-out``, ``--metrics-out`` and ``--manifest-out`` (see
:mod:`repro.obs`), ``serve`` adds ``--export-dir`` (periodic telemetry
export, :mod:`repro.obs.export`), and ``report <files...>`` pretty-prints
span traces (merging several into one tree), run manifests, metric
snapshots or telemetry series.
"""

from __future__ import annotations

import argparse
import sys

# -- reproduction commands ----------------------------------------------------
#
# Every command imports what it runs inside its own body: ``repro.experiments``
# and ``repro.datagen`` pull in networkx and scipy, which the library and
# serving commands should pay for in neither start-up time nor memory.


def _small_fleet():
    from repro.datagen.bus import BusFleetConfig

    return BusFleetConfig(n_routes=3, buses_per_route=4, n_days=3, n_ticks=60)


def _table1(scale: str) -> str:
    from repro.experiments import Table1Config, run_table1

    config = (
        Table1Config(k=30, fleet=_small_fleet(), max_length=6)
        if scale == "small"
        else Table1Config()
    )
    return run_table1(config).render()


def _fig3(scale: str) -> str:
    from repro.experiments import Fig3Config, run_fig3

    config = (
        Fig3Config(k=25, fleet=_small_fleet(), max_length=6)
        if scale == "small"
        else Fig3Config()
    )
    return run_fig3(config).render()


def _fig4(scale: str) -> str:
    from repro.experiments import (
        Fig4Config,
        run_fig4a_k,
        run_fig4b_trajectories,
        run_fig4c_length,
        run_fig4d_grids,
        run_fig4e_delta,
    )

    if scale == "small":
        config = Fig4Config(k=5, n_trajectories=25, n_ticks=40, target_cells=1024)
        panels = [
            run_fig4a_k(config, ks=(3, 5, 10)),
            run_fig4b_trajectories(config, sizes=(15, 25, 50)),
            run_fig4c_length(config, lengths=(20, 40, 80)),
            run_fig4d_grids(config, grid_counts=(256, 1024, 4096)),
            run_fig4e_delta(
                Fig4Config(k=25, n_trajectories=25, n_ticks=40),
                delta_factors=(0.5, 1.0, 2.0, 4.0, 8.0),
            ),
        ]
    else:
        config = Fig4Config()
        panels = [
            run_fig4a_k(config),
            run_fig4b_trajectories(config),
            run_fig4c_length(config),
            run_fig4d_grids(config),
            run_fig4e_delta(config),
        ]
    return "\n\n".join(panel.render() for panel in panels)


def _ablations(scale: str) -> str:
    from repro.experiments import (
        run_interval_sensitivity,
        run_loss_sensitivity,
        run_prob_model_ablation,
        run_pruning_ablation,
    )

    del scale  # the ablations are already laptop-scale
    return "\n\n".join(
        [
            run_pruning_ablation().render(),
            run_prob_model_ablation().render(),
            run_loss_sensitivity().render(),
            run_interval_sensitivity().render(),
        ]
    )


_EXPERIMENTS = {
    "table1": _table1,
    "fig3": _fig3,
    "fig4": _fig4,
    "ablations": _ablations,
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(_EXPERIMENTS[name](args.scale))
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.target:
        from repro.obs.report import render_files

        print(render_files(args.target))
        return 0

    from repro.experiments.report import build_report

    report = build_report()
    report.write(args.output)
    print(f"wrote {args.output} ({len(report.sections)} sections)")
    return 0


# -- library commands -----------------------------------------------------------


def _load_dataset_arg(path):
    """Open a dataset argument: ``.tjc`` store (by magic) or JSONL.

    Returns ``(dataset, store)`` where ``store`` is the open
    :class:`~repro.storage.TrajectoryStore` (``None`` for JSONL).  Store
    datasets are lazy: opening costs O(footer) and trajectories stream
    through bounded reads on demand.
    """
    from repro.storage import is_store_path, open_store

    if is_store_path(path):
        store = open_store(path)
        return store.dataset(), store
    from repro.trajectory.io import load_dataset_jsonl

    return load_dataset_jsonl(path), None


def _store_manifest_extra(store) -> dict:
    """The ``store`` manifest section: provenance of a ``.tjc`` input."""
    return {
        "store": {
            "path": str(store.path),
            "format_version": store.format_version,
            "content_hash": store.content_hash,
            "size_bytes": store.size_bytes,
            "n_trajectories": store.n_trajectories,
            "total_snapshots": store.total_snapshots,
            "compression": store.compression,
            "positions": store.positions,
        }
    }


def _resolve_manifest(manifest_arg: str | None, default_base: str) -> str | None:
    """Resolve ``--manifest-out`` (``"auto"`` -> ``<default_base>.manifest.json``)."""
    if manifest_arg is None:
        return None
    if manifest_arg == "auto":
        return f"{default_base}.manifest.json"
    return manifest_arg


def _obs_setup(args: argparse.Namespace, manifest_out: str | None) -> None:
    """Switch on the observability pieces the flags ask for.

    The manifest embeds a metric snapshot, so requesting one implies
    enabling the metrics registry even without ``--metrics-out``.
    """
    from repro import obs

    obs.configure(
        log_level=args.log_level,
        trace_out=args.trace_out,
        enable_metrics=args.metrics_out is not None or manifest_out is not None,
    )


def _obs_finish(
    args: argparse.Namespace,
    manifest_out: str | None,
    command: str,
    dataset_fingerprint: str,
    config,
    timer,
    extra_metrics: dict | None = None,
    manifest_extra: dict | None = None,
) -> None:
    """Write the metrics/manifest outputs, then return obs to default-off."""
    import json
    from pathlib import Path

    from repro import obs
    from repro.obs import manifest as obs_manifest
    from repro.obs import metrics

    snapshot = metrics.get_registry().snapshot()
    if extra_metrics:
        snapshot.update(extra_metrics)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(snapshot, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote metrics snapshot -> {args.metrics_out}")
    if manifest_out is not None:
        arguments = {
            k: v for k, v in vars(args).items() if k != "func" and v is not None
        }
        document = obs_manifest.build_manifest(
            command=command,
            arguments=arguments,
            dataset_fingerprint=dataset_fingerprint,
            config=config,
            metrics=snapshot,
            wall_time_s=timer.wall_time_s,
            cpu_time_s=timer.cpu_time_s,
            extra=manifest_extra,
        )
        obs_manifest.write_manifest(manifest_out, document)
        print(f"wrote run manifest -> {manifest_out}")
    # Close the trace file and disable the registry so consecutive
    # in-process invocations (tests, notebooks) start from default-off.
    obs.shutdown()


def _cmd_mine(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.core import index_cache, kernels
    from repro.core.engine import EngineConfig, NMEngine
    from repro.core.parameters import suggest_parameters
    from repro.core.results_io import save_mining_result, stats_document
    from repro.core.trajpattern import TrajPatternMiner
    from repro.obs import manifest as obs_manifest
    from repro.obs import tracing

    manifest_out = _resolve_manifest(args.manifest_out, args.output)
    _obs_setup(args, manifest_out)

    dataset, store = _load_dataset_arg(args.dataset)
    if args.cell_size and args.gamma is not None:
        # Everything a suggestion would provide was pinned on the command
        # line, so skip the full-dataset statistics scan -- this is what
        # keeps store-backed mining O(footer) before the engines start.
        cell, gamma = args.cell_size, args.gamma
    else:
        suggestion = suggest_parameters(dataset)
        cell = args.cell_size if args.cell_size else suggestion.cell_size
        gamma = args.gamma if args.gamma is not None else suggestion.gamma
    delta = args.delta if args.delta else cell
    grid = dataset.make_grid(cell)
    engine_config = EngineConfig(
        delta=delta,
        min_prob=args.min_prob,
        cache_dir=args.cache_dir,
        backend=args.backend,
        radius_sigmas=args.radius_sigmas,
    )
    parallel_snapshot = None
    with obs_manifest.RunTimer() as timer:
        with tracing.span("run", command="mine", dataset=str(args.dataset)):
            with ExitStack() as stack:
                if args.jobs > 1:
                    from repro.core.parallel import ParallelNMEngine

                    engine = stack.enter_context(
                        ParallelNMEngine(dataset, grid, engine_config, jobs=args.jobs)
                    )
                else:
                    engine = NMEngine(dataset, grid, engine_config)
                print(
                    f"dataset: {len(dataset)} trajectories, grid {grid.nx}x{grid.ny}, "
                    f"delta {delta:.6g}, jobs {args.jobs}, "
                    f"backend {engine.backend_name}"
                    + (", index cache hit" if engine.index_cache_hit else "")
                )
                result = TrajPatternMiner(
                    engine,
                    k=args.k,
                    min_length=args.min_length,
                    max_length=args.max_length,
                ).mine(discover_groups=True, gamma=gamma)
                if hasattr(engine, "obs_snapshot"):
                    parallel_snapshot = engine.obs_snapshot()
            save_mining_result(result, grid, args.output)
    print(
        f"mined {len(result)} patterns (mean length {result.mean_length():.2f}, "
        f"{result.stats.wall_time_s:.1f}s, {result.stats.stop_reason} after "
        f"{result.stats.iterations} iterations) -> {args.output}"
    )
    for pattern, nm in result.as_pairs()[: args.show]:
        print(f"  NM {nm:12.2f}  {pattern.cells}")
    _obs_finish(
        args,
        manifest_out,
        command="mine",
        dataset_fingerprint=index_cache.dataset_fingerprint(dataset),
        config=engine_config,
        timer=timer,
        extra_metrics={
            "kernel_backend": kernels.backend_summary(engine_config),
            "mining": stats_document(result.stats),
            **({"parallel": parallel_snapshot} if parallel_snapshot else {}),
        },
        manifest_extra=_store_manifest_extra(store) if store is not None else None,
    )
    if store is not None:
        store.close()
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    from repro.core import kernels
    from repro.core.engine import EngineConfig
    from repro.core.parallel import ParallelNMEngine
    from repro.core.results_io import load_mining_result
    from repro.core.trajpattern import verify_top_k
    from repro.obs import manifest as obs_manifest
    from repro.obs import tracing
    from repro.storage import is_store_path, open_as_store

    manifest_out = _resolve_manifest(args.manifest_out, args.dataset)
    _obs_setup(args, manifest_out)

    result, grid = load_mining_result(args.patterns)
    engine_config = EngineConfig(
        delta=args.delta,
        min_prob=args.min_prob,
        cache_dir=args.cache_dir,
        backend=args.backend,
    )
    store_extra = None
    with obs_manifest.RunTimer() as timer:
        with tracing.span("run", command="score", dataset=str(args.dataset)):
            with open_as_store(args.dataset) as dataset:
                # The inline pool keeps one span index resident at a time;
                # --chunk-size sets the span count (spans balance snapshots).
                n_spans = -(-len(dataset) // args.chunk_size)
                with ParallelNMEngine(
                    dataset, grid, engine_config, jobs=n_spans, pools=("inline",)
                ) as engine:
                    verified = verify_top_k(
                        engine, result.patterns, k=len(result.patterns)
                    )
                    snapshot = engine.obs_snapshot()
                fingerprint = dataset.store.content_hash
                if is_store_path(args.dataset):
                    store_extra = _store_manifest_extra(dataset.store)
    print(f"re-scored {len(verified)} patterns against {args.dataset}:")
    for pattern, nm in verified[: args.show]:
        print(f"  NM {nm:12.2f}  {pattern.cells}")
    _obs_finish(
        args,
        manifest_out,
        command="score",
        dataset_fingerprint=fingerprint,
        config=engine_config,
        timer=timer,
        extra_metrics={
            "kernel_backend": kernels.backend_summary(engine_config),
            "streaming": {
                "chunks_scanned": snapshot["span_opens"],
                "span_cache_hits": snapshot["span_cache_hits"],
            },
        },
        manifest_extra=store_extra,
    )
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.core.parameters import suggest_parameters

    dataset, store = _load_dataset_arg(args.dataset)
    try:
        print(suggest_parameters(dataset).render())
    finally:
        if store is not None:
            store.close()
    return 0


# -- store commands -----------------------------------------------------------


def _writer_kwargs(args: argparse.Namespace) -> dict:
    """Shared ``StoreWriter`` options for ``convert`` and ``ingest``."""
    kwargs: dict = {
        "compression": args.compression,
        "positions": "q32" if args.quant_scale else "f64",
    }
    if args.quant_scale:
        kwargs["quant_scale"] = args.quant_scale
    if getattr(args, "timestamps", False):
        kwargs["store_times"] = True
    return kwargs


def _print_store_summary(summary: dict) -> None:
    ratio = (
        summary["source_bytes"] / summary["size_bytes"]
        if summary["size_bytes"]
        else 0.0
    )
    print(
        f"wrote {summary['path']}: {summary['n_trajectories']} trajectories, "
        f"{summary['total_snapshots']} snapshots, "
        f"{summary['size_bytes']} bytes ({ratio:.2f}x vs source)"
    )


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.storage import convert_csv_to_store, convert_jsonl_to_store

    if args.format == "csv" or (
        args.format == "auto" and args.source.lower().endswith(".csv")
    ):
        summary = convert_csv_to_store(
            args.source,
            args.output,
            default_sigma=args.default_sigma,
            **_writer_kwargs(args),
        )
    else:
        summary = convert_jsonl_to_store(
            args.source, args.output, **_writer_kwargs(args)
        )
    _print_store_summary(summary)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.storage import ingest_porto_csv

    summary = ingest_porto_csv(
        args.source,
        args.output,
        sigma=args.sigma,
        dt=args.dt,
        skip_malformed=not args.no_skip_malformed,
        **_writer_kwargs(args),
    )
    _print_store_summary(summary)
    if summary.get("n_skipped"):
        print(f"skipped {summary['n_skipped']} malformed rows")
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    import json

    from repro.storage import open_store

    with open_store(args.store) as store:
        print(json.dumps(store.describe(), indent=2))
    return 0


# -- serving commands ---------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import obs
    from repro.serve import (
        IngestConfig,
        PatternServer,
        ServeConfig,
        ServingSnapshot,
        SnapshotStore,
    )

    obs.configure(
        log_level=args.log_level,
        trace_out=args.trace_out,
        enable_metrics=args.metrics_out is not None or args.export_dir is not None,
    )
    exporter = None
    if args.export_dir is not None:
        from repro.obs.export import TelemetryExporter

        exporter = TelemetryExporter(
            args.export_dir, interval_s=args.export_interval
        )
        exporter.start()
        print(
            f"exporting telemetry -> {exporter.series_path} "
            f"(every {exporter.interval_s:g}s)",
            flush=True,
        )
    # Only the store references the boot snapshot, so a swap that replaces
    # it frees its engine and closes its store file.
    store = SnapshotStore(
        ServingSnapshot.load(
            args.snapshot,
            cache_dir=args.cache_dir,
            backend=args.backend,
        )
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_queue=args.max_queue,
        default_timeout_ms=args.timeout_ms,
        fallback_model=args.fallback_model,
        allow_shutdown=not args.no_shutdown,
        cache_dir=args.cache_dir,
    )
    ingest = None
    if args.ingest:
        ingest = IngestConfig(
            k=args.ingest_k,
            remine_every=args.ingest_every,
            window=args.ingest_window,
            min_length=args.ingest_min_length,
        )

    async def run() -> None:
        server = PatternServer(store, config, ingest=ingest)
        host, port = await server.start()
        print(
            f"serving snapshot {store.current.version} on {host}:{port} "
            f"(batch<={config.max_batch}, window {config.max_delay_ms}ms, "
            f"queue<={config.max_queue}, "
            f"backend {store.current.engine.backend_name}"
            + (
                f", ingest k={ingest.k} every {ingest.remine_every} batch(es)"
                + (f" window {ingest.window}" if ingest.window else "")
                if ingest is not None
                else ""
            )
            + ")",
            flush=True,
        )
        await server.serve_until_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        if exporter is not None:
            exporter.stop()
        if args.metrics_out:
            import json
            from pathlib import Path

            from repro.obs import metrics

            Path(args.metrics_out).write_text(
                json.dumps(metrics.get_registry().snapshot(), indent=2) + "\n",
                encoding="utf-8",
            )
        obs.shutdown()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro import obs
    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    if args.trace_out:
        obs.configure(trace_out=args.trace_out)
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        requests=args.requests,
        concurrency=args.concurrency,
        qps=args.qps,
        op=args.op,
        measure=args.measure,
        patterns_per_request=args.patterns_per_request,
        timeout_ms=args.timeout_ms,
        seed=args.seed,
        trace=args.trace_out is not None,
    )
    try:
        report = asyncio.run(run_loadgen(config))
    finally:
        if args.trace_out:
            obs.shutdown()
    if args.json_out:
        from pathlib import Path

        Path(args.json_out).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    latency = report["latency"]
    print(
        f"{report['mode']}-loop {report['op']}: {report['ok']}/{report['sent']} ok, "
        f"{report['overloaded']} overloaded, {report['errors']} errors, "
        f"{report['achieved_qps']:.0f} req/s"
    )
    if latency["p50_ms"] is not None:
        print(
            f"latency ms: p50 {latency['p50_ms']:.2f}  p95 {latency['p95_ms']:.2f}  "
            f"p99 {latency['p99_ms']:.2f}  max {latency['max_ms']:.2f}"
        )
    if report["shed_reasons"]:
        reasons = "  ".join(
            f"{reason} {count}"
            for reason, count in sorted(report["shed_reasons"].items())
        )
        print(f"shed: {reasons}")
    if report.get("trace_id"):
        print(f"trace: {report['trace_id']} -> {args.trace_out}")
    return 0 if report["errors"] == 0 else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import TopConfig, run_top

    config = TopConfig(
        host=args.host,
        port=args.port,
        interval_s=args.interval,
        once=args.once,
        series=args.series,
    )
    return run_top(config)


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_address(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` for worker/router listen flags."""
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist.worker import run_worker

    host, port = args.listen
    run_worker(args.store, host=host, port=port, name=args.name)
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    import asyncio

    from repro.dist.router import RouterConfig, run_router

    host, port = args.listen
    config = RouterConfig(
        host=host,
        port=port,
        replicas=tuple(args.replica),
        stats_interval_s=args.stats_interval,
    )
    try:
        asyncio.run(run_router(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs import slo as slo_mod
    from repro.obs.export import load_series

    records = load_series(args.series)
    if not records:
        print(f"slo: no telemetry records in {args.series}", file=sys.stderr)
        return 1
    objectives = (
        slo_mod.load_slo_spec(args.spec)
        if args.spec
        else slo_mod.DEFAULT_OBJECTIVES
    )
    results = slo_mod.evaluate_slos(records, objectives)
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(slo_mod.render_slo_report(results))
    return 0 if all(r["ok"] for r in results) else 1


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.testkit.oracle import DEFAULT_SEEDS, run_oracle

    seeds = (
        [int(s) for s in args.seeds.split(",") if s.strip()]
        if args.seeds
        else list(DEFAULT_SEEDS)
    )
    jobs_grid = [int(j) for j in args.jobs_grid.split(",") if j.strip()]
    failures = 0
    for seed in seeds:
        report = run_oracle(
            seed,
            quick=args.quick,
            jobs_grid=jobs_grid,
            include_serve=not args.no_serve,
            include_dist=args.dist,
            backends=args.backends,
        )
        print(report.describe())
        if not report.ok:
            failures += 1
    mode = "quick" if args.quick else "full"
    if args.dist:
        mode += "+dist"
    print(
        f"selfcheck ({mode}): {len(seeds) - failures}/{len(seeds)} seeds agree "
        f"across all execution paths"
    )
    return 0 if failures == 0 else 1


# -- entry point -------------------------------------------------------------------


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """Kernel-backend flags shared by the engine-building commands."""
    group = parser.add_argument_group("kernel backend")
    group.add_argument(
        "--backend",
        choices=["numpy", "compiled", "auto"],
        default="auto",
        help=(
            "numeric kernel backend: 'compiled' (native loops; falls back to "
            "numpy with a warning when no toolchain is available), 'numpy' "
            "(the reference), or 'auto' (compiled when available; default)"
        ),
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the ``mine`` and ``score`` commands."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        default=None,
        dest="log_level",
        help="emit structured JSON logs at this level (DEBUG, INFO, ...)",
    )
    group.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help="write a span trace (JSONL) of the run to this file",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        dest="metrics_out",
        help="write a metric snapshot (JSON) of the run to this file",
    )
    group.add_argument(
        "--manifest-out",
        nargs="?",
        const="auto",
        default=None,
        dest="manifest_out",
        help=(
            "write a run manifest (git sha, config, dataset hash, metrics, "
            "resource footprint); without a value, '<output>.manifest.json'"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajpattern",
        description=(
            "TrajPattern (EDBT 2006): mine sequential patterns from imprecise "
            "trajectories, and reproduce the paper's experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("run", help="run a paper experiment")
    exp.add_argument("experiment", choices=sorted(_EXPERIMENTS) + ["all"])
    exp.add_argument("--scale", choices=["small", "paper"], default="small")
    exp.set_defaults(func=_cmd_experiment)

    report = sub.add_parser(
        "report",
        help=(
            "write the full reproduction report, or pretty-print trace / "
            "manifest / metrics / telemetry files"
        ),
    )
    report.add_argument(
        "target",
        nargs="*",
        default=[],
        help=(
            "span traces (JSONL; several merge into one tree), a run "
            "manifest, a metrics snapshot or a telemetry series to render; "
            "omitted: build the reproduction report"
        ),
    )
    report.add_argument("--output", default="REPORT.md")
    report.set_defaults(func=_cmd_report)

    mine = sub.add_parser(
        "mine", help="mine top-k patterns from a JSONL or .tjc dataset"
    )
    mine.add_argument("dataset", help="trajectory JSONL file or .tjc columnar store")
    mine.add_argument("--output", default="patterns.json")
    mine.add_argument("-k", type=int, default=20)
    mine.add_argument("--min-length", type=int, default=2, dest="min_length")
    mine.add_argument("--max-length", type=int, default=8, dest="max_length")
    mine.add_argument("--cell-size", type=float, default=None, dest="cell_size")
    mine.add_argument("--delta", type=float, default=None)
    mine.add_argument("--min-prob", type=float, default=1e-5, dest="min_prob")
    mine.add_argument(
        "--radius-sigmas",
        type=float,
        default=None,
        dest="radius_sigmas",
        help=(
            "index-build enumeration radius in sigmas (default: derived "
            "from --min-prob so no above-floor cell is missed)"
        ),
    )
    mine.add_argument(
        "--gamma",
        type=float,
        default=None,
        help=(
            "group-discovery distance threshold; giving both --cell-size and "
            "--gamma skips the parameter-suggestion scan of the dataset"
        ),
    )
    mine.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for sharded evaluation (1 = in-process)",
    )
    mine.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="directory for the persistent index cache (off when omitted)",
    )
    mine.add_argument("--show", type=int, default=10)
    _add_backend_arguments(mine)
    _add_obs_arguments(mine)
    mine.set_defaults(func=_cmd_mine)

    score = sub.add_parser(
        "score", help="re-score a pattern file against a dataset (out-of-core)"
    )
    score.add_argument("patterns", help="pattern file from \'mine\'")
    score.add_argument("dataset", help="trajectory JSONL file or .tjc columnar store")
    score.add_argument("--delta", type=float, required=True)
    score.add_argument("--min-prob", type=float, default=1e-5, dest="min_prob")
    score.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=64,
        dest="chunk_size",
        help="cut ceil(n / CHUNK_SIZE) spans balanced by snapshot count; "
        "one span index is resident at a time",
    )
    score.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="directory for per-span index caches (off when omitted)",
    )
    score.add_argument("--show", type=int, default=10)
    _add_backend_arguments(score)
    _add_obs_arguments(score)
    score.set_defaults(func=_cmd_score)

    suggest = sub.add_parser(
        "suggest", help="suggest delta/grid/gamma for a dataset (section 5)"
    )
    suggest.add_argument("dataset", help="trajectory JSONL file or .tjc columnar store")
    suggest.set_defaults(func=_cmd_suggest)

    def _add_writer_arguments(parser: argparse.ArgumentParser) -> None:
        group = parser.add_argument_group("store encoding")
        group.add_argument(
            "--compression",
            choices=["none", "zlib"],
            default="none",
            help=(
                "per-chunk compression; 'none' (default) reads chunks as "
                "stored, 'zlib' trades decompression on every read for size"
            ),
        )
        group.add_argument(
            "--quant-scale",
            type=float,
            default=None,
            dest="quant_scale",
            help=(
                "quantise positions to an int32 lattice of this pitch "
                "(lossy; omitted: exact float64)"
            ),
        )

    convert = sub.add_parser(
        "convert",
        help="convert a JSONL or CSV trajectory file to a .tjc columnar store",
    )
    convert.add_argument("source", help="trajectory JSONL or CSV file")
    convert.add_argument("output", help="destination .tjc path (written atomically)")
    convert.add_argument(
        "--format",
        choices=["auto", "jsonl", "csv"],
        default="auto",
        help="source format (default: csv for *.csv, else jsonl)",
    )
    convert.add_argument(
        "--timestamps",
        action="store_true",
        help="also store per-snapshot timestamps (delta-encoded ticks)",
    )
    convert.add_argument(
        "--default-sigma",
        type=float,
        default=None,
        dest="default_sigma",
        help="CSV only: sigma for rows without a sigma column",
    )
    _add_writer_arguments(convert)
    convert.set_defaults(func=_cmd_convert)

    ingest = sub.add_parser(
        "ingest",
        help=(
            "ingest a Porto-taxi-style CSV (POLYLINE column of [lon, lat] "
            "fixes) into a .tjc columnar store"
        ),
    )
    ingest.add_argument("source", help="CSV file with a POLYLINE column")
    ingest.add_argument("output", help="destination .tjc path (written atomically)")
    ingest.add_argument(
        "--sigma",
        type=float,
        required=True,
        help="positional uncertainty assigned to every GPS fix (degrees)",
    )
    ingest.add_argument(
        "--dt",
        type=float,
        default=15.0,
        help="seconds between consecutive fixes (Porto samples at 15s)",
    )
    ingest.add_argument(
        "--no-skip-malformed",
        action="store_true",
        dest="no_skip_malformed",
        help="fail on malformed rows instead of counting and skipping them",
    )
    _add_writer_arguments(ingest)
    ingest.set_defaults(func=_cmd_ingest)

    store_info = sub.add_parser(
        "store-info", help="print a .tjc store's header as JSON (O(footer))"
    )
    store_info.add_argument("store", help=".tjc columnar store")
    store_info.set_defaults(func=_cmd_store_info)

    serve = sub.add_parser(
        "serve",
        help="serve pattern scoring / prediction queries over NDJSON TCP",
    )
    serve.add_argument(
        "snapshot",
        help="snapshot directory (dataset.tjc or dataset.jsonl [+ "
        "patterns.json, serve.json]) or a bare dataset file (JSONL or .tjc)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7706)
    serve.add_argument("--max-batch", type=int, default=64, dest="max_batch")
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        dest="max_delay_ms",
        help="micro-batching window: the most latency an isolated request "
        "pays waiting for company",
    )
    serve.add_argument("--max-queue", type=int, default=512, dest="max_queue")
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=1000.0,
        dest="timeout_ms",
        help="default per-request deadline (clients may override)",
    )
    serve.add_argument(
        "--fallback-model",
        choices=["lm", "lkf", "rmf"],
        default="lm",
        dest="fallback_model",
        help="dead-reckoning model answering degraded predictions",
    )
    serve.add_argument(
        "--no-shutdown",
        action="store_true",
        dest="no_shutdown",
        help="refuse the remote 'shutdown' op",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="persistent index cache; makes snapshot loads/swaps warm-start",
    )
    serve.add_argument(
        "--ingest",
        action="store_true",
        help="enable the 'ingest' op: fold live report batches into an "
        "incremental index and republish snapshots on a cadence",
    )
    serve.add_argument(
        "--ingest-k",
        type=int,
        default=8,
        dest="ingest_k",
        help="top-k re-mined on each republish (default 8)",
    )
    serve.add_argument(
        "--ingest-every",
        type=int,
        default=1,
        dest="ingest_every",
        help="republish cadence in ingest batches (default 1 = every batch)",
    )
    serve.add_argument(
        "--ingest-window",
        type=int,
        default=None,
        dest="ingest_window",
        help="sliding window: max resident trajectories; the oldest beyond "
        "it are evicted after each append (default unbounded)",
    )
    serve.add_argument(
        "--ingest-min-length",
        type=int,
        default=1,
        dest="ingest_min_length",
        help="minimum pattern length for the re-mine (default 1)",
    )
    _add_backend_arguments(serve)
    serve.add_argument("--log-level", default=None, dest="log_level")
    serve.add_argument("--trace-out", default=None, dest="trace_out")
    serve.add_argument("--metrics-out", default=None, dest="metrics_out")
    serve.add_argument(
        "--export-dir",
        default=None,
        dest="export_dir",
        help=(
            "periodically export telemetry (JSONL series + Prometheus text) "
            "into this directory; implies metrics collection"
        ),
    )
    serve.add_argument(
        "--export-interval",
        type=float,
        default=10.0,
        dest="export_interval",
        help="telemetry export cadence in seconds (default 10)",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="drive load against a running 'repro serve' instance"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7706)
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument(
        "--qps",
        type=float,
        default=None,
        help="open-loop target rate (omitted: closed loop at --concurrency)",
    )
    loadgen.add_argument("--op", choices=["score", "predict", "mixed"], default="score")
    loadgen.add_argument("--measure", choices=["nm", "match"], default="nm")
    loadgen.add_argument(
        "--patterns-per-request",
        type=int,
        default=1,
        dest="patterns_per_request",
    )
    loadgen.add_argument("--timeout-ms", type=float, default=None, dest="timeout_ms")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--json-out",
        default=None,
        dest="json_out",
        help="also write the full report as JSON to this file",
    )
    loadgen.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help=(
            "originate a client-side trace (JSONL to this file) and attach "
            "its context to every request, so the server's spans join it"
        ),
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    top = sub.add_parser(
        "top",
        help=(
            "live terminal dashboard for a running server (poll 'stats', or "
            "tail a telemetry series with --series)"
        ),
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7706)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh cadence in seconds (default 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (non-zero when the source is down)",
    )
    top.add_argument(
        "--series",
        default=None,
        help="tail this telemetry.jsonl instead of polling the server",
    )
    top.set_defaults(func=_cmd_top)

    slo = sub.add_parser(
        "slo",
        help=(
            "evaluate SLO error budgets and burn rates over an exported "
            "telemetry series (exit non-zero on violation)"
        ),
    )
    slo.add_argument("series", help="telemetry.jsonl written by serve --export-dir")
    slo.add_argument(
        "--spec",
        default=None,
        help="JSON SLO spec ({'objectives': [...]}); omitted: built-in defaults",
    )
    slo.add_argument(
        "--json",
        action="store_true",
        help="emit the full evaluation as JSON instead of the table",
    )
    slo.set_defaults(func=_cmd_slo)

    worker = sub.add_parser(
        "worker",
        help=(
            "run a remote worker pool: open the local copy of a .tjc store "
            "and evaluate (store_hash, lo, hi) spans shipped by a "
            "ParallelNMEngine coordinator over NDJSON/TCP"
        ),
    )
    worker.add_argument("store", help="path to this host's copy of the .tjc store")
    worker.add_argument(
        "--listen",
        type=_parse_address,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="listen address (port 0 picks a free port; default 127.0.0.1:0)",
    )
    worker.add_argument(
        "--name", default="", help="pool name shown in coordinator logs"
    )
    worker.set_defaults(func=_cmd_worker)

    router = sub.add_parser(
        "router",
        help=(
            "fan serving requests across PatternServer replicas "
            "(least-queue-depth routing, fleet-wide snapshot swaps)"
        ),
    )
    router.add_argument(
        "--listen",
        type=_parse_address,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="listen address (port 0 picks a free port; default 127.0.0.1:0)",
    )
    router.add_argument(
        "--replica",
        type=_parse_address,
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="replica address (repeat for each PatternServer)",
    )
    router.add_argument(
        "--stats-interval",
        type=float,
        default=2.0,
        dest="stats_interval",
        help="seconds between replica queue-depth polls (default 2.0)",
    )
    router.set_defaults(func=_cmd_router)

    selfcheck = sub.add_parser(
        "selfcheck",
        help=(
            "differential oracle: check that every execution path (scalar, "
            "batched, parallel shards, cold/warm cache, streaming, live "
            "server) agrees on NM/match scores for seeded datasets"
        ),
    )
    selfcheck.add_argument(
        "--seeds",
        default=None,
        help="comma-separated dataset seeds (default: the built-in trio)",
    )
    selfcheck.add_argument(
        "--jobs-grid",
        default="1,2,4",
        dest="jobs_grid",
        help="comma-separated parallel worker counts to check (default 1,2,4)",
    )
    selfcheck.add_argument(
        "--quick",
        action="store_true",
        help="smaller datasets and frontiers (CI-sized; same path coverage)",
    )
    selfcheck.add_argument(
        "--no-serve",
        action="store_true",
        dest="no_serve",
        help="skip the live-server round-trip path",
    )
    selfcheck.add_argument(
        "--dist",
        action="store_true",
        help=(
            "additionally check the distributed path: a loopback worker "
            "pool plus a local fork pool behind one ParallelNMEngine, "
            "compared bit-for-bit against the same-width fork-pool run"
        ),
    )
    selfcheck.add_argument(
        "--backends",
        choices=["default", "all"],
        default="default",
        help=(
            "'all': additionally score the frontier on the compiled kernel "
            "backend (reported as an explicit skip when it is unavailable)"
        ),
    )
    selfcheck.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
