"""CI driver for the live ingest path: feed waves, verify exact republish.

Boots a :class:`PatternServer` with ingest enabled, feeds it three waves of
dead-reckoned trajectory reports over a real socket, and asserts that the
top-k the server republished after the last wave is *identical* -- cells
and NM values, no tolerance -- to a from-scratch
:class:`TrajPatternMiner` run over the final trajectory set.  With
``--window N`` the server keeps only the newest N trajectories, each fold
evicting past the window as it appends, and the reference mines the last
N.  Exits non-zero on any mismatch, so CI fails loudly if the incremental
fold or the warm-started miner ever drifts from the batch path.

Usage::

    PYTHONPATH=src python benchmarks/ingest_driver.py [--k 4] [--waves 3] [--window N]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro.core.engine import NMEngine
from repro.core.trajpattern import TrajPatternMiner
from repro.datagen.zebranet import ZebraNetConfig, ZebraNetGenerator
from repro.mobility.models import LinearModel
from repro.mobility.reporting import (
    ReportingConfig,
    dead_reckon,
    trajectory_from_report,
)
from repro.serve import (
    IngestConfig,
    PatternServer,
    ServeConfig,
    ServingSnapshot,
    SnapshotStore,
    protocol,
)
from repro.trajectory.dataset import TrajectoryDataset


def build_reports(n_objects: int, n_ticks: int, seed: int) -> list[dict]:
    """Dead-reckon a zebra herd into wire-format ingest reports."""
    config = ZebraNetConfig(
        n_groups=max(1, n_objects // 5), zebras_per_group=5, n_ticks=n_ticks
    )
    rng = np.random.default_rng(seed)
    paths = ZebraNetGenerator(config).generate_paths(rng)[:n_objects]
    reporting = ReportingConfig(uncertainty=0.02, confidence_c=2.0)
    return [
        dead_reckon(path, LinearModel(), reporting).to_report(interpolated=True)
        for path in paths
    ]


async def drive(
    server: PatternServer, host: str, port: int, waves: list[list[dict]]
) -> list[dict]:
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_LINE_BYTES
    )
    responses = []
    for i, wave in enumerate(waves):
        writer.write(protocol.encode({"op": "ingest", "id": i, "reports": wave}))
        await writer.drain()
        responses.append(protocol.decode_line(await reader.readline()))
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return responses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--waves", type=int, default=3)
    parser.add_argument("--objects-per-wave", type=int, default=3)
    parser.add_argument("--base-objects", type=int, default=8)
    parser.add_argument("--n-ticks", type=int, default=25)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--window", type=int, default=None)
    args = parser.parse_args(argv)

    total = args.base_objects + args.waves * args.objects_per_wave
    reports = build_reports(total, args.n_ticks, args.seed)
    # Round-trip every report through JSON once, exactly as the wire does,
    # so the reference mine sees bit-identical floats to the server's.
    reports = json.loads(json.dumps(reports))
    base = reports[: args.base_objects]
    waves = [
        reports[
            args.base_objects
            + i * args.objects_per_wave : args.base_objects
            + (i + 1) * args.objects_per_wave
        ]
        for i in range(args.waves)
    ]

    boot_dataset = TrajectoryDataset(
        [trajectory_from_report(r) for r in base]
    )
    snapshot = ServingSnapshot.from_dataset(boot_dataset, version="ci-ingest")
    store = SnapshotStore(snapshot)
    server = PatternServer(
        store,
        ServeConfig(),
        ingest=IngestConfig(k=args.k, remine_every=1, window=args.window),
    )

    async def scenario():
        host, port = await server.start()
        try:
            return await drive(server, host, port, waves)
        finally:
            await server.stop()

    responses = asyncio.run(scenario())
    for i, response in enumerate(responses):
        if not response.get("ok"):
            print(f"FAIL: wave {i} rejected: {response}", file=sys.stderr)
            return 1
        if not response.get("republished"):
            print(f"FAIL: wave {i} did not republish: {response}", file=sys.stderr)
            return 1
    last = responses[-1]
    if last["generation"] != args.waves:
        print(
            f"FAIL: expected generation {args.waves}, got {last['generation']}",
            file=sys.stderr,
        )
        return 1
    if store.current.version != f"ci-ingest+g{args.waves}":
        print(f"FAIL: unexpected version {store.current.version}", file=sys.stderr)
        return 1

    # From-scratch reference over the final trajectory set (the last
    # ``window`` of them with a window), same grid and engine config as
    # the serving snapshot.
    resident = reports if args.window is None else reports[-args.window :]
    final_dataset = TrajectoryDataset(
        [trajectory_from_report(r) for r in resident]
    )
    if last["n_trajectories"] != len(final_dataset):
        print(
            f"FAIL: server holds {last['n_trajectories']} trajectories, "
            f"expected {len(final_dataset)}",
            file=sys.stderr,
        )
        return 1
    fresh = NMEngine(final_dataset, snapshot.grid, snapshot.engine.config)
    expected = TrajPatternMiner(fresh, k=args.k).mine()
    want = [(tuple(p.cells), float(nm)) for p, nm in expected.as_pairs()]
    got = [(tuple(e["cells"]), float(e["nm"])) for e in last["top_k"]]
    if want != got:
        print("FAIL: republished top-k != from-scratch mine", file=sys.stderr)
        print(f"  want: {want}", file=sys.stderr)
        print(f"  got:  {got}", file=sys.stderr)
        return 1
    print(
        f"PASS: {args.waves} waves x {args.objects_per_wave} reports -> "
        f"generation {last['generation']}, top-{args.k} identical to "
        f"from-scratch mine ({len(final_dataset)} trajectories, "
        f"{final_dataset.total_snapshots()} snapshots)"
    )
    for cells, nm in got:
        print(f"  {list(cells)} nm={nm:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
