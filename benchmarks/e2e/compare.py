"""Compare two checkouts of the program on the end-to-end benchmark.

Usage::

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--pairs 10]

``PARENT`` and ``CHANGE`` are checkouts, each holding ``src/`` and this
benchmark.  Pair ``i`` runs every workload once on each side with seed
``i`` and the run length of the parent's ``BENCHMARK.json``; the side
that runs first alternates from pair to pair.  One row per workload and
metric gives each side's median and quartiles, the share of pairs the
change won (ties count for neither), and a verdict.  The metrics are the
end-to-end metrics of the parent's ``BENCHMARK.json``, with its bounds,
and the workload's own numbers that every run prints (``mine_s``,
``score_p50_ms.r1000``, ...), with the bounds of :data:`NUMBER_BOUNDS`:

* ``gain`` -- the change won at least 9 pairs in 10 and the medians
  differ by more than the parent's interquartile range;
* ``REGRESSION`` -- the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` -- either side's spread (interquartile range over
  median) is wider than the bound, unless every change run beat every
  parent run;
* ``worse`` -- a number without a bound that the change lost the way a
  gain is won;
* ``same`` -- none of these.

Exits 1 on a regression, on more failed operations than the parent, or
on a failed output check; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Bounds of the workload numbers that repeat within 10% between sets of
#: runs on a two-core host: the serving p50s, which the 2 ms batching
#: window dominates, and ``max_rps``.  Every workload must report every
#: end-to-end metric of BENCHMARK.json, so a number defined on one
#: workload has its bound here.  The other numbers (mining times, p99s,
#: ingest acks) do not repeat within 10% and get no bound.
NUMBER_BOUNDS = {
    "score_p50_ms.r1000": 0.10,
    "score_p50_ms.r5000": 0.10,
    "max_rps": 0.10,
    "read_p50_ms": 0.10,
}
HIGHER_IS_BETTER = {"max_rps"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """``(result line, {number: value})`` of one untraced run."""
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    numbers = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            numbers[fields[1]] = float(fields[2])
    return json.loads(lines[-1]), numbers


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound) -> tuple[float, str]:
    """``(share of pairs the change won, verdict)``; ``bound`` may be None."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (p - c) > 0: change better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change)) / len(parent)
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change)) / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pm == 0 or cm == 0:
        return wins, "same" if pm == cm else "unresolved"
    worse_by = sign * (cm - pm) / pm
    apart = abs(cm - pm) > p3 - p1
    if bound is None:
        if wins >= 0.9 and worse_by < 0 and apart:
            return wins, "gain"
        if losses >= 0.9 and worse_by > 0 and apart:
            return wins, "worse"
        return wins, "same"
    always_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max((p3 - p1) / pm, (c3 - c1) / cm) > bound and not always_better:
        return wins, "unresolved"
    if worse_by > bound:
        return wins, "REGRESSION"
    if wins >= 0.9 and worse_by < 0 and apart:
        return wins, "gain"
    return wins, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    results = {(side, w): [] for side in sides for w in workloads}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                results[side, workload].append(
                    run_once(sides[side], workload, pair, seconds)
                )
            print(f"pair {pair + 1}/{args.pairs} {workload} done", file=sys.stderr)

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    bad = False
    print(
        f"{'workload':<13} {'metric':<20} {'parent q1/med/q3':>28} "
        f"{'change q1/med/q3':>28} {'won':>5}  verdict"
    )
    for workload in workloads:
        runs = {side: results[side, workload] for side in sides}
        rows = [
            (name, [r["metrics"][name]["value"] for r, _ in runs["parent"]],
             [r["metrics"][name]["value"] for r, _ in runs["change"]],
             m["better"], m["bound"])
            for name, m in end_to_end.items()
        ]  # fmt: skip
        numbers = [n for n in runs["parent"][0][1] if n not in end_to_end and n != "failed_frac"]
        rows += [
            (name, [n[name] for _, n in runs["parent"]], [n[name] for _, n in runs["change"]],
             "higher" if name in HIGHER_IS_BETTER else "lower", NUMBER_BOUNDS.get(name))
            for name in numbers
        ]  # fmt: skip
        for name, parent, change, better, bound in rows:
            wins, call = verdict(parent, change, better, bound)
            bad |= call == "REGRESSION"
            p, c = quartiles(parent), quartiles(change)
            print(
                f"{workload:<13} {name:<20} "
                f"{p[0]:>9.4g}/{p[1]:>8.4g}/{p[2]:>9.4g} "
                f"{c[0]:>9.4g}/{c[1]:>8.4g}/{c[2]:>9.4g} {wins:>5.0%}  {call}"
            )
        failed = {side: sum(r["failed"] for r, _ in runs[side]) for side in sides}
        if failed["change"] > failed["parent"]:
            print(f"{workload}: change failed {failed['change']} operations, parent {failed['parent']}")
            bad = True
        for side in sides:
            if not all(r["correct"] for r, _ in runs[side]):
                print(f"{workload}: {side} failed an output check")
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
