"""Run one ``repro`` CLI command in this process, with benchmark hooks.

Usage (from ``run.py``; ``src/`` is on ``PYTHONPATH``)::

    python3 launch.py --spawn-ns N [--ready FILE] [--spans DIR] -- mine ...

``--spawn-ns`` is the parent's ``CLOCK_MONOTONIC`` reading taken just
before it spawned this process.  ``--ready FILE`` writes the clock reading
at the first ``open_store`` call, the end of a mine's set-up.  ``--spans
DIR`` installs the layer wrappers of :mod:`spans` and records the process
start-up (``process.boot``: spawn to the start of the imports;
``process.import``: importing ``repro.cli`` and installing the wrappers)
and the command itself (``cli.main``).
"""

import argparse
import sys
import time


def _mark_ready(path: str) -> None:
    import repro.storage

    inner = repro.storage.open_store
    pending = [True]

    def open_store(*args, **kwargs):
        if pending:
            pending.clear()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(str(time.monotonic_ns()))
        return inner(*args, **kwargs)

    repro.storage.open_store = open_store


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--ready")
    parser.add_argument("--spans")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import_start = time.monotonic_ns()
    import repro.cli

    if args.spans:
        import spans

        recorder = spans.Recorder(args.spans)
        spans.install(recorder)
        spans.wrap(recorder, repro.cli, "main", "cli.main")
        spans.record(recorder, "process.boot", args.spawn_ns, import_start)
        spans.record(recorder, "process.import", import_start, time.monotonic_ns())
    if args.ready:
        _mark_ready(args.ready)
    return repro.cli.main(command)


if __name__ == "__main__":
    sys.exit(main())
