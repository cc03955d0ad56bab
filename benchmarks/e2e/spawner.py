"""Starts and reaps the benchmark's program processes from a small process.

Linux reports a child's peak RSS (``ru_maxrss`` from ``wait4``) as at
least the peak RSS of the process that spawned it, because ``exec``
starts from the spawner's address space.  ``run.py`` holds reference
results and a whole serving snapshot, so it starts this process first
and has it start and reap every program process; their peak RSS then
has a floor of this process's few MiB.

One JSON request per line on stdin, one reply per line on stdout::

    {"spawn": argv, "log": path}  ->  {"pid": pid, "spawn_ns": t}
    {"wait": pid}                 ->  {"code": c, "exit_ns": t, "maxrss_kib": k}

``spawn`` inserts ``--spawn-ns t`` after ``argv[1]`` (the launcher) and
sends the process's stdout and stderr to ``path``.  Times are
``CLOCK_MONOTONIC`` nanoseconds.  The process exits at end of input.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        if "spawn" in request:
            argv = request["spawn"]
            spawn_ns = time.monotonic_ns()
            pid = os.posix_spawn(
                argv[0],
                [*argv[:2], "--spawn-ns", str(spawn_ns), *argv[2:]],
                os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_OPEN, 1, request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                    (os.POSIX_SPAWN_DUP2, 1, 2),
                ],
            )
            reply = {"pid": pid, "spawn_ns": spawn_ns}
        else:
            _, status, usage = os.wait4(request["wait"], 0)
            reply = {
                "code": os.waitstatus_to_exitcode(status),
                "exit_ns": time.monotonic_ns(),
                "maxrss_kib": usage.ru_maxrss,
            }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
