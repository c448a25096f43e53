"""Run one command; report its exit code, wall time and max-RSS.

Usage: python3 -S bench/spawn.py <program> <arguments...>

Prints one JSON line ({"returncode", "wall_s", "maxrss_kb"}) and then the
command's standard output unchanged; the command's standard error passes
through.  The wall time runs from the spawn to the exit, and max-RSS comes
from wait4.

The benchmark starts every invocation through this script, run with -S
so that it stays small: Linux counts the resident set of the process that
spawns a command into that command's max-RSS, and ``run.py`` itself
holds more memory than a small ``qident`` run.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 150


def main(argv) -> int:
    out_r, out_w = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_CLOSE, out_r),
    ])
    os.close(out_w)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    chunks = []
    with os.fdopen(out_r, "rb") as out:
        for chunk in iter(lambda: out.read(1 << 16), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    sys.stdout.write(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }) + "\n")
    sys.stdout.flush()
    sys.stdout.buffer.write(b"".join(chunks))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
