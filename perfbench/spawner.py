"""Start benchmark children from a small process, so each peak RSS is its own.

A child's `ru_maxrss` counts the memory it shares with its parent between
fork (or vfork) and exec, so a child started by the benchmark process,
which holds the reference model of a large input, would report the
benchmark's size instead of its own. `run.py` starts this helper before it
makes any input and sends it one request per line on stdin:

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

For each request the helper spawns the child with stdin from /dev/null,
waits for it, kills it after `timeout` seconds, and answers with one line:

    {"seconds": WALL, "rss_kb": RU_MAXRSS, "status": WAIT_STATUS}

Wall time runs from just before the spawn to the return of `wait4`. The
helper exits at the end of its stdin.
"""

import json
import os
import signal
import sys
import time

_child = 0


def _kill_child(signum, frame) -> None:
    if _child:
        try:
            os.kill(_child, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main() -> None:
    global _child
    signal.signal(signal.SIGALRM, _kill_child)
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        argv = request["argv"]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], create, 0o644),
        ]
        start = time.perf_counter()
        _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(_child, 0)
        _child = 0
        signal.alarm(0)
        seconds = time.perf_counter() - start
        sys.stdout.write(json.dumps({"seconds": seconds, "rss_kb": usage.ru_maxrss, "status": status}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
