"""Run one command; write its wall time, exit code and peak RSS to a file.

Usage: python -S spawn.py REPORT_FILE PROGRAM [ARGS...]

Linux carries the peak RSS of the process that executes a program over into
the program's own ``ru_maxrss``. The benchmark process holds checked outputs
in memory, so its children are started from this small process instead,
which keeps each child's reported peak RSS its own.
"""

import os
import sys
import time


def main(argv):
    report, command = argv[0], argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as handle:
        handle.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
