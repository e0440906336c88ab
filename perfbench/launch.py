"""Run one pass of commands one after another and report what each used.

    python3 -S perfbench/launch.py REQUEST.json

REQUEST.json holds {"commands": [{"argv": [...], "stdout": path, "stderr":
path}, ...], "env": {...}, "timeout_s": seconds}.  Each command runs in a
session of its own; a command still running when `timeout_s` has passed since
the start is killed together with its process pool.  The reply on standard
output is {"wall_s": ..., "commands": [{"code", "wall_s", "cpu_s",
"maxrss_kb"}]}, with the wall time of the whole pass and of each command.

The pass runs in this small process rather than in the benchmark itself
because Linux charges a child spawned with vfork the peak resident size of
the process that spawned it: a child's max-RSS can never read below its
parent's.  Started with -S, this process stays near 10 MB, below every
farey-index command, so the reported max-RSS is the command's own.
"""

import json
import math
import os
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(request: dict) -> dict:
    running = {}

    def on_timeout(signum, frame):
        if "pid" in running:
            os.killpg(running["pid"], signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_timeout)
    reports = []
    start = time.perf_counter()
    deadline = start + request["timeout_s"]
    for cmd in request["commands"]:
        actions = [(os.POSIX_SPAWN_OPEN, 1, cmd["stdout"], _WRITE, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, cmd["stderr"], _WRITE, 0o644)]
        began = time.perf_counter()
        signal.alarm(max(1, math.ceil(deadline - began)))
        pid = running["pid"] = os.posix_spawn(cmd["argv"][0], cmd["argv"], request["env"],
                                              file_actions=actions, setsid=True)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        del running["pid"]
        reports.append({"code": os.waitstatus_to_exitcode(status),
                        "wall_s": time.perf_counter() - began,
                        "cpu_s": usage.ru_utime + usage.ru_stime,
                        "maxrss_kb": usage.ru_maxrss})
    return {"wall_s": time.perf_counter() - start, "commands": reports}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        reply = run(json.load(fh))
    sys.stdout.write(json.dumps(reply))
