"""Run the cli workload's commands from a small process.

Linux charges the resident set of the process that starts a command to
the command's peak RSS (ru_maxrss) when the command calls exec.  Started
from the benchmark process, every command would report at least that
process's size.  This helper holds only the interpreter, so the figure
is the command's own.

Protocol: one JSON request per stdin line, {"argv": [...], "cwd": "..."};
one JSON reply per line, {"code": int, "out": str, "maxrss_kb": int,
"cpu_s": float}, with stdout and stderr merged into "out" and the
command's user plus system CPU seconds in "cpu_s".
"""

import json
import os
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        proc = subprocess.Popen(
            request["argv"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            cwd=request["cwd"],
        )
        with proc.stdout:
            out = proc.stdout.read().decode("utf-8", "replace")
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode, "out": out, "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
