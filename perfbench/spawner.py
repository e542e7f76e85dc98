"""Starts commands on request; reports each one's exit code, time and peak RSS.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin,
{"cmd": [...], "cwd": ..., "env": {...}, "stdout": PATH, "stderr": PATH},
runs the command to completion, then the speed probe of perfbench/probe.py,
and answers one JSON line
{"rc": ..., "ns": ..., "probe_ns": ..., "maxrss_kb": ...}.  The peak RSS the
kernel reports for a child also covers the peak of the process that started
it, so the CLI jobs are started from this small process rather than from the
harness, whose memory grows with the outputs it checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from probe import probe_ns


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=req["cwd"], env=req["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            ns = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "ns": ns, "probe_ns": probe_ns(),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
