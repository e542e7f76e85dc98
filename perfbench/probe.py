"""Machine-speed probe: a fixed pure-Python loop, timed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a third and more, for seconds to minutes at a time, as neighbours come and
go; that drift moves every timing alike and is larger than most changes
worth measuring.  The probe runs right after every job and every set-up
sample, and each of those times is scaled by REF_NS / (the probe's time):
it is reported at the machine speed at which the probe takes REF_NS.  The
probe runs no code of the program, so a change to the program does not
move it.
"""

from __future__ import annotations

import time

REF_NS = 4_200_000  # probe time on a 2-core Intel Xeon VM, Python 3.11, host quiet
LOOP = 60_000


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    return time.perf_counter_ns() - t0
