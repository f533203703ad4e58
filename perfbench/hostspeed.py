"""The host's current speed, from a fixed pure-Python reference loop.

The hosts this benchmark runs on drift: the same schedule can take 25%
longer a minute later because a neighbour is busy.  The sim workloads
therefore time this loop between schedules and scale each schedule's
time by ``NOMINAL_S / loop time``, so it reads as the time on a host
that runs the loop in ``NOMINAL_S``.  The loop touches no program code,
so a change to the program cannot move it.  The KV workloads scale
their node CPU time the same way, by the loop's mean CPU time over
samples taken in the client while the plan runs: the host flips
between a fast and a slow state within a fraction of a second, so a
few loops timed while no node runs read either state, and the median
of the samples jumps between the states where the mean follows the
share of time spent in each.  Those samples
share the cores with the nodes, so the program's own load moves them a
little too.  KV latencies are not scaled: they grow faster than
linearly as the host slows (the shard's cores get busier, so requests
queue), which no scale factor undoes; both a loop timed before and
after a run and one timed every 100 ms during it left their spread as
wide or wider.
"""

from __future__ import annotations

import time

#: The loop time the scaled figures are expressed at (seconds).
NOMINAL_S = 0.001


def reference_seconds() -> float:
    """Time one fixed run of dict, tuple, string and call work."""
    begin = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(2100):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + len(str(key))
        pair = (key, i)
        if pair[0] > 1000:
            table.pop(key, None)
    sorted(table.items())
    return time.perf_counter() - begin

