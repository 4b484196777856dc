"""The machine's current speed, read off a fixed reference loop.

On a shared host the same code runs up to twice as slow for seconds or
minutes at a time, and the CPUs of a small VM drift apart.  Wall times
taken minutes apart then differ by more than any regression worth
catching.  So the benchmark times a fixed pure-Python loop (its own code,
none of the program's) right before and right after each timed stretch,
and scales that stretch's times by ``REFERENCE_S`` over the loop's time:
a scaled time reads as it would on a machine whose loop takes
``REFERENCE_S``.  The program never runs inside the loop, so a change to
the program moves a scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import os
import statistics
import time

#: The loop time scaled times refer to: a round figure a little above the
#: 3.5 ms the loop takes on a quiet 2.1 GHz Xeon core.
REFERENCE_S = 0.004

#: A probe loops for this share of the stretch it follows, and at least
#: ``MIN_LOOPS`` times (per CPU, when it visits every CPU): the longer the
#: stretch, the longer the look at the machine it needs.  The probe keeps
#: the loops' mean, because a slowdown that hits the loop hits the program.
PROBE_SHARE = 0.05
MIN_LOOPS = 5

#: Every CPU the process may use, read at import, before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def loop() -> float:
    """Seconds one pass of the fixed reference loop takes."""
    began = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        key = i & 1023
        table[key] = (table.get((i * 7) & 1023, 0) + i) % 1_000_003
    sorted(table.values())
    return time.perf_counter() - began


def _loops(seconds: float) -> float:
    """Mean loop time over at least ``MIN_LOOPS`` loops and ``seconds``."""
    times = []
    began = time.perf_counter()
    while len(times) < MIN_LOOPS or time.perf_counter() - began < seconds:
        times.append(loop())
    return statistics.fmean(times)


def probe(stretch_s: float = 0.0, every_cpu: bool = False) -> float:
    """The reference loop's current time, in seconds, after a ``stretch_s`` stretch.

    By default the loop runs where the caller runs, which is the CPU a
    single-threaded workload just ran on.  With ``every_cpu`` the caller
    visits each of ``CPUS`` in turn (and returns to the CPU set it had)
    and gets the mean over them, for work spread over several processes.
    """
    seconds = PROBE_SHARE * stretch_s
    if not every_cpu:
        return _loops(seconds)
    own = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_loops(seconds / len(CPUS)))
    finally:
        os.sched_setaffinity(0, own)
    return statistics.fmean(per_cpu)


def scale(before: float, after: float) -> float:
    """Factor from wall time to scaled time for a stretch between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)
