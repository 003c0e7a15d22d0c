"""Machine-speed normalization for the benchmark's timings.

The machine this benchmark was built on (2 vCPUs shared with other
tenants) changes speed by up to a factor of two in phases lasting minutes:
the same 16x16 compile spread by 18-35% between 25-second windows, and a
60-second median of another compile still spread by 25%.  Divided by the
time of the reference task below, measured next to them on the same CPU,
the same compiles and explain loops spread by 4-7%.  So each round first times this
fixed task, which lives outside nnobdd, and every time the round measures
is scaled by ``REFERENCE_S / reference time``: times are reported in
seconds of a machine on which the task takes ``REFERENCE_S``.  A change to
nnobdd moves the scaled times exactly as it moves the raw ones.

The task builds a hash-consed table of 150,000 tuples and probes it in
scattered order, the memory-bound kind of work the node store does.  It
runs in a child process, so that its memory never counts towards the
benchmark's peak RSS.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# median reference time on a quiet run of the build machine; only a unit
REFERENCE_S = 0.12
SAMPLES = 3
ENTRIES = 150_000


def _reference_task() -> int:
    unique: dict = {}
    nodes: list = []
    for i in range(ENTRIES):
        key = (i % 251, i * 7 % 1009, i)
        unique[key] = len(nodes)
        nodes.append(key)
    total = 0
    for i in range(0, ENTRIES, 3):
        total += unique[nodes[i * 7919 % ENTRIES]]
    return total


def _measure() -> float:
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_time() -> float:
    """Median time of the reference task, run in a child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout)


if __name__ == "__main__":
    print(repr(_measure()))
