"""Host speed probe, run in a process of its own.

    python3 perfbench/hostref.py

For each line read on stdin it runs host_ref() and writes its two times,
in seconds, as one line on stdout.  It runs apart from run.py so that the
benchmark's parent process stays small: a child's ru_maxrss counts the
memory of the process that spawned it, up to the child's exec.
"""

import statistics
import sys
import time

import numpy as np

LOOP = 100_000                  # interpreter part, about 8 ms
ARRAY = np.ones(8_000_000)      # memory part: 64 MB, past the caches, about 8 ms
REPEATS = 5


def host_ref() -> tuple[float, float]:
    """Fixed task with no apmopt code, in two timed parts: a pure-Python
    loop and a numpy reduction over an array larger than the caches.  Each
    is the median of a few repeats, so that one interruption does not count.
    Their times track the host's speed regime for interpreter-bound and for
    memory-bound work, which a regime slows by different amounts."""
    interp, mem = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        t1 = time.perf_counter()
        acc += float(ARRAY.sum())
        interp.append(t1 - t0)
        mem.append(time.perf_counter() - t1)
    return statistics.median(interp), statistics.median(mem)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(*map(repr, host_ref()), flush=True)
