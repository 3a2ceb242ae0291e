"""Machine-speed calibration for the benchmark, in a process of its own.

    python3 perfbench/calibrate.py

builds its table, then answers each line read on standard input with the
seconds one calibration chunk took, and exits at the end of its input.

The shared machine's speed drifts by a third over minutes, and every time
the benchmark takes drifts with it.  A chunk does the memory-bound kind of
work qdiag's sparse rows do, lookups and updates of tuple-keyed dicts larger
than the caches, but runs no qdiag code, so a change to the program cannot
change it; the median of many chunks taken through a run tracks the drift.
The table lives in this process because the harness forks every timed
child, and a child's peak resident set counts the pages it shared with the
harness before it exec'd.
"""

from __future__ import annotations

import random
import sys
import time

KEYS = 200_000


def build() -> tuple:
    """The table and its keys in a fixed shuffled order."""
    rng = random.Random(0)
    table = {(rng.randrange(9), rng.randrange(9), rng.randrange(9), i): i
             for i in range(KEYS)}
    keys = list(table)
    rng.shuffle(keys)
    return table, keys


def chunk(table: dict, keys: list) -> float:
    start = time.perf_counter()
    total = 0
    for key in keys[:60_000]:
        total += table[key]
    counts: dict = {}
    for key in keys[60_000:100_000]:
        counts[key[1:]] = counts.get(key[1:], 0) + 1
    return time.perf_counter() - start


def main() -> int:
    table, keys = build()
    for _ in sys.stdin:
        print(chunk(table, keys), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
