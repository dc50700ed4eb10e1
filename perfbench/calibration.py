"""A fixed pure-Python loop that measures how fast the interpreter runs now.

On a shared virtual machine the same code runs up to about 1.8 times slower
for stretches of seconds to minutes.  The loop below does the kind of work
qcsp's pure-Python solver does (small objects, dict and set lookups, tuple
and frozenset keys, calls, short sorts), so its time moves with the solver's
under those swings.  ``run.py`` times it between instances and scales each
solve time to a machine on which the loop takes ``REFERENCE_MS``.  The loop
uses nothing from qcsp, so a change to qcsp never moves it.
"""

from __future__ import annotations

import time

# About the loop's usual time on the development machine (2-vCPU VM,
# Python 3.11), so scaled figures stay close to the wall-clock ones there.
REFERENCE_MS = 2.0


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _score(pair, counts):
    return counts.get(pair.left, 0) + (pair.right in counts)


def _loop_ms() -> float:
    start = time.perf_counter()
    counts = {}
    seen = set()
    for i in range(1000):
        pair = _Pair(i % 97, i * 31 % 89)
        key = (pair.left, pair.right)
        if key not in seen:
            seen.add(key)
            counts[pair.left] = counts.get(pair.left, 0) + _score(pair, counts)
        frozenset(sorted([pair.right, pair.left, i % 5]))
    return (time.perf_counter() - start) * 1e3


def calibration_ms() -> float:
    """Milliseconds the fixed loop takes: the least of three passes, so that
    a single preemption of the process does not read as a slow machine."""
    return min(_loop_ms() for _ in range(3))
