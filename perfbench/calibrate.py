"""Machine-speed reference for the benchmark's timings.

A shared machine changes speed by tens of percent from one minute to the
next, which would swamp the differences the benchmark exists to show.  So
every run also times a fixed pure-Python loop (exact Fraction arithmetic
and dict updates, the library's own kind of work) before, during and after
its ops.  Reported times are scaled to a machine on which one reference
loop takes REFERENCE_S: scaled = raw * REFERENCE_S / median(reference
samples of the run).  Raw times and the samples stay in the result file.
"""

import statistics
from fractions import Fraction
from time import perf_counter

# Median reference-loop time on a 2-vCPU Intel Xeon, Python 3.11.
REFERENCE_S = 0.0026


def reference_work() -> int:
    """A fixed mix of the library's kinds of work: a growing exact sum, small
    Fractions compared against a threshold, and tuple, list and dict updates."""
    total = Fraction(0)
    below = 0
    table = {}
    for i in range(1, 150):
        total += Fraction(i, i + 3) * Fraction(3, i + 1)
    for i in range(1, 200):
        if Fraction(i, i + 3) * Fraction(3, i + 1) < Fraction(1, 2):
            below += 1
        key = tuple(sorted((i % 11, i % 13, i % 5), reverse=True))
        table[key] = table.get(key, 0) + i
    for i in range(1, 1500):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, 0) + len([x * 2 for x in key])
    return below + len(table) + total.denominator % 7


def sample(repeats: int = 3) -> float:
    """Median time of ``repeats`` reference loops, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)
