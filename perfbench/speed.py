"""The speed of the core a run gets, from a fixed reference loop timed between the ops.

The benchmark runs on small shared boxes whose cores slow down by up to 1.8x,
because of other tenants, in phases that last from seconds to minutes. So
each op's latency is divided by the time this loop takes around it, and
multiplied by REF_S: the result reads as seconds on a core that runs the loop
in REF_S. Repeating one seed of one workload, the sum of the ops' latencies
varied between runs by 26% raw and 3% scaled on `exact` (five runs), and by
26% raw and 3% scaled on `solve` (four runs). The `metric` ops stream large
numpy arrays, and the loop does not follow their slowdowns: in three trials
of five runs, 16-31% raw and 14-30% scaled, better in one trial and worse in
two.

The loop is pure-Python Fraction and dict arithmetic, like the exact path of
the library, in a fixed amount. It shares no code with the library, so a
change to the library cannot speed it up or slow it down. A change that keeps
a second thread busy would slow it, and part of that cost would be scaled
away; the summary line prints the raw sum too.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The loop's time on an idle core of the 2-vCPU x86-64 box the baseline was
# recorded on (Python 3.11): about the fastest sample seen there.
REF_S = 1.15e-3


def _loop():
    total, counts = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    return total, counts


def sample() -> float:
    """The mean of three timings of the loop."""
    total = 0.0
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        total += time.perf_counter() - start
    return total / 3


def scaled(seconds, samples) -> float:
    """`seconds` in reference time, given the loop samples taken around it."""
    return seconds * REF_S / statistics.median(samples)


def scaled_latencies(run) -> list:
    """The op latencies of a pass in reference time.

    `run.reference[i]` was sampled just before op i and `run.reference[i + 1]`
    just after it. Each latency is scaled by the median of those two and the
    sample before the previous op, so one stray sample does not decide.
    """
    ref = run.reference
    return [scaled(o.seconds, ref[max(0, i - 1):i + 2]) for i, o in enumerate(run.outcomes)]
