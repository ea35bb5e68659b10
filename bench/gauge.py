"""A fixed reference computation that gauges how fast the machine runs
right now.

The benchmark runs on a few cores of a shared host whose speed swings by
half or more within a minute, in CPU time as much as in wall time: the
same ops take 5.1 s in one pass and 7.9 s in the next.  A run therefore
times this gauge between ops, outside their timing, and reports every
time at a fixed reference speed: an op's time is multiplied by
``NOMINAL_NS`` over the gauge's time measured next to it.  The gauge is
plain stdlib code of the same kind as the library's (exact rational
arithmetic, a convex hull, tuples and dicts) and never calls the
library, so a change to the library moves the reported times in full
and a change in the machine's speed mostly cancels.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# the gauge's time on a quiet 2-core x86-64 host with CPython 3.11; a
# reported time is what the op would take on a machine where the gauge
# takes this long
NOMINAL_NS = 1_400_000

_rng = random.Random("gauge")
_POINTS = [[(Fraction(_rng.randint(-50, 50), _rng.randint(1, 9)),
             Fraction(_rng.randint(-50, 50), _rng.randint(1, 9))) for _ in range(16)]
           for _ in range(2)]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(pts):
    pts = sorted(set(pts))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _work():
    out = {}
    for k, pts in enumerate(_POINTS):
        h = _hull(pts)
        area = sum((a[0] * b[1] - a[1] * b[0] for a, b in zip(h, h[1:] + h[:1])), Fraction(0))
        out[k] = (tuple(h), area)
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i) * i
    return out, s


def sample() -> int:
    """One timing of the gauge in ns, with the collector off so that
    garbage left by the library cannot land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def scales(at: list[int], samples: list[int], n: int, k: int = 5) -> list[float]:
    """Scale factor to the reference speed for each of ``n`` ops.

    ``samples[j]`` was taken after op ``at[j]``; an op's factor is
    NOMINAL_NS over the median of the ``k`` samples nearest to it."""
    out, j = [], 0
    for i in range(n):
        while j + 1 < len(at) and at[j] < i:
            j += 1
        lo = max(0, min(j - k // 2, len(samples) - k))
        out.append(NOMINAL_NS / statistics.median(samples[lo:lo + k]))
    return out
