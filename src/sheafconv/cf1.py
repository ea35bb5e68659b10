"""Compactly supported, piecewise-constant integer functions on the line.

Canonical form: strictly increasing breakpoints b_1 < ... < b_k, the
value at each breakpoint, and the value on each open gap between
consecutive breakpoints.  Outside [b_1, b_k] the value is zero, and no
breakpoint is removable (a removable one would have point value equal to
both adjacent gap values).  These functions are the Euler-characteristic
shadows of interval sheaves and the 1-D targets of linear pushforwards;
they carry an exact Euler convolution.

Every function here is built one way, by cf1_from_atoms: atoms, point
masses {x: c} and open plateaus c on ]u, v[, at integer positions over
one denominator, summed by one sorted difference sweep over their ends.
The running sum of plateaus opened minus plateaus closed is the gap
value, and a breakpoint takes the gap value on its left, less the
plateaus closing there, plus its point mass.  O(m log m) for m atoms,
with no pointwise evaluation.  A convolution scales both operands'
breakpoints once over their common denominator, a sheaf's shadow reads
the sheaf's own integer ends and denominator as they are, a pushforward
reads its terms' extents over theirs (cfun), and each surviving
breakpoint becomes a Fraction once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .rational import fmt_rat, lattice_point, rat, signed_sum
from . import sheaf1
from .sheaf1 import LEFT_OPEN, RIGHT_OPEN


@dataclass(frozen=True)
class Cf1:
    breaks: tuple[Fraction, ...]
    point_values: tuple[int, ...]
    gap_values: tuple[int, ...]  # len(breaks) - 1 interior gaps

    def __post_init__(self):
        k = len(self.breaks)
        if len(self.point_values) != k or len(self.gap_values) != max(k - 1, 0):
            raise InvariantViolation("Cf1 field lengths are inconsistent")
        if any(self.breaks[i] >= self.breaks[i + 1] for i in range(k - 1)):
            raise InvariantViolation("Cf1 breakpoints must be strictly increasing")

    @property
    def is_zero(self) -> bool:
        return not self.breaks

    def __call__(self, t) -> int:
        t = rat(t)
        if not self.breaks or t < self.breaks[0] or t > self.breaks[-1]:
            return 0
        i = bisect.bisect_left(self.breaks, t)
        if i < len(self.breaks) and self.breaks[i] == t:
            return self.point_values[i]
        return self.gap_values[i - 1]

    def to_json(self) -> dict:
        return {
            "breakpoints": [fmt_rat(b) for b in self.breaks],
            "point_values": list(self.point_values),
            "gap_values": list(self.gap_values),
        }


def cf1_from_atoms(points: dict[int, int], opens: list[tuple[int, int, int]], den: int) -> Cf1:
    """Canonical Cf1 of sum c_x 1_{x/den} + sum c 1_{]u/den, v/den[} (every
    u < v) from integer positions over den > 0, by one sorted difference
    sweep; removable breakpoints are stripped, and each surviving one
    becomes a Fraction once."""
    # one pass fills both maps, at half the cost of two signed sums over opens
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for u, v, c in opens:
        starts[u] = starts.get(u, 0) + c
        ends[v] = ends.get(v, 0) + c
    breaks, pv, gv = [], [], []
    run = 0  # value on the gap left of x
    for x in sorted(points.keys() | starts.keys() | ends.keys()):
        left = run
        at = left - ends.get(x, 0)
        run = at + starts.get(x, 0)
        at += points.get(x, 0)
        if at == left == run:
            continue
        if breaks:
            gv.append(left)
        breaks.append(x)
        pv.append(at)
    return Cf1(tuple(Fraction(x, den) for x in breaks), tuple(pv), tuple(gv))


def _atoms(f: Cf1, X: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Exact decomposition into point masses and open-gap plateaus, with
    the breakpoints at the integer positions X."""
    points = [(x, v) for x, v in zip(X, f.point_values) if v]
    gaps = [(X[i], X[i + 1], v) for i, v in enumerate(f.gap_values) if v]
    return points, gaps


def cf1_convolve(f: Cf1, g: Cf1) -> Cf1:
    """Euler convolution (f * g)(t) = integral of f(x) g(t-x) d(chi).

    On atoms: point*point is a point mass, point*gap shifts the gap, and
    gap*gap contributes -1 times the product on the open sum interval
    (an open interval has compactly supported Euler characteristic -1).
    Both operands' breakpoints are scaled once over one common
    denominator, so the positions add as ints.
    """
    X, den = lattice_point(f.breaks + g.breaks)
    k = len(f.breaks)
    fp, fg = _atoms(f, X[:k])
    gp, gg = _atoms(g, X[k:])
    points = signed_sum((x + y, cv * dv) for x, cv in fp for y, dv in gp)
    opens = [(x + u, x + v, cv * dv) for x, cv in fp for u, v, dv in gg]
    opens += [(u + y, v + y, cv * dv) for u, v, cv in fg for y, dv in gp]
    opens += [(u + u2, v + v2, -cv * dv) for u, v, cv in fg for u2, v2, dv in gg]
    return cf1_from_atoms(points, opens, den)


def cf1_from_sheaf(f: sheaf1.Sheaf1) -> Cf1:
    """Pointwise Euler characteristic of the stalks: a generator k_I[d]
    of multiplicity m adds c = (-1)^d m at each closed end of I and on
    its interior.  The sweep reads the object's integer ends over its
    own denominator as they are."""
    points: dict[int, int] = {}
    opens: list[tuple[int, int, int]] = []
    for lo, hi, closure, s, m in f.keys:
        c = -m if s % 2 else m
        if not closure & LEFT_OPEN:
            points[lo] = points.get(lo, 0) + c
        if lo == hi:
            continue
        if not closure & RIGHT_OPEN:
            points[hi] = points.get(hi, 0) + c
        opens.append((lo, hi, c))
    return cf1_from_atoms(points, opens, f.den)


def invertible_shadow(f: Cf1) -> bool:
    """Whether f is the Euler shadow of an invertible one-dimensional
    object: +1 on a closed interval or point, or -1 on an open interval."""
    if len(f.breaks) == 1:
        return f.point_values == (1,)
    if len(f.breaks) == 2:
        pv, gv = f.point_values, f.gap_values
        return (pv, gv) in (((1, 1), (1,)), ((0, 0), (-1,)))
    return False
