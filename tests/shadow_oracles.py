"""Slow, pointwise oracles for the one-dimensional shadows.

The library builds every Cf1 from atoms in one sorted sweep and pushes
regions forward in closed form.  The functions here are the paths those
replaced: they evaluate the function at every candidate breakpoint and
gap midpoint and canonicalise the samples.  They share no code with the
sweep or the closed form, so a test that compares the two checks both.

The library's sweep runs on integer positions over one common
denominator; ``fraction_sweep`` is the same sweep keyed by the Fraction
positions themselves, as it was first written, and ``integer_atoms``
scales Fraction atoms onto the library's integer entry.
"""

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from sheafconv import sheaf1
from sheafconv.cf1 import Cf1
from sheafconv.linalg import vdot
from sheafconv.rational import rat
from sheafconv.region import euler_char_c, evaluate_region, slice_region


def build_cf1(candidates: Iterable[Fraction], value_at: Callable[[Fraction], int]) -> Cf1:
    """Canonical Cf1 from a covering candidate breakpoint set.

    The candidate set must contain every genuine breakpoint; extras are
    stripped.  value_at is evaluated at candidates and gap midpoints.
    """
    pts = sorted(set(rat(c) for c in candidates))
    if not pts:
        return Cf1((), (), ())
    pv = [value_at(p) for p in pts]
    gv = [value_at((pts[i] + pts[i + 1]) / 2) for i in range(len(pts) - 1)]
    keep = []
    for i, p in enumerate(pts):
        left = gv[i - 1] if i > 0 else 0
        right = gv[i] if i < len(gv) else 0
        if not (pv[i] == left == right):
            keep.append(i)
    if not keep:
        return Cf1((), (), ())
    kept = [pts[i] for i in keep]
    kept_pv = [pv[i] for i in keep]
    # gap values between kept breakpoints are constant on the merged gaps
    kept_gv = [value_at((kept[i] + kept[i + 1]) / 2) for i in range(len(kept) - 1)]
    return Cf1(tuple(kept), tuple(kept_pv), tuple(kept_gv))


def fraction_sweep(points: dict, opens: list) -> Cf1:
    """Canonical Cf1 of sum c_x 1_{x} + sum c 1_{]u, v[} (every u < v) by
    one difference sweep over Fraction positions."""
    starts: dict = {}
    ends: dict = {}
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
    return Cf1(tuple(breaks), tuple(pv), tuple(gv))


def integer_atoms(points: dict, opens: list) -> tuple[dict, list, int]:
    """Fraction point masses {x: c} and open plateaus (u, v, c) as the
    integer atoms of cf1_from_atoms: positions times den, the lcm of
    their denominators, and den."""
    den = lcm(*(x.denominator for x in [*points, *(e for u, v, _ in opens for e in (u, v))]))
    return ({int(x * den): c for x, c in points.items()},
            [(int(u * den), int(v * den), c) for u, v, c in opens], den)


def sliced_pushforward(f, xi) -> Cf1:
    """Pushforward along x -> <xi, x> by slicing: the Euler characteristic
    of the hyperplane slice at every vertex value and gap midpoint."""
    xi = tuple(rat(c) for c in xi)
    verts = [v for t in f.region.terms for v in t.poly.verts]
    breakpoints = sorted({vdot(xi, v) for v in verts})
    if f.region.dim == 1:
        value_at = lambda t: evaluate_region(f.region, (t / xi[0],))
    else:
        value_at = lambda t: euler_char_c(slice_region(f.region, xi, t))
    return build_cf1(breakpoints, value_at)


def _atoms(f: Cf1):
    points = [(b, v) for b, v in zip(f.breaks, f.point_values) if v]
    gaps = [(f.breaks[i], f.breaks[i + 1], v) for i, v in enumerate(f.gap_values) if v]
    return points, gaps


def brute_cf1_convolve(f: Cf1, g: Cf1) -> Cf1:
    """Euler convolution sampled pointwise: each sample sums the point
    masses there and scans every open atom for one that covers it."""
    fp, fg = _atoms(f)
    gp, gg = _atoms(g)
    points: dict = {}
    opens = []
    for x, cv in fp:
        for y, dv in gp:
            points[x + y] = points.get(x + y, 0) + cv * dv
        for u, v, dv in gg:
            opens.append((x + u, x + v, cv * dv))
    for u, v, cv in fg:
        for y, dv in gp:
            opens.append((u + y, v + y, cv * dv))
        for u2, v2, dv in gg:
            opens.append((u + u2, v + v2, -cv * dv))

    def value(t):
        return points.get(t, 0) + sum(c for u, v, c in opens if u < t < v)

    candidates = set(points)
    for u, v, _ in opens:
        candidates.update((u, v))
    return build_cf1(candidates, value)


def stalk_shadow(f: sheaf1.Sheaf1) -> Cf1:
    """Pointwise Euler characteristic of the stalks."""
    candidates = [e for g in f for e in (g.interval.lo, g.interval.hi)]

    def value(t):
        return sum((-1 if deg % 2 else 1) * dim for deg, dim in sheaf1.stalk(f, t).items())

    return build_cf1(candidates, value)
