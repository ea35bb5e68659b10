"""Independent cross-checks for the convolution table.

Nothing here goes through the closure-pair table.  The stalk oracle
classifies the fibre I cap (t - J) directly; the sections oracle works
with the honest geometry of the product box inside the open slab
{u < x + y < v}: compactly supported cohomology of the box piece equals
ordinary cohomology of the slab rel the missing boundary, so we count
connected components of that missing boundary and detect the full
boundary circle.  Both are a few lines of interval combinatorics with
no shared code path to sheaf1.convolve, which is the point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional

from .errors import InputError
from .randgen import rand_generator
from .sheaf1 import (
    Generator,
    Sheaf1,
    convolve_generators,
    stalk,
)

Slab = tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# stalks


def _intersect_flagged(
    lo1: Fraction, lc1: bool, hi1: Fraction, rc1: bool,
    lo2: Fraction, lc2: bool, hi2: Fraction, rc2: bool,
) -> Optional[tuple[Fraction, bool, Fraction, bool]]:
    if lo1 > lo2:
        lo, lc = lo1, lc1
    elif lo2 > lo1:
        lo, lc = lo2, lc2
    else:
        lo, lc = lo1, lc1 and lc2
    if hi1 < hi2:
        hi, rc = hi1, rc1
    elif hi2 < hi1:
        hi, rc = hi2, rc2
    else:
        hi, rc = hi1, rc1 and rc2
    if lo > hi or (lo == hi and not (lc and rc)):
        return None
    return lo, lc, hi, rc


def conv_stalk_oracle(g: Generator, h: Generator, t) -> dict[int, int]:
    """Stalk of the convolution of two generators at t, bypassing the table.

    The fibre over t is I cap (t - J); compactly supported cohomology of
    that interval is k in degree 0 (closed or point), k in degree 1
    (open), zero (half-open or empty).
    """
    t = Fraction(t)
    i, j = g.interval, h.interval
    # t - J reverses the closure flags
    hit = _intersect_flagged(
        i.lo, i.closure.left_closed, i.hi, i.closure.right_closed,
        t - j.hi, j.closure.right_closed, t - j.lo, j.closure.left_closed,
    )
    if hit is None:
        return {}
    lo, lc, hi, rc = hit
    if lc and rc:
        deg = 0
    elif not lc and not rc and lo < hi:
        deg = 1
    else:
        return {}
    return {deg - g.shift - h.shift: g.mult * h.mult}


# ---------------------------------------------------------------------------
# sections over a slab

# A factor face is (kind, data, excluded): kind "end" carries a point,
# kind "open" the open interior.  Points contribute a single unexcluded
# "end" face.


def _factor_faces(iv) -> list[tuple[str, object, bool]]:
    if iv.is_point:
        return [("end", iv.lo, False)]
    return [
        ("end", iv.lo, not iv.closure.left_closed),
        ("open", (iv.lo, iv.hi), False),
        ("end", iv.hi, not iv.closure.right_closed),
    ]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)

    def count(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def conv_sections_oracle(g: Generator, h: Generator, slab: Slab) -> dict[int, int]:
    """Sections of the convolution of two generators over the open slab image.

    Computes RGamma of the open strip {u < x + y < v} with coefficients
    in the exterior product, which equals sections of the convolution
    over ]u, v[.  Let W be the (partly open) box clipped to the strip and
    B the part of its closed boundary missing from W.  Then h0 = 1 iff
    W is nonempty with B empty, h1 = #components(B) - 1, and h2 = 1 iff
    B is the entire boundary circle of a two-dimensional box interior
    to the strip.
    """
    u, v = Fraction(slab[0]), Fraction(slab[1])
    if not u < v:
        return {}
    i, j = g.interval, h.interval
    # image of the flagged box under (x, y) -> x + y
    s = _intersect_flagged(
        i.lo + j.lo, i.closure.left_closed and j.closure.left_closed,
        i.hi + j.hi, i.closure.right_closed and j.closure.right_closed,
        u, False, v, False,
    )
    if s is None:
        return {}

    corners: list[tuple[Fraction, Fraction]] = []
    # edge pieces as (axis, fixed, lo, hi, touch_lo, touch_hi) where the
    # touch flags say whether the clipped piece still reaches the
    # original corner at that end
    edges: list[tuple[int, Fraction, Fraction, Fraction, bool, bool]] = []
    circle_ready = True  # stays true only if every excluded face survives uncut
    n_excluded = 0
    for kx, dx, ex in _factor_faces(i):
        for ky, dy, ey in _factor_faces(j):
            if not (ex or ey):
                continue
            n_excluded += 1
            if kx == "end" and ky == "end":
                if u < dx + dy < v:
                    corners.append((dx, dy))
                else:
                    circle_ready = False
            elif kx == "end":
                c, d = dy
                lo, hi = max(c, u - dx), min(d, v - dx)
                if lo < hi:
                    edges.append((0, dx, lo, hi, lo == c, hi == d))
                    circle_ready = circle_ready and lo == c and hi == d
                else:
                    circle_ready = False
            elif ky == "end":
                a, b = dx
                lo, hi = max(a, u - dy), min(b, v - dy)
                if lo < hi:
                    edges.append((1, dy, lo, hi, lo == a, hi == b))
                    circle_ready = circle_ready and lo == a and hi == b
                else:
                    circle_ready = False
            # open x open is the box interior, never excluded

    pieces = len(corners) + len(edges)
    if pieces == 0:
        hs = {0: 1}
    else:
        uf = _UnionFind(pieces)
        for ci, (cx, cy) in enumerate(corners):
            for k, (axis, fixed, lo, hi, tlo, thi) in enumerate(edges):
                moving, anchor = (cy, cx) if axis == 0 else (cx, cy)
                if anchor != fixed:
                    continue
                if (tlo and moving == lo) or (thi and moving == hi):
                    uf.union(ci, len(corners) + k)
        comps = uf.count()
        full_circle = (
            circle_ready
            and n_excluded == 8
            and len(corners) == 4
            and len(edges) == 4
        )
        hs = {}
        if comps > 1:
            hs[1] = comps - 1
        if full_circle:
            hs[2] = 1

    mult = g.mult * h.mult
    off = g.shift + h.shift
    return {d - off: n * mult for d, n in hs.items()}


def sheaf_slab_sections(f: Sheaf1, u, v) -> dict[int, int]:
    """Sections of a one-dimensional object over the open interval ]u, v[.

    Per generator: restrict the interval to ]u, v[ and count endpoints
    that are open in the restriction yet lie strictly inside.  Zero such
    endpoints give k in the generator degree, two give k one degree up,
    one gives nothing.
    """
    u, v = Fraction(u), Fraction(v)
    out: dict[int, int] = {}
    if not u < v:
        return out
    for gen in f.gens:
        iv = gen.interval
        hit = _intersect_flagged(
            iv.lo, iv.closure.left_closed, iv.hi, iv.closure.right_closed,
            u, False, v, False,
        )
        if hit is None:
            continue
        lo, lc, hi, rc = hit
        removed = int(not lc and lo > u) + int(not rc and hi < v)
        if removed == 1:
            continue
        deg = (0 if removed == 0 else 1) - gen.shift
        out[deg] = out.get(deg, 0) + gen.mult
    return {d: n for d, n in out.items() if n}


# ---------------------------------------------------------------------------
# randomized driver


def _probe_points(g: Generator, h: Generator, result: Sheaf1, rng: random.Random):
    crit = {
        g.interval.lo + h.interval.lo,
        g.interval.lo + h.interval.hi,
        g.interval.hi + h.interval.lo,
        g.interval.hi + h.interval.hi,
    }
    for r in result.gens:
        crit.add(r.interval.lo)
        crit.add(r.interval.hi)
    pts = sorted(crit)
    probes = list(pts)
    for a, b in zip(pts, pts[1:]):
        if a < b:
            probes.append((a + b) / 2)
    probes.append(pts[0] - 1)
    probes.append(pts[-1] + 1)
    for _ in range(5):
        probes.append(pts[0] - 1 - Fraction(rng.randint(0, 24), rng.randint(1, 4)))
    return probes, pts


# The most trials validate_table runs, about 10 s at the rate of the
# 1000-trial acceptance check; more is a mistake, not a stronger check.
MAX_TRIALS = 10_000


def _pair_name(g: Generator, h: Generator) -> str:
    return f"{g.interval.closure.name.lower()}*{h.interval.closure.name.lower()}"


def validate_table(
    trials: int = 200,
    seed: int = 0,
    conv_fn: Callable[[Generator, Generator], Sheaf1] = None,
) -> dict:
    """Cross-check the closure-pair table against both oracles.

    Runs `trials` random generator pairs through `conv_fn` (the real
    convolution by default) and compares stalks at critical points,
    midpoints and exterior points, plus section spaces over random
    slabs.  Returns a report dict; an empty `discrepancies` list means
    the table survived.
    """
    if trials < 1:
        raise InputError("validate_table needs at least one trial")
    if trials > MAX_TRIALS:
        raise InputError(f"validate_table runs at most {MAX_TRIALS} trials")
    if conv_fn is None:
        conv_fn = convolve_generators
    rng = random.Random(seed)
    discrepancies: list[dict] = []
    for trial in range(trials):
        g = rand_generator(rng)
        h = rand_generator(rng)
        result = conv_fn(g, h)
        probes, pts = _probe_points(g, h, result, rng)
        for t in probes:
            want = conv_stalk_oracle(g, h, t)
            got = stalk(result, t)
            if want != got:
                discrepancies.append({
                    "trial": trial, "pair": _pair_name(g, h), "kind": "stalk",
                    "g": g, "h": h, "at": t, "expected": want, "got": got,
                })
        span = pts[-1] - pts[0] + 2
        for _ in range(5):
            u = pts[0] - 1 + span * Fraction(rng.randint(0, 32), 33)
            w = span * Fraction(rng.randint(1, 32), 33)
            want = conv_sections_oracle(g, h, (u, u + w))
            got = sheaf_slab_sections(result, u, u + w)
            if want != got:
                discrepancies.append({
                    "trial": trial, "pair": _pair_name(g, h), "kind": "sections",
                    "g": g, "h": h, "at": (u, u + w), "expected": want, "got": got,
                })
    return {
        "trials": trials,
        "seed": seed,
        "count": len(discrepancies),
        "discrepancies": discrepancies,
    }
