"""Independent cross-checks for the convolution table.

Nothing here goes through the closure-pair table.  The stalk oracle
classifies the fibre I cap (t - J) directly; the sections oracle works
with the honest geometry of the product box inside the open slab
{u < x + y < v}: compactly supported cohomology of the box piece equals
ordinary cohomology of the slab rel the missing boundary, so we count
connected components of that missing boundary and detect the full
boundary circle.  Both are a few lines of interval combinatorics with
no shared code path to sheaf1.convolve, which is the point.

The oracles run on integers: a generator is read as a key (lo, hi,
closure, shift, mult) with its ends over a common scale, as a Sheaf1
keeps its own, and a probe or slab end as an integer over the same
scale.  The one public oracle, conv_stalk_oracle, which the benchmark
calls, reads t as every entry point does (rational.ratio: a bool or a
float is an InputError) and scales its arguments over the lcm of their
denominators.  validate_table puts each trial on one scale, 132 times
the lcm of the ends' denominators and the result's, on which every
probe it draws is an integer, and builds a Fraction only for the probe
of a discrepancy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InputError
from .randgen import rand_generator
from .rational import ratio
from .sheaf1 import Closure, Generator, Sheaf1, convolve_generators, stalk

# a generator on integers: (lo, hi, closure, shift, mult), ends over a scale
Key = tuple[int, int, Closure, int, int]


def _at(x: Fraction, scale: int) -> int:
    """x times scale, a multiple of its denominator."""
    return x.numerator * (scale // x.denominator)


def _dens(g: Generator) -> tuple[int, int]:
    return g.interval.lo.denominator, g.interval.hi.denominator


def _key(g: Generator, scale: int) -> Key:
    iv = g.interval
    return _at(iv.lo, scale), _at(iv.hi, scale), iv.closure, g.shift, g.mult


def _keys(f: Sheaf1, scale: int) -> list[Key]:
    """The keys of f over scale, a multiple of f.den."""
    k = scale // f.den
    return [(lo * k, hi * k, c, s, m) for lo, hi, c, s, m in f.keys]


# ---------------------------------------------------------------------------
# stalks


def _intersect_flagged(
    lo1: int, lc1: bool, hi1: int, rc1: bool,
    lo2: int, lc2: bool, hi2: int, rc2: bool,
) -> Optional[tuple[int, bool, int, bool]]:
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


def _stalk(g: Key, h: Key, t: int) -> dict[int, int]:
    a, b, ci, s, m = g
    c, d, cj, s2, n = h
    # t - J reverses the closure flags
    hit = _intersect_flagged(a, ci.left_closed, b, ci.right_closed,
                             t - d, cj.right_closed, t - c, cj.left_closed)
    if hit is None:
        return {}
    lo, lc, hi, rc = hit
    if lc and rc:
        deg = 0
    elif not lc and not rc and lo < hi:
        deg = 1
    else:
        return {}
    return {deg - s - s2: m * n}


def conv_stalk_oracle(g: Generator, h: Generator, t) -> dict[int, int]:
    """Stalk of the convolution of two generators at t, bypassing the table.

    The fibre over t is I cap (t - J); compactly supported cohomology of
    that interval is k in degree 0 (closed or point), k in degree 1
    (open), zero (half-open or empty).
    """
    p, q = ratio(t)
    scale = lcm(*_dens(g), *_dens(h), q)
    return _stalk(_key(g, scale), _key(h, scale), p * (scale // q))


# ---------------------------------------------------------------------------
# sections over a slab

# A factor face is (kind, data, excluded): kind "end" carries a point,
# kind "open" the open interior.  Points contribute a single unexcluded
# "end" face.


def _factor_faces(lo: int, hi: int, closure: Closure) -> list[tuple[str, object, bool]]:
    if lo == hi:
        return [("end", lo, False)]
    return [
        ("end", lo, not closure.left_closed),
        ("open", (lo, hi), False),
        ("end", hi, not closure.right_closed),
    ]


def _sections(g: Key, h: Key, u: int, v: int) -> dict[int, int]:
    if not u < v:
        return {}
    a, b, ci, gs, gm = g
    c, d, cj, hs, hm = h
    # image of the flagged box under (x, y) -> x + y
    if _intersect_flagged(a + c, ci.left_closed and cj.left_closed, b + d,
                          ci.right_closed and cj.right_closed, u, False, v, False) is None:
        return {}

    corners: list[tuple[int, int]] = []
    # edge pieces as (axis, fixed, lo, hi, touch_lo, touch_hi) where the
    # touch flags say whether the clipped piece still reaches the
    # original corner at that end
    edges: list[tuple[int, int, int, int, bool, bool]] = []
    circle_ready = True  # stays true only if every excluded face survives uncut
    for kx, dx, ex in _factor_faces(a, b, ci):
        for ky, dy, ey in _factor_faces(c, d, cj):
            if not (ex or ey):
                continue
            if kx == "end" and ky == "end":
                if u < dx + dy < v:
                    corners.append((dx, dy))
                else:
                    circle_ready = False
                continue
            # one end face times an open one (open x open is the box
            # interior, never excluded): an edge along the open axis
            axis, fixed, (lo1, hi1) = (0, dx, dy) if kx == "end" else (1, dy, dx)
            lo, hi = max(lo1, u - fixed), min(hi1, v - fixed)
            if lo < hi:
                edges.append((axis, fixed, lo, hi, lo == lo1, hi == hi1))
                circle_ready = circle_ready and lo == lo1 and hi == hi1
            else:
                circle_ready = False

    pieces = len(corners) + len(edges)
    if pieces == 0:
        dims = {0: 1}
    else:
        # components of the missing boundary: corners and edges joined
        # where an edge still reaches its corner
        parent = list(range(pieces))

        def find(i: int) -> int:
            while parent[i] != i:
                i = parent[i]
            return i

        for corner, (cx, cy) in enumerate(corners):
            for k, (axis, fixed, lo, hi, tlo, thi) in enumerate(edges):
                moving, anchor = (cy, cx) if axis == 0 else (cx, cy)
                if anchor == fixed and ((tlo and moving == lo) or (thi and moving == hi)):
                    parent[find(corner)] = find(len(corners) + k)
        comps = len({find(i) for i in range(pieces)})
        dims = {1: comps - 1} if comps > 1 else {}
        # four corners and four edges, all uncut: only the open box of
        # two open intervals misses that much
        if circle_ready and len(corners) == 4 and len(edges) == 4:
            dims[2] = 1
    return {deg - gs - hs: n * gm * hm for deg, n in dims.items()}


def _slab_sections(keys: list[Key], u: int, v: int) -> dict[int, int]:
    out: dict[int, int] = {}
    if not u < v:
        return out
    for lo1, hi1, c, shift, mult in keys:
        hit = _intersect_flagged(lo1, c.left_closed, hi1, c.right_closed, u, False, v, False)
        if hit is None:
            continue
        lo, lc, hi, rc = hit
        removed = int(not lc and lo > u) + int(not rc and hi < v)
        if removed == 1:
            continue
        deg = (0 if removed == 0 else 1) - shift
        out[deg] = out.get(deg, 0) + mult
    return {d: n for d, n in out.items() if n}


# ---------------------------------------------------------------------------
# randomized driver


def _probe_points(g: Key, h: Key, keys: list[Key], scale: int, rng: random.Random):
    """The critical points over scale (each sum of an end of g and one of
    h, each end of the result), each midpoint, and seven points outside;
    scale makes each an integer."""
    pts = sorted({g[0] + h[0], g[0] + h[1], g[1] + h[0], g[1] + h[1],
                  *(e for k in keys for e in k[:2])})
    probes = pts + [(a + b) // 2 for a, b in zip(pts, pts[1:])]
    probes += [pts[0] - scale, pts[-1] + scale]
    probes += [pts[0] - scale - rng.randint(0, 24) * scale // rng.randint(1, 4) for _ in range(5)]
    return probes, pts


# The most trials validate_table runs, about 2.5 s of wall time through
# the CLI (Python 3.11, 2-core host); more is a mistake, not a stronger
# check.
MAX_TRIALS = 10_000


def _pair_name(g: Generator, h: Generator) -> str:
    return f"{g.interval.closure.name.lower()}*{h.interval.closure.name.lower()}"


def validate_table(trials: int = 200, seed: int = 0) -> dict:
    """Cross-check the closure-pair table against both oracles.

    Runs `trials` random generator pairs through convolve_generators
    and compares stalks at critical points, midpoints and exterior
    points, plus section spaces over random slabs.  Returns a report
    dict; an empty `discrepancies` list means the table survived.
    """
    if type(trials) is not int or trials < 1:
        raise InputError("validate_table needs an integer count of at least one trial, "
                         f"got {trials!r}")
    if trials > MAX_TRIALS:
        raise InputError(f"validate_table runs at most {MAX_TRIALS} trials")
    rng = random.Random(seed)
    discrepancies: list[dict] = []
    for trial in range(trials):
        g = rand_generator(rng)
        h = rand_generator(rng)
        misses = []  # (kind, at, expected, got)
        result = convolve_generators(g, h)
        # 132 = lcm(2, 12, 33): every midpoint, every exterior probe
        # pts[0] - 1 - a/b with b <= 4 and every slab end span * k/33 is
        # an integer over this scale
        scale = 132 * lcm(*_dens(g), *_dens(h), result.den)
        gk, hk, keys = _key(g, scale), _key(h, scale), _keys(result, scale)
        probes, pts = _probe_points(gk, hk, keys, scale, rng)
        for t in probes:
            want, got = _stalk(gk, hk, t), stalk(result, (t, scale))
            if want != got:
                misses.append(("stalk", Fraction(t, scale), want, got))
        span = pts[-1] - pts[0] + 2 * scale
        for _ in range(5):
            u = pts[0] - scale + span * rng.randint(0, 32) // 33
            v = u + span * rng.randint(1, 32) // 33
            want, got = _sections(gk, hk, u, v), _slab_sections(keys, u, v)
            if want != got:
                misses.append(("sections", (Fraction(u, scale), Fraction(v, scale)), want, got))
        discrepancies += [{"trial": trial, "pair": _pair_name(g, h), "kind": kind, "g": g,
                           "h": h, "at": at, "expected": want, "got": got}
                          for kind, at, want, got in misses]
    return {
        "trials": trials,
        "seed": seed,
        "count": len(discrepancies),
        "discrepancies": discrepancies,
    }
