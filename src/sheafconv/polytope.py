"""Compact convex polytopes with exact rational vertices, ambient dim 1..3.

A Polytope stores only its extreme points; everything else (affine hull,
facet halfspaces, face lattice, volume) is derived lazily.  Hulls in
dimension 2 use a monotone chain; in dimension 3 one exact gift-wrapping
hull (Chand & Kapur 1970) on the point set scaled once to integers gives
both the facet halfspaces and the extreme points.  A Minkowski sum is the
hull of the pairwise vertex sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .errors import InputError
from .linalg import (
    Vec,
    cross3,
    nullspace,
    primitive,
    rref,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
)
from .rational import rat


@dataclass(frozen=True)
class Polytope:
    verts: tuple

    def __post_init__(self):
        pts = sorted({tuple(rat(c) for c in v) for v in self.verts})
        if not pts:
            raise InputError("a polytope needs at least one vertex")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("mixed coordinate dimensions")
        if not 1 <= n <= 3:
            raise InputError(f"ambient dimension {n} out of range 1..3")
        object.__setattr__(self, "verts", tuple(pts))

    @property
    def n(self) -> int:
        return len(self.verts[0])

    @cached_property
    def adim(self) -> int:
        return len(self.chart)

    @cached_property
    def chart(self) -> tuple[int, ...]:
        # pivot coordinates: projection onto them is injective on the hull
        diffs = [vsub(v, self.verts[0]) for v in self.verts[1:]]
        if not diffs:
            return ()
        return tuple(rref(diffs)[1])

    @cached_property
    def equalities(self) -> tuple:
        """Affine-hull equations (w, c) with <w,x> = c on the polytope."""
        diffs = [vsub(v, self.verts[0]) for v in self.verts[1:]]
        return tuple((w, vdot(w, self.verts[0])) for w in nullspace(diffs, self.n))

    @cached_property
    def plane_normal(self) -> tuple[int, ...]:
        if not (self.adim == 2 and self.n == 3):
            raise InputError("plane normal only defined for a 2-polytope in R^3")
        return primitive(self.equalities[0][0], keep_sign=True)

    @cached_property
    def ring(self) -> tuple:
        """Vertices in counterclockwise chart order (adim 2 only)."""
        if self.adim != 2:
            raise InputError("ring order needs affine dimension 2")
        back = {tuple(v[i] for i in self.chart): v for v in self.verts}
        return tuple(back[q] for q in _hull2_ring(sorted(back)))

    @cached_property
    def inequalities(self) -> tuple:
        """Outward facet halfspaces (nu, c): inside means <nu,x> <= c."""
        if self.adim == 0:
            return ()
        if self.adim == 1:
            u, v = self.verts[0], self.verts[-1]
            d = vsub(v, u)
            return ((vneg(d), -vdot(d, u)), (d, vdot(d, v)))
        if self.adim == 2:
            out = []
            ring = self.ring
            for u, v in zip(ring, ring[1:] + ring[:1]):
                d = vsub(v, u)
                nu = (d[1], -d[0]) if self.n == 2 else cross3(self.plane_normal, d)
                c = vdot(nu, u)
                if any(vdot(nu, w) > c for w in self.verts):
                    nu, c = vneg(nu), -c
                out.append((nu, c))
            return tuple(out)
        return tuple(_hull3(self.verts)[0])

    def contains(self, x, strict: bool = False) -> bool:
        x = tuple(rat(c) for c in x)
        if len(x) != self.n:
            raise InputError("point dimension mismatch")
        if any(vdot(w, x) != c for w, c in self.equalities):
            return False
        if strict:
            return all(vdot(nu, x) < c for nu, c in self.inequalities)
        return all(vdot(nu, x) <= c for nu, c in self.inequalities)

    @cached_property
    def facets(self) -> tuple["Polytope", ...]:
        if self.adim == 0:
            return ()
        if self.adim == 1:
            return (Polytope((self.verts[0],)), Polytope((self.verts[-1],)))
        if self.adim == 2:
            ring = self.ring
            return tuple(Polytope((u, v)) for u, v in zip(ring, ring[1:] + ring[:1]))
        out = []
        for nu, c in self.inequalities:
            tight = tuple(v for v in self.verts if vdot(nu, v) == c)
            out.append(Polytope(tight))
        return tuple(out)

    @cached_property
    def faces(self) -> tuple["Polytope", ...]:
        """Every face, the polytope itself included."""
        seen = {self.verts: self}
        frontier = [self]
        while frontier:
            nxt = []
            for f in frontier:
                for g in f.facets:
                    if g.verts not in seen:
                        seen[g.verts] = g
                        nxt.append(g)
            frontier = nxt
        return tuple(sorted(seen.values(), key=lambda f: (f.adim, f.verts)))

    @cached_property
    def edges(self) -> tuple["Polytope", ...]:
        return tuple(f for f in self.faces if f.adim == 1)

    def reflect(self) -> "Polytope":
        return Polytope(tuple(vneg(v) for v in self.verts))

    def support(self, nu) -> Fraction:
        return max(vdot(nu, v) for v in self.verts)


# ---------------------------------------------------------------------------
# hull construction


def _cross2(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull2_ring(pts: list) -> list:
    """Monotone chain; strict turns so collinear midpoints drop out."""
    if len(pts) <= 2:
        return list(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull3(pts) -> tuple[list, list]:
    """Facet planes and extreme points of a rank-3 rational point set.

    The planes are (nu, c), nu a primitive outward integer normal and
    <nu,x> <= c on the hull, in sorted order.  The points are scaled once
    to integers by the lcm of their denominators.  A first facet through
    the lexicographic minimum is then wrapped across every edge of every
    facet found, one pass over the points per edge.  A facet keeps every
    point of its plane, and its ring is their planar hull; the extreme
    points are the union of the rings.
    """
    den = lcm(*(c.denominator for p in pts for c in p))
    orig = {tuple(c.numerator * (den // c.denominator) for c in p): p for p in pts}
    zpts = sorted(orig)

    def ring_on(plane):
        # the planar hull of the points on a supporting plane, through an
        # injective chart: drop a coordinate the normal does not vanish on
        (n0, n1, n2), off = plane
        drop = 0 if n0 else 1 if n1 else 2
        back = {p[:drop] + p[drop + 1:]: p for p in zpts
                if n0 * p[0] + n1 * p[1] + n2 * p[2] == off}
        return [back[q] for q in _hull2_ring(sorted(back))]

    def wrap(a, d, inner, nu):
        # turn the supporting plane with outward normal nu about the line
        # a + t*d, away from inner (a point of that plane off the line),
        # as far as the points allow.  A point replaces the best one so
        # far when it lies strictly beyond the plane through the line and
        # that best point; every point lies within a half-turn of inner,
        # so one pass ends on a supporting plane.
        a0, a1, a2 = a
        i0, i1, i2 = inner[0] - a0, inner[1] - a1, inner[2] - a2
        b0, b1, b2 = -nu[0], -nu[1], -nu[2]
        for p in zpts:
            w0, w1, w2 = p[0] - a0, p[1] - a1, p[2] - a2
            if b0 * w0 + b1 * w1 + b2 * w2 > 0:
                b0, b1, b2 = cross3(d, (w0, w1, w2))
                if b0 * i0 + b1 * i1 + b2 * i2 > 0:
                    b0, b1, b2 = -b0, -b1, -b2
        g = gcd(b0, b1, b2)
        best = (b0 // g, b1 // g, b2 // g)
        return best, best[0] * a0 + best[1] * a1 + best[2] * a2

    # the plane x = min x supports the lexicographic minimum; turn it
    # about lines in it until it holds three points off a line
    plane = ((-1, 0, 0), -zpts[0][0])
    ring = ring_on(plane)
    while len(ring) < 3:
        a = ring[0]
        d = vsub(ring[1], a) if len(ring) == 2 else (0, 0, 1)
        plane = wrap(a, d, vadd(a, cross3(plane[0], d)), plane[0])
        ring = ring_on(plane)

    rings = {plane: ring}
    todo = [plane]
    done = set()
    while todo:
        plane = todo.pop()
        ring = rings[plane]
        k = len(ring)
        for i in range(k):
            u, v = ring[i], ring[(i + 1) % k]
            edge = (u, v) if u < v else (v, u)
            if edge in done:
                continue
            done.add(edge)
            nxt = wrap(u, vsub(v, u), ring[(i + 2) % k], plane[0])
            if nxt not in rings:
                rings[nxt] = ring_on(nxt)
                todo.append(nxt)

    planes = sorted((nu, Fraction(off, den)) for nu, off in rings)
    ext = sorted({orig[p] for ring in rings.values() for p in ring})
    return planes, ext


def convex_hull(points) -> Polytope:
    pts = sorted({tuple(rat(c) for c in p) for p in points})
    if not pts:
        raise InputError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InputError("mixed coordinate dimensions")
    if not 1 <= n <= 3:
        raise InputError(f"ambient dimension {n} out of range 1..3")
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts[1:]]
    red, pivots = rref(diffs) if diffs else ([], [])
    adim = len(pivots)
    if adim == 0:
        return Polytope((p0,))
    back = {tuple(p[i] for i in pivots): p for p in pts}
    cpts = sorted(back)
    if adim == 1:
        ext = [back[cpts[0]], back[cpts[-1]]]
    elif adim == 2:
        ext = [back[q] for q in _hull2_ring(cpts)]
    else:
        ext = _hull3(pts)[1]
    return Polytope(tuple(ext))


# ---------------------------------------------------------------------------
# constructive operations


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.n != q.n:
        raise InputError("Minkowski sum needs a common ambient dimension")
    return convex_hull([vadd(a, b) for a in p.verts for b in q.verts])


def _edge_plane_crossings(edges, planes):
    for e in edges:
        u, v = e.verts[0], e.verts[-1]
        d = vsub(v, u)
        for w, c in planes:
            den = vdot(w, d)
            if den == 0:
                continue
            t = (c - vdot(w, u)) / den
            if 0 <= t <= 1:
                yield vadd(u, vscale(d, t))


def intersect_polytopes(p: Polytope, q: Polytope) -> Optional[Polytope]:
    """Closed intersection, or None when empty."""
    if p.n != q.n:
        raise InputError("intersection needs a common ambient dimension")
    cands = {v for v in p.verts if q.contains(v)}
    cands.update(v for v in q.verts if p.contains(v))
    planes_q = tuple(q.equalities) + tuple(q.inequalities)
    planes_p = tuple(p.equalities) + tuple(p.inequalities)
    for pt in _edge_plane_crossings(p.edges, planes_q):
        if p.contains(pt) and q.contains(pt):
            cands.add(pt)
    for pt in _edge_plane_crossings(q.edges, planes_p):
        if p.contains(pt) and q.contains(pt):
            cands.add(pt)
    if not cands:
        return None
    return convex_hull(cands)


def slice_polytope(p: Polytope, xi, t) -> Optional[Polytope]:
    """Closed intersection with the hyperplane <xi, x> = t, or None."""
    xi = tuple(rat(c) for c in xi)
    t = rat(t)
    vals = {v: vdot(xi, v) for v in p.verts}
    cands = {v for v, s in vals.items() if s == t}
    for e in p.edges:
        u, v = e.verts[0], e.verts[-1]
        su, sv = vals[u], vals[v]
        if (su - t) * (sv - t) < 0:
            cands.add(vadd(u, vscale(vsub(v, u), (t - su) / (sv - su))))
    if not cands:
        return None
    return convex_hull(cands)


# ---------------------------------------------------------------------------
# measure and Euler data


def polytope_volume(p: Polytope) -> Fraction:
    """Volume of p in its own affine hull (counting measure for points)."""
    d = p.adim
    if d == 0:
        return Fraction(1)
    if d == 1:
        (i,) = p.chart
        return p.verts[-1][i] - p.verts[0][i]
    if d == 2:
        ring = [tuple(v[i] for i in p.chart) for v in p.ring]
        twice = sum(
            a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1])
        )
        return abs(twice) / 2
    v0 = p.verts[0]
    total = Fraction(0)
    for f in p.facets:
        ring = f.ring
        a = vsub(ring[0], v0)
        for b, c in zip(ring[1:], ring[2:]):
            det = vdot(cross3(vsub(b, v0), vsub(c, v0)), a)
            total += abs(det)
    return total / 6


def chart_volume(p: Polytope, idxs: tuple[int, ...], dim: int) -> Fraction:
    """dim-volume of the projection of p onto the given coordinates."""
    proj = convex_hull([tuple(v[i] for i in idxs) for v in p.verts])
    if proj.adim < dim:
        return Fraction(0)
    return polytope_volume(proj)


def euler_from_faces(p: Polytope) -> int:
    """Alternating face count; equals chi_c of the closed polytope (= 1)."""
    return sum(-1 if f.adim % 2 else 1 for f in p.faces)


def open_indicator_expansion(p: Polytope) -> list[tuple[Polytope, int]]:
    """Write 1_{relint p} as a signed sum of closed-face indicators."""
    top = p.adim
    return [(f, -1 if (top - f.adim) % 2 else 1) for f in p.faces]
