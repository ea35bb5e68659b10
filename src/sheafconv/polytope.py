"""Compact convex polytopes with exact rational vertices, ambient dim 1..3.

A Polytope stores its extreme points as sorted Fraction tuples; its
predicates run on one integer lattice form.  With the vertices scaled
once by the lcm of their denominators, X = den*x, it holds the affine
chart (fraction-free elimination, Bareiss 1968), the affine-hull
equalities <w, X> = C and the outward facets <nu, X> <= C, nu primitive
integer; rings, edges and volumes are read off the same integers.  A
probe scaled the same way, P = L*x, is inside when den*<nu, P> <= C*L;
Fractions are made only for results.  2D hulls use a monotone chain;
one exact 3D gift-wrapping hull (Chand & Kapur 1970) gives the extreme
points and the facet planes of the hull's lattice form.  A Minkowski
sum hulls the vertex sums.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Optional

from .errors import InputError
from .linalg import cross3, vadd, vdot, vneg, vsub
from .rational import rat


# a polytope's integer form: with X = den*x for x in it, <w, X> = c for
# (w, c) in eqs and <nu, X> <= c for (nu, c) in planes; chart holds the
# pivot coordinates
Lattice = namedtuple("Lattice", "den chart eqs planes")


def lattice_point(x) -> tuple[tuple[int, ...], int]:
    """(L*x, L) for a rational point x, L the lcm of its denominators."""
    L = lcm(*(c.denominator for c in x))
    return tuple(c.numerator * (L // c.denominator) for c in x), L


def _scaled(pts, den: int) -> list:
    return [tuple(c.numerator * (den // c.denominator) for c in p) for p in pts]


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
    def lattice(self) -> Lattice:
        den = lcm(*(c.denominator for v in self.verts for c in v))
        return _lattice(den, _scaled(self.verts, den))[0]

    @property
    def adim(self) -> int:
        return len(self.lattice.chart)

    @property
    def chart(self) -> tuple[int, ...]:
        # pivot coordinates: projection onto them is injective on the hull
        return self.lattice.chart

    @property
    def equalities(self) -> tuple:
        """Affine-hull equations (w, c): <w,x> = c on the polytope."""
        den = self.lattice.den
        return tuple((w, Fraction(c, den)) for w, c in self.lattice.eqs)

    @cached_property
    def inequalities(self) -> tuple:
        """Outward facet halfspaces (nu, c): inside means <nu,x> <= c, nu a
        primitive integer normal."""
        den = self.lattice.den
        return tuple((nu, Fraction(c, den)) for nu, c in self.lattice.planes)

    def contains(self, x, strict: bool = False) -> bool:
        x = tuple(rat(c) for c in x)
        if len(x) != self.n:
            raise InputError("point dimension mismatch")
        return self.contains_scaled(*lattice_point(x), strict)

    def contains_scaled(self, P, L: int, strict: bool = False) -> bool:
        """Whether the point P/L lies in the polytope (its relative
        interior when strict), for an integer point P and L > 0."""
        den, _, eqs, planes = self.lattice
        if any(den * vdot(w, P) != c * L for w, c in eqs):
            return False
        if strict:
            return all(den * vdot(nu, P) < c * L for nu, c in planes)
        return all(den * vdot(nu, P) <= c * L for nu, c in planes)

    def crossings(self, U, D, L: int):
        """(r, s) with s > 0 for each affine-hull or facet plane that the
        line (U + t*D)/L crosses, at t = r/s; U and D are integer."""
        den, _, eqs, planes = self.lattice
        for w, c in eqs + planes:
            s = den * vdot(w, D)
            if s:
                r = c * L - den * vdot(w, U)
                yield (r, s) if s > 0 else (-r, -s)

    @property
    def _ints(self) -> list:
        return _scaled(self.verts, self.lattice.den)

    @cached_property
    def facets(self) -> tuple["Polytope", ...]:
        ints = self._ints
        return tuple(
            Polytope(tuple(v for v, p in zip(self.verts, ints) if vdot(nu, p) == c))
            for nu, c in self.lattice.planes
        )

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
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Index pairs of the edges' endpoints: the vertex pairs on
        adim - 1 common facet planes."""
        planes = self.lattice.planes
        masks = [sum(1 << k for k, (nu, c) in enumerate(planes) if vdot(nu, p) == c)
                 for p in self._ints]
        return tuple((i, j) for i, j in combinations(range(len(masks)), 2)
                     if (masks[i] & masks[j]).bit_count() >= self.adim - 1)

    def reflect(self) -> "Polytope":
        return Polytope(tuple(vneg(v) for v in self.verts))

    def support(self, nu) -> Fraction:
        return max(vdot(nu, v) for v in self.verts)


# ---------------------------------------------------------------------------
# the lattice form


def _primitive(v) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(c // g for c in v)


def _echelon(rows: list, n: int) -> tuple[list[int], list]:
    """Pivot columns and echelon rows of an integer matrix with n
    columns, by fraction-free elimination (Bareiss 1968): each entry
    stays an integer minor, so every division is exact.  The pivots are
    those of the reduced row echelon form."""
    pivots, basis, prev = [], [], 1
    for c in range(n):
        top = next((r for r in rows if r[c]), None)
        if top is not None:
            rows.remove(top)
            p = top[c]
            rows = [e for e in ([(p * x - r[c] * y) // prev for x, y in zip(r, top)]
                                for r in rows) if any(e)]
            pivots.append(c)
            basis.append(top)
            prev = p
    return pivots, basis


def _kernel(basis: list, pivots: list[int], n: int) -> list:
    """The nullspace basis of the reduced echelon form, one vector per
    free coordinate with 1 there, scaled to primitive integers: back
    substitution through the echelon rows, scaling instead of dividing."""
    out = []
    for f in (j for j in range(n) if j not in pivots):
        w = [int(j == f) for j in range(n)]
        for row, p in zip(reversed(basis), reversed(pivots)):
            s = vdot(row, w)
            w = [x * row[p] for x in w]
            w[p] = -s
        out.append(_primitive(w if w[f] > 0 else vneg(w)))
    return out


def _ring2(X: list, chart) -> list:
    """The extreme points of a rank-2 point list in counterclockwise
    chart order."""
    i, j = chart
    back = {(p[i], p[j]): p for p in X}
    return [back[q] for q in _hull2_ring(sorted(back))]


def _ring_on(X: list, plane) -> list:
    """The ring of the points of a 3D point list on a supporting plane,
    through an injective chart: drop a coordinate the normal does not
    vanish on."""
    nu, c = plane
    drop = 0 if nu[0] else 1 if nu[1] else 2
    on = [p for p in X if vdot(nu, p) == c]
    return _ring2(on, [i for i in range(3) if i != drop])


def _lattice(den: int, X: list) -> tuple[Lattice, list]:
    """The lattice form of the hull of the sorted distinct integer
    points X over den, and the hull's extreme points, sorted."""
    x0 = X[0]
    n = len(x0)
    chart, basis = _echelon([vsub(p, x0) for p in X[1:]], n)
    eqs = tuple((w, vdot(w, x0)) for w in _kernel(basis, chart, n))
    ext, planes = [x0], []
    if len(chart) == 1:
        d = _primitive(vsub(X[-1], x0))
        ext, planes = [x0, X[-1]], [(vneg(d), -vdot(d, x0)), (d, vdot(d, X[-1]))]
    elif len(chart) == 2:
        loop = _ring2(X, chart)
        for u, v, z in zip(loop, loop[1:] + loop[:1], loop[2:] + loop[:2]):
            d = vsub(v, u)
            nu = _primitive((d[1], -d[0]) if n == 2 else cross3(eqs[0][0], d))
            c = vdot(nu, u)
            if vdot(nu, z) > c:  # z, the ring's next vertex, lies inside
                nu, c = vneg(nu), -c
            planes.append((nu, c))
        ext = sorted(loop)
    elif chart:
        planes, ext = _hull3(X)
    return Lattice(den, tuple(chart), eqs, tuple(planes)), ext


# ---------------------------------------------------------------------------
# hull construction


def _cross2(o, a, b) -> int:
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


def _hull3(zpts: list) -> tuple[list, list]:
    """Facet planes and extreme points of a sorted rank-3 integer point
    list, both sorted.

    The planes are (nu, c), nu a primitive outward integer normal and
    <nu,x> <= c on the hull.  A first facet through the lexicographic
    minimum is wrapped across every edge of every facet found, one pass
    over the points per edge.  A facet keeps every point of its plane,
    and its ring is their planar hull; the extreme points are the union
    of the rings.
    """

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
    ring = _ring_on(zpts, plane)
    while len(ring) < 3:
        a = ring[0]
        d = vsub(ring[1], a) if len(ring) == 2 else (0, 0, 1)
        plane = wrap(a, d, vadd(a, cross3(plane[0], d)), plane[0])
        ring = _ring_on(zpts, plane)

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
                rings[nxt] = _ring_on(zpts, nxt)
                todo.append(nxt)

    return sorted(rings), sorted({p for ring in rings.values() for p in ring})


def convex_hull(points) -> Polytope:
    pts = sorted({tuple(rat(c) for c in p) for p in points})
    if not pts:
        raise InputError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InputError("mixed coordinate dimensions")
    if not 1 <= n <= 3:
        raise InputError(f"ambient dimension {n} out of range 1..3")
    den = lcm(*(c.denominator for p in pts for c in p))
    X = _scaled(pts, den)
    lattice, ext = _lattice(den, X)
    orig = dict(zip(X, pts))
    hull = Polytope(tuple(orig[p] for p in ext))
    # the cloud's lattice form is the hull's, 3D planes included
    hull.__dict__["lattice"] = lattice
    return hull


# ---------------------------------------------------------------------------
# constructive operations


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    if p.n != q.n:
        raise InputError("Minkowski sum needs a common ambient dimension")
    return convex_hull([vadd(a, b) for a in p.verts for b in q.verts])


def intersect_polytopes(p: Polytope, q: Polytope) -> Optional[Polytope]:
    """Closed intersection, or None when empty: the hull of the vertices
    of each polytope inside the other and of the points where an edge of
    one crosses a plane of the other inside the other."""
    if p.n != q.n:
        raise InputError("intersection needs a common ambient dimension")
    cands = set()
    for a, b in ((p, q), (q, p)):
        den, X = a.lattice.den, a._ints
        cands.update(v for v, V in zip(a.verts, X) if b.contains_scaled(V, den))
        for i, j in a.edges:
            U = X[i]
            D = vsub(X[j], U)
            for r, s in b.crossings(U, D, den):
                if 0 <= r <= s:
                    P = tuple(u * s + r * d for u, d in zip(U, D))
                    if b.contains_scaled(P, den * s):
                        cands.add(tuple(Fraction(c, den * s) for c in P))
    if not cands:
        return None
    return convex_hull(cands)


def slice_polytope(p: Polytope, xi, t) -> Optional[Polytope]:
    """Closed intersection with the hyperplane <xi, x> = t, or None."""
    coef = lattice_point(tuple(rat(c) for c in xi) + (rat(t),))[0]
    a, b = coef[:-1], coef[-1]  # the hyperplane is <a, x> = b in integers
    den, X = p.lattice.den, p._ints
    side = [vdot(a, V) - b * den for V in X]
    cands = {v for v, s in zip(p.verts, side) if s == 0}
    for i, j in p.edges:
        su, sw = side[i], side[j]
        if su * sw < 0:
            L = den * (sw - su)
            cands.add(tuple(Fraction(u * sw - w * su, L) for u, w in zip(X[i], X[j])))
    if not cands:
        return None
    return convex_hull(cands)


# ---------------------------------------------------------------------------
# measure and Euler data


def polytope_volume(p: Polytope) -> Fraction:
    """Volume of p in its own affine hull (counting measure for points),
    measured in its chart."""
    d, chart, X, den = p.adim, p.chart, p._ints, p.lattice.den
    if d == 0:
        return Fraction(1)
    if d == 1:
        return Fraction(X[-1][chart[0]] - X[0][chart[0]], den)
    if d == 2:
        ring = [(q[chart[0]], q[chart[1]]) for q in _ring2(X, chart)]
        twice = sum(
            a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1])
        )
        return Fraction(abs(twice), 2 * den**2)
    v0 = X[0]
    total = 0
    for plane in p.lattice.planes:
        ring = _ring_on(X, plane)
        a = vsub(ring[0], v0)
        for b, c in zip(ring[1:], ring[2:]):
            total += abs(vdot(cross3(vsub(b, v0), vsub(c, v0)), a))
    return Fraction(total, 6 * den**3)


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
