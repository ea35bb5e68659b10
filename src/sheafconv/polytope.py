"""Compact convex polytopes with exact rational vertices, ambient dim 1..3.

A Polytope is its canonical integer form (den, X): X holds its sorted
distinct extreme points scaled by den, the lcm of their coordinates'
denominators, so gcd(den, X) = 1 and equal polytopes have equal forms.
Scaling by den > 0 keeps the order, so X is sorted as the Fraction
vertices are; those, `verts`, are a view built on first use for the
public API (JSON reads X).  Polytopes order themselves (<) as their
`verts` do, by cross-multiplying two integer forms, so region and
convolution terms sort with no common rescaling.  The predicates run on
one integer lattice form of the same points: the affine chart (the
pivots of the span of the difference rows), the affine-hull equalities
<w, X> = C and the outward facets <nu, X> <= C, nu primitive integer;
rings, edges, volumes and the bounding box (the least and greatest of X
per coordinate) are read off the same integers.  A probe point and a
covector are read by one reader, to integers with no Fraction (_probe,
each coordinate by rational.ratio).  A probe P/S, S = k*den,
is inside when lo*k <= P <= hi*k, <w, P> = C*k and <nu, P> <= C*k; the one
halfspace form, each equality as two then the facets, is `halfspaces`.
Every Polytope is a hull: the constructor hulls the points it is given,
as convex_hull does.  Polytopes whose boxes are apart do not meet; else
an intersection or a slice clips one side by halfspaces on its face
table (Sutherland & Hodgman 1974): a cut keeps the points inside, puts a
crossing on each edge it crosses and cuts the rings there, so a solid
keeps its facets and rings and is not hulled again; a flat result is.  A
Minkowski sum is read off its summands' points and lattice forms: a
translate when one is a point, a solid's facets pushed out and banded by
a segment, else the hull of the vertex sums; a reflection negates the
lattice form.  Faces are read off the edge rings a hull or a clip keeps
as it builds them (other polytopes read them off their form); forms,
hulls and rings are integer work in `lattice`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .errors import InputError
from .lattice import Lattice, index_rings, lattice_form, ring2, ring_on, segment_sum
from .linalg import cross3, vadd, vdot, vneg, vsub
from .rational import over_gcd, ratio


class Polytope:
    """A compact convex polytope: Polytope(points) is convex_hull(points).

    Its identity is its canonical integer form (den, ints): ints holds
    the sorted distinct vertices scaled by den, the lcm of their
    coordinates' denominators, so gcd(den, every coordinate) = 1.
    Equality, the hash, computed once, and the order read that form.
    """

    def __init__(self, verts):
        self.__dict__.update(convex_hull(verts).__dict__)

    @classmethod
    def from_ints(cls, den: int, points) -> "Polytope":
        """The polytope whose extreme points are the integer points over
        den > 0, in any order and with repeats."""
        X = sorted(set(points))
        g = gcd(den, *(c for p in X for c in p))
        if g > 1:
            den //= g
            X = [tuple(c // g for c in p) for p in X]
        self = object.__new__(cls)
        self.den, self.ints = den, tuple(X)
        self._hash = hash((den, self.ints))
        return self

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Polytope") -> bool:
        """The order of the sorted Fraction vertex tuples, read on the
        integer forms: directly over one denominator, else each vertex
        cross-multiplied by the other's denominator."""
        a, b = self.den, other.den
        if a == b:
            return self.ints < other.ints
        for u, v in zip(self.ints, other.ints):
            for x, y in zip(u, v):
                if x * b != y * a:
                    return x * b < y * a
        return len(self.ints) < len(other.ints)

    def __repr__(self) -> str:
        return f"Polytope(verts={self.verts!r})"

    @cached_property
    def verts(self) -> tuple:
        """The vertices as sorted Fraction tuples."""
        den = self.den
        return tuple(tuple(Fraction(c, den) for c in p) for p in self.ints)

    @property
    def n(self) -> int:
        return len(self.ints[0])

    @cached_property
    def lattice(self) -> Lattice:
        return lattice_form(self.ints)[0]

    @property
    def adim(self) -> int:
        return len(self.lattice.chart)

    @cached_property
    def inequalities(self) -> tuple:
        """Outward facet halfspaces (nu, c): inside means <nu,x> <= c, nu a
        primitive integer normal."""
        return tuple((nu, Fraction(c, self.den)) for nu, c in self.lattice.planes)

    @cached_property
    def halfspaces(self) -> tuple:
        """<a, x> <= c/den for (a, c): (w, c) and (-w, -c) per equality, then the planes."""
        _, eqs, planes = self.lattice
        return tuple(h for w, c in eqs for h in ((w, c), (vneg(w), -c))) + planes

    @cached_property
    def box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The least and the greatest of ints per coordinate, over den."""
        return tuple(map(min, zip(*self.ints))), tuple(map(max, zip(*self.ints)))

    def contains(self, x, strict: bool = False) -> bool:
        return self.contains_scaled(*_probe(x, self.n, self.den), strict)

    def contains_scaled(self, P, L: int, strict: bool = False) -> bool:
        """Whether the point P/L, P integer and L a positive multiple of
        den, lies in the polytope (its relative interior when strict): box,
        equalities, then planes, each over k = L/den."""
        k = L // self.den
        lo, hi = self.box
        for a, x, b in zip(lo, P, hi):
            if not a * k <= x <= b * k:
                return False
        _, eqs, planes = self.lattice
        for w, c in eqs:
            if vdot(w, P) != c * k:
                return False
        # slacks are integers: strict (1) asks for >= 1, else >= 0
        for nu, c in planes:
            if c * k - vdot(nu, P) < strict:
                return False
        return True

    @cached_property
    def rings(self) -> tuple[tuple[int, ...], ...]:
        """The face table: the cycles of the edges as index tuples into
        ints, from any start in either direction (none for a point, a
        segment's ends, a polygon's ring, each facet's ring in plane order).
        A hull or a clip stores the rings it built; others read them off."""
        X, (chart, _, planes) = self.ints, self.lattice
        if len(chart) == 3:
            return index_rings(X, [ring_on(X, plane) for plane in planes])
        return index_rings(X, [ring2(X, chart) if len(chart) == 2 else X] if chart else [])

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Index pairs i < j of the edges' endpoints, sorted: the rings'
        cyclic neighbours."""
        return tuple(sorted({(i, j) if i < j else (j, i) for ring in self.rings
                             for i, j in zip(ring, ring[1:] + ring[:1])}))

    @cached_property
    def face_indices(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Every face as (dimension, its vertex indices), by dimension and
        then vertices: the vertices, edges, facets (below dimension 3 those
        are vertices or edges) and the polytope; indices sort as vertices."""
        d, idx = self.adim, range(len(self.ints))
        keys = [(0, (i,)) for i in idx] if d else []
        if d >= 2:
            keys += [(1, e) for e in self.edges]
        if d == 3:
            keys += sorted((2, tuple(sorted(ring))) for ring in self.rings)
        return tuple(keys) + ((d, tuple(idx)),)

    @cached_property
    def faces(self) -> tuple[tuple["Polytope", int], ...]:
        """Every face with its dimension, in the order of face_indices."""
        X = self.ints
        return tuple((Polytope.from_ints(self.den, [X[i] for i in idx]), k)
                     for k, idx in self.face_indices[:-1]) + ((self, self.adim),)

    def reflect(self) -> "Polytope":
        """The polytope -P; its lattice form is the negated one: equalities
        (w, -c) and facet planes (-nu, c)."""
        chart, eqs, planes = self.lattice
        return _carried(self.den, [vneg(p) for p in self.ints],
                        Lattice(chart, tuple((w, -c) for w, c in eqs),
                                tuple((vneg(nu), c) for nu, c in planes)))


def _probe(x, n: int, D: int, name: str = "point") -> tuple[tuple[int, ...], int]:
    """(S*x, S) for a point x of n coordinates, each read by ratio (no
    Fraction is made), S the lcm of D and their denominators; name is
    the vector's in the dimension error."""
    pq = [ratio(c) for c in x]
    if len(pq) != n:
        raise InputError(f"{name} dimension mismatch")
    S = lcm(D, *(q for _, q in pq))
    return tuple(p * (S // q) for p, q in pq), S


def vertex_keys(polys) -> list:
    """Each polytope's vertices as integer points over one common
    denominator, the lcm of theirs."""
    D = lcm(*(p.den for p in polys))
    return [p.ints if p.den == D else
            tuple(tuple(c * (D // p.den) for c in v) for v in p.ints) for p in polys]


# ---------------------------------------------------------------------------
# hull construction


def convex_hull(points) -> Polytope:
    """The hull of rational points of one ambient dimension 1..3, each
    coordinate read by ratio (an int, a Fraction or a literal)."""
    pts = [tuple(map(ratio, p)) for p in points]
    if not pts:
        raise InputError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InputError("mixed coordinate dimensions")
    if not 1 <= n <= 3:
        raise InputError(f"ambient dimension {n} out of range 1..3")
    den = lcm(*(q for p in pts for _, q in p))
    return _hull(den, [tuple(c * (den // q) for c, q in p) for p in pts])


def union_hull(polys) -> Polytope:
    """The hull of the union of polytopes, from their points over one denominator."""
    return _hull(lcm(*(p.den for p in polys)), [v for k in vertex_keys(polys) for v in k])


def _hull(den: int, points) -> Polytope:
    """The hull of integer points over den > 0, with the form and the rings it built."""
    lattice, ext, rings = lattice_form(sorted(set(points)))
    out = _carried(den, ext, lattice)
    out.rings = rings
    return out


def _carried(den: int, points, lattice: Lattice) -> Polytope:
    """from_ints(den, points) with their lattice form over den, reduced alike."""
    out = Polytope.from_ints(den, points)
    g = den // out.den
    if g > 1:
        eqs, planes = (tuple((w, c // g) for w, c in part) for part in lattice[1:])
        lattice = Lattice(lattice.chart, eqs, planes)
    out.__dict__["lattice"] = lattice
    return out


# ---------------------------------------------------------------------------
# constructive operations


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """P + Q over lcm(dp, dq) from the summands: a translate when one is a
    point, a solid's facets pushed out and banded when one is a segment,
    else the hull of the vertex sums, which stores its rings."""
    if p.n != q.n:
        raise InputError("Minkowski sum needs a common ambient dimension")
    if len(p.ints) > len(q.ints):
        p, q = q, p
    den = lcm(p.den, q.den)
    P, Q = vertex_keys((p, q))
    if len(P) == 1:
        V, k, (chart, *parts) = P[0], den // q.den, q.lattice
        eqs, planes = (tuple((w, c * k + vdot(w, V)) for w, c in part) for part in parts)
        return _carried(den, [vadd(V, v) for v in Q], Lattice(chart, eqs, planes))
    if len(P) == 2 and q.adim == 3:
        pts, planes = segment_sum(Q, q.lattice.planes, den // q.den, q.rings, *P)
        return _carried(den, pts, Lattice((0, 1, 2), (), planes))
    return _hull(den, [vadd(u, v) for u in P for v in Q])


def intersect_polytopes(p: Polytope, q: Polytope) -> Optional[Polytope]:
    """Closed intersection, or None when empty (at once when the boxes are
    apart): p clipped by q.halfspaces; q itself when the intersection is q."""
    if p.n != q.n:
        raise InputError("intersection needs a common ambient dimension")
    dp, dq = p.den, q.den  # per coordinate, p's box spans [a, b]/dp and q's [c, d]/dq
    if any(b * dq < c * dp or d * dp < a * dq for a, b, c, d in zip(*p.box, *q.box)):
        return None
    cap = _clip(p, q.halfspaces, dq)
    return q if cap is not p and cap == q else cap


def _covector(xi, n: int) -> tuple[tuple[int, ...], int]:
    """(L xi, L), L the lcm of xi's denominators, for a nonzero covector xi of n coordinates."""
    a, L = _probe(xi, n, 1, "covector")
    if not any(a):
        raise InputError("covector must be nonzero")
    return a, L


def slice_polytope(p: Polytope, xi, t) -> Optional[Polytope]:
    """Closed intersection with the hyperplane <xi, x> = t, or None."""
    a, L = _covector(xi, p.n)
    b, q = ratio(t)  # the hyperplane is <a, x> = b L / q, two halfspaces
    return _clip(p, [(a, b * L), (vneg(a), -b * L)], q)


def _clip(p: Polytope, cuts, M: int) -> Optional[Polytope]:
    """p cut by the halfspaces <a, x> <= C/M for (a, C) in cuts, or None
    when empty; p itself when no cut removes a point.  The points are
    homogeneous, (X, L) for X/L, indexed as p.rings.  A cut keeps the
    points of slack C*L - M*<a, X> >= 0 and puts one crossing on each edge
    whose ends' slacks differ in sign: u > 0 at (X, L) and v < 0 at (Y, K)
    meet at (u*Y - v*X, u*K - v*L).  A polygon or a solid cuts each ring at
    its crossings, and a solid orders its new facet's points by ring2 in a
    chart; both are put over one denominator last, a polygon by _hull.  A
    result in a cutting plane or below dimension 2 is hulled as it comes."""
    pts, live, d = [(V, p.den) for V in p.ints], range(len(p.ints)), p.adim
    rings = (list(zip((nu for nu, _ in p.lattice.planes), p.rings)) if d == 3
             else [(None, p.rings[0])] if d == 2 else None)  # (outward normal, ring)

    def over(ks):  # the points ks over one denominator, the lcm of theirs
        D = lcm(*(pts[k][1] for k in ks))
        return D, [tuple(c * (D // pts[k][1]) for c in pts[k][0]) for k in ks]

    for n, (a, C) in enumerate(cuts):
        s = {k: C * pts[k][1] - M * vdot(a, pts[k][0]) for k in live}
        if min(s.values()) >= 0:
            continue
        if max(s.values()) < 0:
            return None
        cross: dict = {}

        def at(i, j):  # the crossing on the edge ij, made once
            i, j = (i, j) if s[i] > 0 else (j, i)
            if (i, j) not in cross:
                (X, L), (Y, K), u, v = pts[i], pts[j], s[i], s[j]
                H = over_gcd((u * K - v * L, *(u * y - v * x for x, y in zip(X, Y))))
                cross[i, j] = len(pts)
                pts.append((H[1:], H[0]))
            return cross[i, j]

        if rings is None or max(s.values()) == 0:
            ks = [k for k in live if s[k] >= 0]  # with no slack > 0 there is no crossing
            ks += [at(i, j) for i, j in (p.edges if rings is None else ()) if s[i] * s[j] < 0]
            return _clip(_hull(*over(ks)), cuts[n + 1:], M)
        cut = []
        for nu, ring in rings:
            r = []
            for i, j in zip(ring, ring[1:] + ring[:1]):
                if s[i] >= 0:
                    r.append(i)
                if s[i] * s[j] < 0:
                    r.append(at(i, j))
            if len(r) > 2:  # a ring with a point of slack > 0
                cut.append((nu, r))
        if d == 3:
            drop = 0 if a[0] else 1 if a[1] else 2
            on = [k for k in live if s[k] == 0] + list(cross.values())
            flat = [V + (k,) for k, V in zip(on, over(on)[1])]  # each point carries its index
            cut.append((over_gcd(a), [V[3] for V in ring2(flat, [i for i in range(3) if i != drop])]))
        rings, live, p = cut, {k for _, ring in cut for k in ring}, None
    if p is not None:
        return p
    if d == 2:
        return _hull(*over(live))
    D, X = over(live)
    Y = dict(zip(live, X))
    planes = sorted((nu, vdot(nu, Y[ring[0]]), ring) for nu, ring in rings)
    out = _carried(D, X, Lattice((0, 1, 2), (), tuple(f[:2] for f in planes)))
    out.rings = index_rings(sorted(X), [[Y[k] for k in f[2]] for f in planes])
    return out


# ---------------------------------------------------------------------------
# measure and Euler data


def scaled_volume(p: Polytope, D: int) -> int:
    """d! D^d times the volume of p in its affine hull, in its chart (1 for
    a point), d = p.adim, for a multiple D of p.den: an integer."""
    d, chart, X = p.adim, p.lattice.chart, p.ints
    if d < 2:
        v = X[-1][chart[0]] - X[0][chart[0]] if d else 1
    elif d == 2:
        ring = [(X[k][chart[0]], X[k][chart[1]]) for k in p.rings[0]]
        v = abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1])))
    else:
        v0, v = X[0], 0
        for ring in p.rings:
            a = vsub(X[ring[0]], v0)
            for b, c in zip(ring[1:], ring[2:]):
                v += abs(vdot(cross3(vsub(X[b], v0), vsub(X[c], v0)), a))
    return v * (D // p.den) ** d


def open_indicator_expansion(p: Polytope) -> list[tuple[Polytope, int]]:
    """Write 1_{relint p} as a signed sum of closed-face indicators."""
    top = p.adim
    return [(f, -1 if (top - k) % 2 else 1) for f, k in p.faces]
