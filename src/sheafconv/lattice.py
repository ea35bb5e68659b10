"""The integer lattice form of the hull of an integer point list,
ambient dimension 1..3.

Integers only, no Fractions and no Polytopes: `polytope` scales rational
points to integers over one denominator and builds its Polytopes on this.
The pivot chart and the affine-hull equalities are read off the span of
the difference rows in closed form, by cross and triple products; a
planar hull is a monotone chain, and one exact 3D gift-wrapping hull
(Chand & Kapur 1970) gives the extreme points, the facets and their
rings, returned with the form as index tuples.  A solid plus a segment
pushes out the solid's facets along it (Fukuda 2004).
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import cross3, vadd, vdot, vneg, vsub
from .rational import over_gcd

# the form of a point set X: <w, x> = c for (w, c) in eqs and
# <nu, x> <= c for (nu, c) in planes on its hull; chart holds the pivot
# coordinates.  A polytope's X is its vertices scaled by its den.
Lattice = namedtuple("Lattice", "chart eqs planes")


def lattice_form(X: list) -> tuple[Lattice, list, tuple]:
    """The lattice form of the hull of the sorted distinct integer
    points X, the hull's extreme points, sorted, and the face rings it
    built, as index tuples into them (Polytope.rings)."""
    x0 = X[0]
    chart, normals = span([vsub(p, x0) for p in X[1:]], len(x0))
    eqs = tuple((w, vdot(w, x0)) for w in normals)
    loops, planes = [], []
    if len(chart) == 1:
        d = over_gcd(vsub(X[-1], x0))
        loops, planes = [[x0, X[-1]]], [(vneg(d), -vdot(d, x0)), (d, vdot(d, X[-1]))]
    elif len(chart) == 2:
        loops = [ring2(X, chart)]
        planes = ring_planes(loops[0], eqs)
    elif chart:
        planes, loops = hull3(X)
    ext = sorted({p for loop in loops for p in loop}) or [x0]
    return Lattice(chart, eqs, tuple(planes)), ext, index_rings(ext, loops)


def index_rings(X: list, loops) -> tuple[tuple[int, ...], ...]:
    """Rings of points of X as index tuples into X."""
    at = {p: i for i, p in enumerate(X)}
    return tuple(tuple(map(at.__getitem__, loop)) for loop in loops)


def span(rows: list, n: int) -> tuple[tuple[int, ...], list]:
    """The pivot chart and the normals of the span of integer rows of
    length n <= 3, as reduced echelon form has them: one normal per free
    coordinate, ascending, primitive and positive there.  Read off the
    first nonzero row u, the first nonzero u x r and one triple-product
    scan; a plane's free coordinate is the last its normal is nonzero in."""
    u = next((r for r in rows if any(r)), None)
    if u is None:
        return (), [tuple(int(i == f) for i in range(n)) for f in range(n)]
    if n == 3:
        w = next((w for w in (cross3(u, r) for r in rows) if any(w)), None)
        if w is not None:
            if any(vdot(w, r) for r in rows):
                return (0, 1, 2), []
            f = 2 if w[2] else 1 if w[1] else 0
            return tuple(i for i in range(3) if i != f), [over_gcd(w if w[f] > 0 else vneg(w))]
    elif n == 2 and any(u[0] * r[1] != u[1] * r[0] for r in rows):
        return (0, 1), []
    # a line: pivot p, and u[p] e_f - u[f] e_p per free coordinate f
    p = next(i for i, c in enumerate(u) if c)
    s = 1 if u[p] > 0 else -1
    return (p,), [over_gcd([s * (u[p] if i == f else -u[f] if i == p else 0) for i in range(n)])
                  for f in range(n) if f != p]


def ring_planes(loop: list, eqs) -> list:
    """The outward edge planes (nu, c) of a planar ring of three or more
    points, in ring order; eqs holds the plane's equalities in 3D."""
    planes = []
    for u, v, z in zip(loop, loop[1:] + loop[:1], loop[2:] + loop[:2]):
        d = vsub(v, u)
        nu = over_gcd(cross3(eqs[0][0], d) if eqs else (d[1], -d[0]))
        c = vdot(nu, u)
        if vdot(nu, z) > c:  # z, the ring's next vertex, lies inside
            nu, c = vneg(nu), -c
        planes.append((nu, c))
    return planes


def segment_sum(X: list, planes, k: int, rings, a, b) -> tuple[list, tuple]:
    """The vertices and sorted facet planes of hull(X) + [a, b] for a solid:
    X its points, planes its facets over X / k with their rings.  Each
    plane moves out by its greater value on the segment; an edge whose two
    rings' normals take opposite signs s on e = b - a adds their |s|-swapped
    sum; u + a (u + b) is a vertex when a ring with s < 0 (> 0) holds u."""
    e = vsub(b, a)
    s = [vdot(nu, e) for nu, _ in planes]
    out = [(nu, c * k + vdot(nu, a) + max(t, 0)) for (nu, c), t in zip(planes, s)]
    first: dict = {}  # each edge's first ring: only its second (f != g) can pass the test
    for g, ring in enumerate(rings):
        for i, j in zip(ring, ring[1:] + ring[:1]):
            f = first.setdefault((i, j) if i < j else (j, i), g)
            if s[f] * s[g] < 0:
                nu = over_gcd(vadd([abs(s[f]) * x for x in planes[g][0]],
                                   [abs(s[g]) * x for x in planes[f][0]]))
                out.append((nu, vdot(nu, X[i]) + vdot(nu, a)))
    pts = [vadd(X[i], p) for p, sign in ((a, -1), (b, 1))
           for i in {i for t, ring in zip(s, rings) if t * sign > 0 for i in ring}]
    return pts, tuple(sorted(out))


def ring2(X: list, chart) -> list:
    """The extreme points of a rank-2 point list in counterclockwise
    chart order."""
    i, j = chart
    back = {(p[i], p[j]): p for p in X}
    return [back[q] for q in _hull2_ring(sorted(back))]


def ring_on(X: list, plane) -> list:
    """The ring of the points of a 3D point list on a supporting plane,
    through an injective chart: drop a coordinate the normal does not
    vanish on."""
    nu, c = plane
    drop = 0 if nu[0] else 1 if nu[1] else 2
    on = [p for p in X if vdot(nu, p) == c]
    return ring2(on, [i for i in range(3) if i != drop])


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


def hull3(zpts: list) -> tuple[list, list]:
    """The sorted facet planes of a sorted rank-3 integer point list,
    and each facet's ring in plane order.

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
        best = over_gcd((b0, b1, b2))
        return best, best[0] * a0 + best[1] * a1 + best[2] * a2

    # the plane x = min x supports the lexicographic minimum; turn it
    # about lines in it until it holds three points off a line
    plane = ((-1, 0, 0), -zpts[0][0])
    ring = ring_on(zpts, plane)
    while len(ring) < 3:
        a = ring[0]
        d = vsub(ring[1], a) if len(ring) == 2 else (0, 0, 1)
        plane = wrap(a, d, vadd(a, cross3(plane[0], d)), plane[0])
        ring = ring_on(zpts, plane)

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
                rings[nxt] = ring_on(zpts, nxt)
                todo.append(nxt)

    return sorted(rings), [rings[plane] for plane in sorted(rings)]
