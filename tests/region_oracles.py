"""Paths the geometry layer replaced, kept as oracles for it.

The library keys region terms, closed expansions and convolution terms
by the polytope itself, whose identity is its canonical integer form,
merges them by rational.signed_sum, and sorts them by the polytopes'
own order (Polytope.__lt__), which cross-multiplies two integer forms
and rescales no term onto a common denominator.  The fraction_*
functions are the paths those replaced: they key and sort by
the Fraction vertex tuples, and a Minkowski sum hulls the Fraction
vertex sums.  `hull_minkowski_sum` is the integer hull of the vertex
sums that the library's Minkowski sum replaced.

The library reads a polytope's faces off one face table, the rings of
its edges (`Polytope.rings`), which a hull stores as it builds them, and
measures every term in its own chart by fanning those rings;
`search_faces` is the breadth-first search over facets that found the
faces before, and `chart_volume` the projection hull that measured a
term in the hull's chart.  `parent_incidence`, `parent_edges`,
`parent_face_indices` and `parent_scaled_volume` are the paths the face
table replaced, copied as they were: each vertex's bit mask of the facet
planes it lies on, the edges as the vertex pairs on adim - 1 common
planes, the facets read off the masks, and each facet's ring rebuilt
from all the points by `ring_on`, or the polygon hulled again by `ring2`.

`brute_intersection` and `brute_slice` intersect a polytope with another
or with a hyperplane by brute force, Cramer's rule at every n of the
constraints' planes, sharing no code with the library's clip, which cuts
the face table plane by plane.  `polytope_volume`
is the Fraction volume that the convexity decision
read before it compared integer volumes over one denominator.

`parent_contains_scaled`, `parent_euler_convolve_at`,
`parent_evaluate_region` and `parent_intersect_polytopes` (with the
`parent_cut` and `parent_hull_of_ratios` it called) are the probe and
intersection paths that the library's integer-box paths and its clip
replaced, copied as they were: each probe made into Fractions and scaled
to the lcm of its own denominators, every facet plane tested with no box
reject, and both slack tables of an intersection built in full before
any row is read, every edge crossing of every constraint kept when it
holds them all, and the survivors hulled again.

`parent_slice_polytope` and `parent_slice_region` are the slicing path
that slice_region's one reading of the covector replaced, copied as it
was: each term's slice read the covector again, with t, to one integer
hyperplane <a, x> = b, and the chart's dropped coordinate was read a
third time.

`list_indicator_normal_form` is the inclusion-exclusion that kept every
subset's intersection as its own live term, 2^k - 1 of them for k terms
around a common core, before the library merged equal intersections as
it builds them.  `unfiltered_witness` is the witness scan that tried
every pair of pool points, before the library skipped the pairs that one
term holds.

The seeded random polytopes and regions the tests draw close the file.
"""

import random
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial, lcm

from sheafconv.cfun import _product
from sheafconv.errors import InputError
from sheafconv.lattice import ring2, ring_on
from sheafconv.linalg import cross3, vadd, vdot, vneg, vsub
from sheafconv.polytope import (
    Polytope,
    _clip,
    _hull,
    convex_hull,
    intersect_polytopes,
    open_indicator_expansion,
    scaled_volume,
    vertex_keys,
)
from sheafconv.randgen import rand_rat
from sheafconv.rational import lattice_point, over_gcd, rat
from sheafconv.region import (CLOSED, RELINT, Region, Term, _segment_exit, extents,
                              indicator_polys, make_region)


def fraction_make_region(dim: int, items) -> Region:
    acc: dict = {}
    polys: dict = {}
    for poly, mode, weight in items:
        key = (poly.verts, mode)
        acc[key] = acc.get(key, 0) + weight
        polys[key] = poly
    terms = [Term(polys[k], k[1], w) for k, w in acc.items() if w != 0]
    terms.sort(key=lambda t: (t.poly.verts, t.mode))
    return Region(dim, tuple(terms))


def fraction_closed_expansion(r: Region) -> list:
    acc: dict = {}
    polys: dict = {}
    for t in r.terms:
        if t.mode == CLOSED:
            pieces = [(t.poly, 1)]
        else:
            pieces = open_indicator_expansion(t.poly)
        for poly, sign in pieces:
            acc[poly.verts] = acc.get(poly.verts, 0) + sign * t.weight
            polys[poly.verts] = poly
    return [(polys[k], w) for k, w in sorted(acc.items()) if w != 0]


def fraction_minkowski_sum(p, q):
    return convex_hull([vadd(a, b) for a in p.verts for b in q.verts])


def hull_minkowski_sum(p, q):
    """The hull of all the vertex sums, added as integers over lcm(dp, dq),
    with the lattice form that hulling them builds."""
    den = lcm(p.den, q.den)
    P, Q = ([tuple(c * (den // a.den) for c in v) for v in a.ints] for a in (p, q))
    return _hull(den, [vadd(u, v) for u in P for v in Q])


def fraction_conv_terms(fr: Region, gr: Region) -> tuple:
    acc: dict = {}
    polys: dict = {}
    for a, wa in fraction_closed_expansion(fr):
        for b, wb in fraction_closed_expansion(gr):
            m = fraction_minkowski_sum(a, b)
            acc[m.verts] = acc.get(m.verts, 0) + wa * wb
            polys[m.verts] = m
    return tuple((polys[k], w) for k, w in sorted(acc.items()) if w)


def search_faces(p) -> tuple:
    """Every face of p, p included, found by breadth-first search over
    facets, each the vertices on one of its parent's facet planes, and
    sorted by affine dimension, then vertices."""
    seen = {p: None}
    frontier = [p]
    while frontier:
        nxt = []
        for f in frontier:
            for nu, c in f.lattice.planes:
                g = Polytope.from_ints(f.den, [x for x in f.ints if vdot(nu, x) == c])
                if g not in seen:
                    seen[g] = None
                    nxt.append(g)
        frontier = nxt
    faces = list(seen)
    keys = [(f.adim, k) for f, k in zip(faces, vertex_keys(faces))]
    return tuple(faces[i] for i in sorted(range(len(faces)), key=keys.__getitem__))


def euler_from_faces(p: Polytope) -> int:
    """Alternating face count; equals chi_c of the closed polytope (= 1)."""
    return sum(-1 if k % 2 else 1 for _, k in p.faces)


def polytope_volume(p) -> Fraction:
    """Volume of p in its own affine hull (counting measure for points),
    measured in its chart."""
    return Fraction(scaled_volume(p, p.den), factorial(p.adim) * p.den**p.adim)


def det(m) -> Fraction:
    """Determinant by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def cramer_hull(n: int, eqs, planes):
    """The hull of every point where n of the hyperplanes of the
    constraints <w, x> = c and <nu, x> <= c meet, on Fractions, solved by
    Cramer's rule and kept when it satisfies every constraint; None when
    no point does."""
    pts = set()
    for rows in combinations(eqs + planes, n):
        A = [tuple(w) for w, _ in rows]
        d = det(A)
        if d == 0:
            continue
        x = tuple(det([a[:i] + (c,) + a[i + 1:] for a, (_, c) in zip(A, rows)]) / d
                  for i in range(n))
        if all(vdot(w, x) == c for w, c in eqs) and all(vdot(nu, x) <= c for nu, c in planes):
            pts.add(x)
    return convex_hull(pts) if pts else None


def fraction_equalities(p) -> tuple:
    """p's affine-hull equations (w, c), <w, x> = c, with c a Fraction."""
    return tuple((w, Fraction(c, p.den)) for w, c in p.lattice.eqs)


def brute_intersection(p, q):
    """p meet q, or None when empty: the Cramer hull of the two
    polytopes' equalities and facet planes."""
    return cramer_hull(p.n, fraction_equalities(p) + fraction_equalities(q),
                       p.inequalities + q.inequalities)


def brute_slice(p, xi, t):
    """p meet the hyperplane <xi, x> = t, or None when empty: the Cramer
    hull of p's equalities and that hyperplane, and p's facet planes."""
    xi = tuple(Fraction(c) for c in xi)
    return cramer_hull(p.n, fraction_equalities(p) + ((xi, Fraction(t)),), p.inequalities)


def parent_contains_scaled(self, P, L: int, strict: bool = False) -> bool:
    """Whether the point P/L lies in the polytope (its relative
    interior when strict), for an integer point P and L > 0."""
    den = self.den
    _, eqs, planes = self.lattice
    if any(den * vdot(w, P) != c * L for w, c in eqs):
        return False
    if strict:
        return all(den * vdot(nu, P) < c * L for nu, c in planes)
    return all(den * vdot(nu, P) <= c * L for nu, c in planes)


def parent_euler_convolve_at(f, g, t) -> int:
    t = tuple(rat(c) for c in t)
    if len(t) != f.n:
        raise InputError("point dimension mismatch")
    P, L = lattice_point(t)
    return sum(u.weight for u in _product(f.region, g.region).terms
               if parent_contains_scaled(u.poly, P, L))


def parent_evaluate_region(r: Region, x) -> int:
    x = tuple(rat(c) for c in x)
    if len(x) != r.dim:
        raise InputError("point dimension mismatch")
    P, L = lattice_point(x)
    return sum(
        t.weight for t in r.terms if parent_contains_scaled(t.poly, P, L, t.mode == RELINT)
    )


def parent_slice_polytope(p: Polytope, xi, t):
    """Closed intersection with the hyperplane <xi, x> = t, or None."""
    coef = lattice_point(tuple(rat(c) for c in xi) + (rat(t),))[0]
    a, b = coef[:-1], coef[-1]  # the hyperplane is <a, x> = b in integers
    return _clip(p, [(a, b), (vneg(a), -b)], 1)


def parent_slice_region(r: Region, xi, t) -> Region:
    """Intersection with the hyperplane <xi, x> = t, written in the chart
    that drops the first coordinate where xi is nonzero."""
    ext, D, _ = extents(r, xi)
    if r.dim == 1:
        raise InputError("slicing needs ambient dimension at least 2")
    t = rat(t)
    T = t * D  # t on the extents' scale
    drop = next(i for i, c in enumerate(xi) if rat(c))
    keep = [i for i in range(r.dim) if i != drop]

    def project(poly: Polytope) -> Polytope:
        return Polytope.from_ints(poly.den, [tuple(V[i] for i in keep) for V in poly.ints])

    items = []
    for term, (lo, hi) in zip(r.terms, ext):
        # relint meets the hyperplane iff it crosses or lies inside it
        if term.mode == CLOSED or lo == hi == T or lo < T < hi:
            sliced = parent_slice_polytope(term.poly, xi, t)
            if sliced is not None:
                items.append((project(sliced), term.mode, term.weight))
    return make_region(r.dim - 1, items)


def parent_intersect_polytopes(p: Polytope, q: Polytope):
    """Closed intersection, or None when empty: either polytope when it
    lies in the other, else the hull of what _cut keeps of each polytope
    against the other's equalities and facet planes."""
    if p.n != q.n:
        raise InputError("intersection needs a common ambient dimension")
    cands = set()
    for a, b in ((p, q), (q, p)):
        _, eqs, planes = b.lattice
        rows = [[c * a.den - b.den * vdot(w, V) for V in a.ints] for w, c in eqs + planes]
        if not any(map(any, rows[:len(eqs)])) and all(min(s) >= 0 for s in rows[len(eqs):]):
            return a  # every vertex of a holds b's constraints: a lies in b
        part = parent_cut(a, rows, len(eqs))
        if part is None:
            return None
        cands |= part
    return parent_hull_of_ratios(cands) if cands else None


def parent_cut(a: Polytope, rows: list, k: int):
    """(P, L) pairs, P/L the vertices of a and its edges' crossings with the
    constraints, that hold every constraint; None when a row is all < 0 or
    an equality's row all > 0.  rows holds each constraint's slacks at a's
    vertices V, c*den_a - den_b*<w, V> for (w, c) over den_b: k equalities
    (held at 0), then planes (held at >= 0).  Slacks u, v of opposite signs
    at the ends of an edge V_i V_j put a crossing at (|v| V_i + |u| V_j) /
    (den_a (|u| + |v|)), where its slacks are |v| s_i + |u| s_j, scaled."""
    if any(max(s) < 0 or i < k and min(s) > 0 for i, s in enumerate(rows)):
        return None
    X, den, cols = a.ints, a.den, list(zip(*rows))
    cands = [(s, V, den) for s, V in zip(cols, X)]
    for i, j in a.edges:
        si, sj = cols[i], cols[j]
        for u, v in zip(si, sj):
            if u * v < 0:
                u, v = abs(u), abs(v)
                cands.append(([v * x + u * y for x, y in zip(si, sj)],
                              tuple(v * x + u * y for x, y in zip(X[i], X[j])), den * (u + v)))
    return {(P, L) for s, P, L in cands if not any(s[:k]) and all(x >= 0 for x in s[k:])}


def parent_hull_of_ratios(points) -> Polytope:
    """The hull of the points P/L, from (P, L) pairs with P integer and
    L > 0, over the lcm of their reduced denominators."""
    reduced = {over_gcd((L, *P)) for P, L in points}  # each (L, *P) in lowest terms
    den = lcm(*(L for L, *_ in reduced))
    return _hull(den, [tuple(c * (den // L) for c in P) for L, *P in reduced])


def parent_incidence(p: Polytope) -> tuple[int, ...]:
    """Per vertex, the bit mask of the facet planes it lies on."""
    planes = p.lattice.planes
    return tuple(sum(1 << k for k, (nu, c) in enumerate(planes) if vdot(nu, q) == c)
                 for q in p.ints)


def parent_edges(p: Polytope) -> tuple[tuple[int, int], ...]:
    """Index pairs of the edges' endpoints: the vertex pairs on adim - 1
    common facet planes."""
    masks, d = parent_incidence(p), p.adim
    return tuple((i, j) for i, j in combinations(range(len(masks)), 2)
                 if (masks[i] & masks[j]).bit_count() >= d - 1)


def parent_face_indices(p: Polytope) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every face as (dimension, its vertex indices), by dimension and
    then vertices: the vertices, edges, facets (below dimension 3 those
    are vertices or edges) and the polytope; indices sort as vertices."""
    d, idx = p.adim, range(len(p.ints))
    keys = [(0, (i,)) for i in idx] if d else []
    if d >= 2:
        keys += [(1, e) for e in parent_edges(p)]
    if d == 3:
        masks = parent_incidence(p)
        keys += sorted((2, tuple(i for i in idx if masks[i] >> k & 1))
                       for k in range(len(p.lattice.planes)))
    return tuple(keys) + ((d, tuple(idx)),)


def parent_scaled_volume(p: Polytope, D: int) -> int:
    """d! D^d times the volume of p in its affine hull, in its chart (1 for
    a point), d = p.adim, for a multiple D of p.den: an integer."""
    d, chart, X = p.adim, p.chart, p.ints
    if d < 2:
        v = X[-1][chart[0]] - X[0][chart[0]] if d else 1
    elif d == 2:
        ring = [(q[chart[0]], q[chart[1]]) for q in ring2(X, chart)]
        v = abs(sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1])))
    else:
        v0, v = X[0], 0
        for plane in p.lattice.planes:
            ring = ring_on(X, plane)
            a = vsub(ring[0], v0)
            for b, c in zip(ring[1:], ring[2:]):
                v += abs(vdot(cross3(vsub(b, v0), vsub(c, v0)), a))
    return v * (D // p.den) ** d


def list_indicator_normal_form(r: Region) -> Region:
    """The union's indicator with one live term per nonempty subset of
    terms, its intersection, signed by the subset's size."""
    live: list[tuple[int, Polytope]] = []
    for p in indicator_polys(r):
        fresh = [(1, p)]
        for size, q in live:
            cap = intersect_polytopes(q, p)
            if cap is not None:
                fresh.append((size + 1, cap))
        live.extend(fresh)
    return make_region(r.dim, [(q, CLOSED, -1 if size % 2 == 0 else 1) for size, q in live])


def unfiltered_witness(r: Region):
    """The first pair of pool points, vertices and then face barycenters
    over one denominator M, whose open segment leaves the union, with the
    exit point, as Fraction tuples {x, y, outside}; None when no pair has
    one.  Every pair is tried."""
    polys = [t.poly for t in r.terms]
    faces = [(k > 0, len(idx) * p.den, [p.ints[i] for i in idx])
             for p in polys for k, idx in p.face_indices]
    M = lcm(*(q for _, q, _ in faces))
    tiers = (set(), set())
    for above, q, V in faces:
        tiers[above].add(tuple(M // q * sum(c) for c in zip(*V)))
    verts = sorted(tiers[0])
    pool = verts + sorted(tiers[1] - tiers[0])
    m, n = len(verts), len(pool)
    for i, j in chain(combinations(range(m), 2),
                      ((i, j) for i in range(n) for j in range(max(i + 1, m), n))):
        z = _segment_exit(polys, pool[i], pool[j], M)
        if z is not None:
            x, y = (tuple(Fraction(c, M) for c in v) for v in (pool[i], pool[j]))
            return {"x": x, "y": y, "outside": z}
    return None


def chart_volume(p, idxs: tuple[int, ...], dim: int) -> Fraction:
    """dim-volume of the projection of p onto the given coordinates."""
    proj = convex_hull([tuple(v[i] for i in idxs) for v in p.verts])
    if proj.adim < dim:
        return Fraction(0)
    return polytope_volume(proj)


# ---------------------------------------------------------------------------
# seeded random objects (kept small-coordinate so exact hulls stay fast)

def rand_point(rng: random.Random, n: int, span: int = 4, max_den: int = 2) -> tuple:
    return tuple(rand_rat(rng, -span, span, max_den) for _ in range(n))


def rand_polytope(rng: random.Random, n: int, npts: int | None = None, span: int = 4):
    if npts is None:
        npts = rng.randint(n + 1, n + 4)
    return convex_hull([rand_point(rng, n, span) for _ in range(npts)])


def rand_box(rng: random.Random, n: int, span: int = 4):
    sides = []
    for _ in range(n):
        a = rand_rat(rng, -span, span, 2)
        b = rand_rat(rng, -span, span, 2)
        sides.append((min(a, b), max(a, b)))
    return Polytope(tuple(product(*[(lo, hi) for lo, hi in sides])))


def rand_union_region(rng: random.Random, n: int, max_terms: int = 3, span: int = 4):
    """Union of closed polytopes presented with weight one each."""
    k = rng.randint(1, max_terms)
    polys: dict = {}
    while len(polys) < k:
        p = rand_box(rng, n, span) if rng.random() < 0.5 else rand_polytope(rng, n, span=span)
        polys[p] = p
    return make_region(n, [(p, CLOSED, 1) for p in polys.values()])


def core_boxes(rng: random.Random, n: int, k: int) -> list:
    """k distinct boxes around the core [-1, 1]^n, each side pushed out by
    a seeded half-integer in [0, 2]."""
    boxes: dict = {}
    while len(boxes) < k:
        lo = [-1 - rand_rat(rng, 0, 2, 2) for _ in range(n)]
        hi = [1 + rand_rat(rng, 0, 2, 2) for _ in range(n)]
        boxes.setdefault(tuple(lo + hi), Polytope(tuple(product(*zip(lo, hi)))))
    return list(boxes.values())
