"""The integer lattice form of a polytope against Fraction oracles.

The chart, affine dimension and equalities are pinned to the reduced
row echelon form and nullspace of tests/linalg_oracles.py, the facet
inequalities in affine dimension 1 and 2 to a brute-force enumeration of
supporting lines through vertex pairs (3D planes are pinned by the
brute-force hull oracle of test_geometry), and containment, strict and
not, to a Fraction dot product against those oracle planes.  Seeded
polytopes cover every (n, adim) with 1 <= adim <= n <= 3, with small,
mixed and large (up to 10^6) denominators, built both directly and
through convex_hull.
"""

import copy
import operator
import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import hypothesis.strategies as st
from hypothesis import example, given, settings

from sheafconv.cfun import euler_convolve_at, indicator
from sheafconv.lattice import span
from sheafconv.linalg import cross3, vadd, vdot, vneg, vsub
from sheafconv.polytope import Polytope, convex_hull
from sheafconv.region import RELINT

from linalg_oracles import nullspace, rref, scaled, vscale
from test_geometry import brute_hull3

F = Fraction
CLASSES = [(n, d) for n in (1, 2, 3) for d in range(1, n + 1)]
DENS = (1, 7, 10**3, 10**6)
EPS = F(1, 10**9)


def rand_rat(rng, den_cap):
    den = rng.randint(1, den_cap)
    return F(rng.randint(-5 * den, 5 * den), den)


def rank(pts):
    return len(rref([vsub(p, pts[0]) for p in pts[1:]])[1]) if len(pts) > 1 else 0


def rand_cloud(rng, n, d):
    """Up to d + 5 distinct points spanning a random d-flat in R^n."""
    cap = DENS[rng.randrange(len(DENS))]
    while True:
        base = tuple(rand_rat(rng, cap) for _ in range(n))
        dirs = [tuple(rand_rat(rng, cap) for _ in range(n)) for _ in range(d)]
        pts = set()
        for _ in range(rng.randint(d + 1, d + 5)):
            p = base
            for v in dirs:
                p = vadd(p, vscale(v, F(rng.randint(-6, 6), rng.choice((1, 2, 3)))))
            pts.add(p)
        pts = sorted(pts)
        if rank(pts) == d:
            return pts


def corpus(seed, per_class):
    rng = random.Random(seed)
    return [rand_cloud(rng, n, d) for n, d in CLASSES for _ in range(per_class)]


def same_plane(a, b) -> bool:
    """(w, c) and (w', c') are the same hyperplane or halfspace up to a
    positive scale."""
    (w, c), (v, e) = a, b
    i = next(k for k, x in enumerate(v) if x)
    lam = F(w[i]) / v[i]
    return lam > 0 and all(x == lam * y for x, y in zip(w, v)) and c == lam * e


def normalized(plane):
    nu, c = plane
    prim = scaled(nu)
    i = next(k for k, x in enumerate(nu) if x)
    return prim, c * prim[i] / nu[i]


def oracle_equalities(pts):
    n = len(pts[0])
    basis = nullspace([vsub(p, pts[0]) for p in pts[1:]], n)
    return [(w, vdot(w, pts[0])) for w in basis]


def oracle_planes(pts, eqs):
    """Outward facet halfspaces of the hull of pts within its affine hull."""
    d = rank(pts)
    if d == 1:
        u, v = min(pts), max(pts)
        e = vsub(v, u)
        return {normalized((vneg(e), -vdot(e, u))), normalized((e, vdot(e, v)))}
    if d == 2:
        out = set()
        for a, b in combinations(pts, 2):
            e = vsub(b, a)
            nu = (-e[1], e[0]) if len(a) == 2 else cross3(eqs[0][0], e)
            c = vdot(nu, a)
            side = {(vdot(nu, p) > c) - (vdot(nu, p) < c) for p in pts} - {0}
            if side == {-1}:
                out.add(normalized((nu, c)))
            elif side == {1}:
                out.add(normalized((vneg(nu), -c)))
        return out
    return set(brute_hull3(pts)[0])


def oracle_contains(eqs, planes, x, strict) -> bool:
    if any(vdot(w, x) != c for w, c in eqs):
        return False
    cmp = operator.lt if strict else operator.le
    return all(cmp(vdot(nu, x), c) for nu, c in planes)


def probes(rng, pts, eqs, planes):
    """Vertices, points on facets and (in 3D) edges, the centroid,
    points just outside across a facet or off the affine hull, and
    points just inside and outside near each vertex."""
    centre = vscale(pts[0], F(1))
    for p in pts[1:]:
        centre = vadd(centre, p)
    centre = vscale(centre, F(1, len(pts)))
    out = list(pts) + [centre]
    tight = [[p for p in pts if vdot(nu, p) == c] for nu, c in planes]
    for (nu, c), on in zip(planes, tight):
        t = F(rng.randint(1, 10**6 - 1), 10**6)
        mid = vadd(on[0], vscale(vsub(on[-1], on[0]), t))
        out += [mid, vadd(mid, vscale(nu, EPS)), vadd(mid, vscale(nu, -EPS))]
    for a, b in combinations(tight, 2):
        both = sorted(set(a) & set(b))
        if len(both) >= 2:
            out.append(vadd(both[0], vscale(vsub(both[-1], both[0]), F(1, 3))))
    for w, _ in eqs:
        out.append(vadd(centre, vscale(w, EPS)))
    for p in pts:
        out += [vadd(p, vscale(vsub(p, centre), EPS)), vadd(p, vscale(vsub(centre, p), EPS))]
    return out


def test_lattice_form_matches_fraction_oracles():
    seen = set()
    for i, pts in enumerate(corpus(5, 60)):
        n = len(pts[0])
        eqs = oracle_equalities(pts)
        chart = rref([vsub(p, pts[0]) for p in pts[1:]])[1]
        for poly in (Polytope(pts), convex_hull(pts)):
            assert poly.chart == tuple(chart), i
            assert poly.adim == len(chart), i
            have = [(w, F(c, poly.den)) for w, c in poly.lattice.eqs]
            assert len(have) == len(eqs) == n - poly.adim, i
            assert all(map(same_plane, have, eqs)), i
            if poly.adim < 3:
                ours = set(poly.inequalities)
                assert len(ours) == len(poly.inequalities), i
                assert ours == oracle_planes(pts, eqs), i
        seen.add((n, len(chart), max(c.denominator for p in pts for c in p) > 10**5))
    assert seen == {(n, d, big) for n, d in CLASSES for big in (False, True)}


def test_contains_matches_fraction_oracle():
    rng = random.Random(6)
    verdicts = {}
    for i, pts in enumerate(corpus(7, 50)):
        eqs = oracle_equalities(pts)
        planes = oracle_planes(pts, eqs)
        polys = (Polytope(pts), convex_hull(pts))
        for x in probes(rng, pts, eqs, planes):
            for strict in (False, True):
                want = oracle_contains(eqs, planes, x, strict)
                assert [p.contains(x, strict=strict) for p in polys] == [want] * 2, (i, x)
                verdicts[strict, want] = verdicts.get((strict, want), 0) + 1
    # every outcome shows up many times: boundary, interior and outside
    assert min(verdicts.values()) >= 1000, verdicts


@st.composite
def direction_rows(draw):
    """(n, rows): up to six integer combinations of up to three base rows
    of length n, so zero, repeated and parallel rows all occur, with
    entries from small to past 10^12."""
    n = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
    base = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=3))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)),
                           max_size=6))
    return n, [tuple(sum(c * b[i] for c, b in zip(cs, base)) for i in range(n)) for cs in combos]


@given(direction_rows())
@example((3, []))
@example((2, [(0, 0), (0, 0)]))
@example((3, [(0, 2, -4), (0, -1, 2)]))
@example((3, [(1, 0, 0), (0, 0, 1), (1, 0, 1)]))
@example((3, [(0, 1, 0), (0, 0, 2), (0, 3, -1)]))
@example((3, [(10**12, -1, 0), (10**12 + 1, 7, -3), (0, 0, 5)]))
@settings(max_examples=400)
def test_span_is_the_echelon_chart_and_scaled_nullspace(case):
    n, rows = case
    chart = rref(rows)[1]
    normals = [scaled(w) for w in nullspace(rows, n)]
    assert span(rows, n) == (tuple(chart), normals)


def cloud_with_edge_and_interior_points(rng, n):
    """Integer points of [0, 3]^n whose hull is n-dimensional, together
    with the midpoints of the hull's edges and its vertex centroid."""
    while True:
        pts = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(n + 3)}
        hull = convex_hull(pts)
        if hull.adim == n:
            break
    X = hull.verts
    pts |= {tuple((a + b) / 2 for a, b in zip(X[i], X[j])) for i, j in hull.edges}
    pts.add(tuple(sum(c) / len(X) for c in zip(*X)))
    return sorted(pts)


def test_faces_of_a_cloud_are_the_faces_of_its_hull():
    line = Polytope([(0, 0), (1, 0), (2, 0)])
    assert euler_convolve_at(indicator(line, RELINT), indicator(Polytope([(0, 0)])), (1, 0)) == 1
    rng = random.Random(15)
    half = [Fraction(k, 2) for k in range(7)]
    for n in (1, 2, 2, 3, 3):
        cloud = cloud_with_edge_and_interior_points(rng, n)
        given_, hull = Polytope(cloud), convex_hull(cloud)
        # the constructor hulls its points: one canonical polytope per set
        assert given_ == hull and len(given_.ints) < len(cloud)
        assert copy.deepcopy(given_) == given_ == pickle.loads(pickle.dumps(given_))
        assert given_.faces[:-1] == hull.faces[:-1]  # the proper faces
        for g in (Polytope([(0,) * n]), Polytope([(0,) * n, (1,) + (0,) * (n - 1)])):
            for t in product(half, repeat=n):
                assert (euler_convolve_at(indicator(given_, RELINT), indicator(g), t)
                        == euler_convolve_at(indicator(hull, RELINT), indicator(g), t)), (cloud, t)
