"""Exact polytope kernel and polyhedral regions.

3D hulls and Minkowski sums are compared against a brute-force oracle
that enumerates the supporting plane of every point triple, and against
support-function certificates; together they pin both the vertex set and
the facet description.  Intersections and slices, which clip one side
on its face table, are compared against Cramer's-rule oracles and
against the form and rings that a hull of their points would give.
"""

import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from sheafconv import cfun, cli, lattice, polytope, region
from sheafconv.errors import InputError, InvariantViolation
from sheafconv.linalg import cross3, vadd, vdot, vneg, vsub
from sheafconv.polytope import (
    Polytope,
    _hull,
    convex_hull,
    intersect_polytopes,
    minkowski_sum,
    open_indicator_expansion,
    scaled_volume,
    slice_polytope,
)
from sheafconv.randgen import rand_rat
from sheafconv.rational import fmt_rat

from linalg_oracles import rref, scaled
from region_oracles import (
    brute_intersection,
    brute_slice,
    chart_volume,
    core_boxes,
    list_indicator_normal_form,
    parent_edges,
    parent_face_indices,
    parent_incidence,
    parent_scaled_volume,
    listed_intersect_polytopes,
    parent_segment_exit,
    parent_slice_polytope,
    point_slacks,
    parent_slice_region,
    polytope_volume,
    euler_from_faces,
    rand_box,
    rand_point,
    rand_polytope,
    rand_union_region,
    search_faces,
    unfiltered_witness,
    witness_pool,
)
from disjoint_terms import overlapping_terms
from test_acceptance import region_corpus
from sheafconv.region import (
    CLOSED,
    RELINT,
    Region,
    Term,
    closed_expansion,
    euler_char_c,
    evaluate_region,
    indicator_normal_form,
    is_convex_region,
    make_region,
    region_from_json,
    region_to_json,
    slice_region,
)

F = Fraction


def box2(x0, x1, y0, y1):
    return Polytope(((x0, y0), (x1, y0), (x0, y1), (x1, y1)))


def cube(a=0, b=1):
    return Polytope(tuple(product((a, b), repeat=3)))


# ---------------------------------------------------------------------------
# brute-force oracle for 3D hulls


def brute_hull3_planes(pts) -> list:
    """Supporting planes of a rank-3 point set, outward oriented, deduped:
    every point triple spanning a plane is tested against every point."""
    planes = {}
    for a, b, c in combinations(pts, 3):
        nu = cross3(vsub(b, a), vsub(c, a))
        if nu == (0, 0, 0):
            continue
        nu = scaled(nu)
        off = vdot(nu, a)
        above = below = False
        for p in pts:
            s = vdot(nu, p) - off
            above = above or s > 0
            below = below or s < 0
            if above and below:
                break
        if above and below:
            continue
        if above:
            nu, off = vneg(nu), -off
        planes[(nu, off)] = None
    return list(planes)


def brute_hull3(points):
    """(sorted facet planes, sorted extreme points) of a rank-3 cloud.

    The enumeration runs on the cloud scaled to integers, which only
    speeds up its arithmetic; offsets are scaled back.  A point is
    extreme when the normals of the planes through it have rank 3.
    """
    pts = sorted({tuple(F(c) for c in p) for p in points})
    den = lcm(*(c.denominator for p in pts for c in p))
    ipts = [tuple(int(c * den) for c in p) for p in pts]
    planes = sorted((nu, F(off, den)) for nu, off in brute_hull3_planes(ipts))
    ext = [p for p in pts if len(rref([nu for nu, off in planes if vdot(nu, p) == off])[1]) == 3]
    return planes, ext


def hull_corpus(rng, size):
    """Seeded rank-3 clouds of 4..16 points from four families."""
    out = []
    while len(out) < size:
        family = len(out) % 4
        if family == 0:  # random rationals with mixed denominators
            pts = [tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(3))
                   for _ in range(rng.randint(4, 16))]
        elif family == 1:  # a box with some face and edge midpoints
            lo = [rng.randint(-3, 0) for _ in range(3)]
            hi = [c + rng.randint(1, 3) for c in lo]
            corners = list(product(*zip(lo, hi)))
            mids = {tuple(F(lo[j] + hi[j], 2) if j in axes else c[j] for j in range(3))
                    for c in corners for axes in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}
            pts = corners + rng.sample(sorted(mids), rng.randint(0, 8))
        elif family == 2:  # a subset of the {0,1,2}^3 grid
            pts = rng.sample(list(product(range(3), repeat=3)), rng.randint(4, 16))
        else:  # a 4x4 Minkowski cloud
            p, q = (rand_polytope(rng, 3, npts=8).verts[:4] for _ in range(2))
            pts = [vadd(u, v) for u in p for v in q]
        pts = sorted({tuple(F(c) for c in p) for p in pts})
        if len(rref([vsub(p, pts[0]) for p in pts[1:]])[1]) == 3:
            out.append(pts)
    return out


def test_hull3_matches_brute_force_oracle():
    rng = random.Random(17)
    corpus = hull_corpus(rng, 300)
    assert min(map(len, corpus)) >= 4 and max(map(len, corpus)) <= 16
    for i, pts in enumerate(corpus):
        planes, ext = brute_hull3(pts)
        hull = convex_hull(pts)
        assert list(hull.verts) == ext, i
        assert sorted(hull.inequalities) == planes, i
        assert sorted(Polytope(pts).inequalities) == planes, i


# ---------------------------------------------------------------------------
# hulls, faces, volumes


def test_hull3_runs_once_per_hull(monkeypatch):
    calls = []
    real = lattice.hull3

    def counting(pts):
        calls.append(len(pts))
        return real(pts)

    monkeypatch.setattr(lattice, "hull3", counting)
    rng = random.Random(18)
    for pts in hull_corpus(rng, 8):
        calls.clear()
        hull = convex_hull(pts)
        hull.inequalities, hull.faces
        assert hull.contains(pts[0]) and calls == [len(pts)]
    p, q = (rand_polytope(rng, 3, npts=6) for _ in range(2))
    calls.clear()
    s = minkowski_sum(p, q)
    assert s.contains(vadd(p.verts[0], q.verts[0])) and len(s.faces) > 1
    assert calls == [len({vadd(u, v) for u in p.verts for v in q.verts})]


def test_hull_drops_interior_and_collinear_points():
    p = convex_hull([(0, 0), (2, 0), (0, 2), (1, 0), (F(1, 2), F(1, 2))])
    assert p.verts == ((F(0), F(0)), (F(0), F(2)), (F(2), F(0)))


def test_hull_of_degenerate_clouds():
    assert convex_hull([(1, 1, 1)] * 3).adim == 0
    seg = convex_hull([(0, 0, 0), (2, 2, 2), (1, 1, 1)])
    assert seg.verts == ((F(0),) * 3, (F(2),) * 3) and seg.adim == 1
    tri = convex_hull([(0, 0, 0), (1, 0, 1), (0, 1, 1), (F(1, 2), F(1, 2), 1)])
    assert tri.adim == 2 and len(tri.verts) == 3


def face_corpus(rng):
    """Hulls of random clouds in ambient dimensions 1 to 3, and degenerate
    hulls in 3D: points, segments and polygons."""
    out = []
    for i in range(90):
        n = 1 + i % 3
        out.append(rand_polytope(rng, n, npts=rng.randint(1, n + 5)))
    for k in range(30):
        a = rand_point(rng, 3)
        dirs = [rand_point(rng, 3, span=2) for _ in range(k % 3)]
        pts = [vadd(a, tuple(sum(rng.randint(-2, 2) * d[j] for d in dirs) for j in range(3)))
               for _ in range(rng.randint(1, 7))]
        out.append(convex_hull(pts))
    return out


def test_faces_match_facet_search_oracle():
    polys = face_corpus(random.Random(91))
    assert {p.adim for p in polys if p.n == 3} == {0, 1, 2, 3}
    for i, p in enumerate(polys):
        faces = p.faces
        assert [f for f, _ in faces] == list(search_faces(p)), i
        assert all(k == Polytope(f.verts).adim for f, k in faces), i


def test_face_expansion_computes_no_lattice_form(monkeypatch):
    calls = []
    real = polytope.lattice_form

    def counting(X):
        calls.append(len(X))
        return real(X)

    rng = random.Random(92)
    hulls = [rand_polytope(rng, n, npts=n + 4) for n in (1, 2, 3, 3)]
    monkeypatch.setattr(polytope, "lattice_form", counting)
    for p in hulls:
        assert sum(w for _, w in open_indicator_expansion(p)) in (1, -1)
    assert calls == []


def face_table_corpus(rng):
    """Hulls, which store the face table they were built with (planar
    Minkowski sums among them), and polytopes built in closed form, which
    read theirs off their planes: reflections, translates and a segment
    plus a solid."""
    hulls = face_corpus(rng)
    solids = [p for p in hulls if p.adim == 3]
    built = [p.reflect() for p in hulls]
    built += [minkowski_sum(convex_hull([rand_point(rng, p.n)]), p) for p in hulls]
    built += [minkowski_sum(convex_hull([rand_point(rng, 3) for _ in range(2)]), p)
              for p in solids]
    for n in (2, 3):
        for _ in range(20):
            # in 3D each summand lies in a plane z = const, so the sum is planar
            flat = []
            for _ in range(2):
                z, k = rand_point(rng, 1)[:n - 2], rng.randint(2, 5)
                flat.append(convex_hull([rand_point(rng, 2) + z for _ in range(k)]))
            s = minkowski_sum(*flat)
            hulls += [s] if s.adim == 2 else []
    return hulls, built


def test_face_table_matches_the_incidence_masks():
    hulls, built = face_table_corpus(random.Random(93))
    assert all("rings" in p.__dict__ for p in hulls)
    assert not any("rings" in p.__dict__ for p in built)
    assert {(p.n, p.adim) for p in built} >= {(2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}
    for i, p in enumerate(hulls + built):
        masks, d = parent_incidence(p), p.adim
        if d == 3:
            facets = [{v for v, m in enumerate(masks) if m >> k & 1}
                      for k in range(len(p.lattice.planes))]
        else:
            facets = [set(range(len(p.ints)))] if d else []
        # each ring holds its facet's vertices, in plane order, and steps
        # along edges only, so it is that facet's cycle
        assert [set(ring) for ring in p.rings] == facets, i
        edges = parent_edges(p)
        for ring in p.rings:
            steps = {(min(e), max(e)) for e in zip(ring, ring[1:] + ring[:1])}
            assert len(ring) == len(set(ring)) and steps <= set(edges), i
            assert len(steps) == (len(ring) if len(ring) > 2 else 1), i
        assert p.edges == edges, i
        assert p.face_indices == parent_face_indices(p), i
        assert scaled_volume(p, 6 * p.den) == parent_scaled_volume(p, 6 * p.den), i


def test_region_check_finds_rings_only_in_the_hull(monkeypatch, tmp_path, capsys):
    calls, volumes = [], []
    real = {name: getattr(lattice, name) for name in ("ring_on", "ring2")}
    real_volume = region.scaled_volume

    def counting(fn):
        def wrapped(*args):
            names, frame = [], sys._getframe(1)
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((fn.__name__, names[0], "scaled_volume" in names))
            return fn(*args)
        return wrapped

    def measured(p, D):
        volumes.append(p.adim)
        return real_volume(p, D)

    for mod in (lattice, polytope):
        for name, fn in real.items():
            monkeypatch.setattr(mod, name, counting(fn))
    monkeypatch.setattr(region, "scaled_volume", measured)
    rng = random.Random(94)
    for k in range(4):
        path = tmp_path / f"r{k}.json"
        path.write_text(json.dumps(region_to_json(rand_union_region(rng, 3, max_terms=4))))
        assert cli.main(["region", "check", str(path)]) in (0, 1)
    capsys.readouterr()
    assert 3 in volumes
    assert {caller for name, caller, _ in calls if name == "ring_on"} == {"hull3"}
    assert not any(in_volume for _, _, in_volume in calls)


def test_planar_minkowski_sums_are_hulls(monkeypatch):
    # a planar sum is the hull of its vertex sums, so its one monotone
    # chain runs in lattice_form; only a ring read-off runs another
    rng = random.Random(95)
    f, g = (cfun.ConstructibleFunction(make_region(2, [
        (rand_polytope(rng, 2), CLOSED, 1), (rand_polytope(rng, 2), CLOSED, 1),
        (convex_hull([rand_point(rng, 2) for _ in range(2)]), RELINT, 1)])) for _ in range(2))
    callers = []
    real = lattice.ring2

    def counting(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    for mod in (lattice, polytope):
        monkeypatch.setattr(mod, "ring2", counting)
    cfun._conv_terms.cache_clear()
    assert cfun.euler_convolve(f, g).region.terms
    assert "lattice_form" in callers and "minkowski_sum" not in callers
    assert set(callers) <= {"lattice_form", "rings"}


def test_face_lattice_counts():
    tet = Polytope(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(tet.faces) == 15  # 4+6+4+1
    assert len(cube().faces) == 27  # 8+12+6+1
    assert euler_from_faces(tet) == 1
    assert euler_from_faces(cube()) == 1
    assert euler_from_faces(box2(0, 1, 0, 1)) == 1


def test_volumes():
    assert polytope_volume(Polytope(((2, 3),))) == 1
    # degenerate polytopes are measured in their chart projection, not
    # with the euclidean metric; the chart of this segment is the x axis
    assert polytope_volume(Polytope(((0, 0, 0), (1, 2, 2)))) == 1
    assert polytope_volume(box2(0, 2, 0, 3)) == 6
    assert polytope_volume(Polytope(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))) == F(1, 6)
    assert polytope_volume(cube()) == 1


def test_chart_volume_projects():
    tri = Polytope(((0, 0, 0), (1, 0, 1), (0, 1, 1)))
    assert chart_volume(tri, (0, 1), 2) == F(1, 2)
    assert chart_volume(tri, (0,), 1) == 1  # shadow on the x axis
    seg = Polytope(((0, 0, 0), (1, 2, 2)))
    assert chart_volume(seg, (0, 1), 2) == 0  # projection stays rank-deficient


def test_contains_strict():
    p = box2(0, 1, 0, 1)
    assert p.contains((F(1, 2), F(1, 2)), strict=True)
    assert p.contains((F(0), F(1, 2))) and not p.contains((F(0), F(1, 2)), strict=True)
    assert not p.contains((F(2), F(0)))


# ---------------------------------------------------------------------------
# minkowski sums


def test_minkowski_anchors():
    sq = box2(0, 1, 0, 1)
    seg = Polytope(((0, 0), (1, 1)))
    assert minkowski_sum(sq, seg) == convex_hull(
        [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)]
    )
    assert minkowski_sum(cube(), Polytope(((1, 1, 1),))) == cube(1, 2)


def test_minkowski_matches_brute_force_oracle():
    rng = random.Random(13)
    for i in range(8):
        p = rand_polytope(rng, 3, npts=rng.randint(4, 7))
        q = rand_polytope(rng, 3, npts=rng.randint(4, 7))
        s = minkowski_sum(p, q)
        planes, ext = brute_hull3([vadd(u, v) for u in p.verts for v in q.verts])
        assert list(s.verts) == ext, i
        assert sorted(s.inequalities) == planes, i


def test_minkowski_support_certificates():
    rng = random.Random(14)
    for _ in range(8):
        p, q = rand_polytope(rng, 3, npts=10), rand_polytope(rng, 3, npts=10)
        s = minkowski_sum(p, q)
        for _ in range(40):
            xi = tuple(F(rng.randint(-7, 7)) for _ in range(3))
            h = [max(vdot(xi, v) for v in r.verts) for r in (s, p, q)]
            assert h[0] == h[1] + h[2]
        for u in p.verts:
            for v in q.verts:
                assert s.contains(vadd(u, v))


def test_minkowski_fractional_coordinates():
    p = convex_hull([(F(1, 3), F(1, 7)), (F(2, 3), F(5, 7)), (F(-1, 3), F(2, 7))])
    q = convex_hull([(F(1, 2), F(1, 5)), (F(-3, 2), F(4, 5))])
    # a triangle plus a segment parallel to none of its edges: the first
    # vertex moves by one end of the segment only, the other two by both
    assert minkowski_sum(p, q).verts == (
        (F(-11, 6), F(38, 35)), (F(-5, 6), F(53, 35)), (F(1, 6), F(17, 35)),
        (F(5, 6), F(12, 35)), (F(7, 6), F(32, 35)),
    )
    p3 = convex_hull([(F(1, 3), 0, F(1, 7)), (F(2, 3), F(1, 2), F(5, 7)),
                      (F(-1, 3), F(3, 5), F(2, 7)), (0, F(-1, 4), F(3, 11))])
    q3 = convex_hull([(F(1, 2), F(1, 5), 0), (F(-3, 2), F(4, 5), F(1, 9)),
                      (F(1, 6), F(-2, 5), F(5, 9))])
    s = minkowski_sum(p3, q3)
    planes, ext = brute_hull3([vadd(u, v) for u in p3.verts for v in q3.verts])
    assert list(s.verts) == ext and sorted(s.inequalities) == planes


# ---------------------------------------------------------------------------
# intersections and slices


def test_intersect_triangle_box():
    tri = Polytope(((0, 0), (4, 0), (0, 4)))
    sq = box2(1, 3, 1, 3)
    # the hypotenuse passes through (3,1) and (1,3), shaving one corner
    assert intersect_polytopes(tri, sq) == convex_hull([(1, 1), (3, 1), (1, 3)])
    assert intersect_polytopes(tri, box2(1, 2, 1, 2)) == box2(1, 2, 1, 2)


def test_intersect_disjoint_is_none():
    assert intersect_polytopes(box2(0, 1, 0, 1), box2(3, 4, 0, 1)) is None


def test_intersect_touching_is_a_face():
    r = intersect_polytopes(box2(0, 1, 0, 1), box2(1, 2, 0, 1))
    assert r == Polytope(((1, 0), (1, 1)))


def intersection_pairs(rng):
    """Seeded 2D and 3D pairs, by kind: random hulls and boxes; the second
    moved past a box along some axes (disjoint) or by exactly its widths
    (touching in a facet, an edge or a vertex); the hull of some vertices
    of the first (nested); and points, segments and polygons against
    either (lower-dimensional)."""
    out = []
    for i in range(180):
        n, kind = 2 + i % 2, i // 2 % 5
        p = rand_box(rng, n) if i % 3 or kind in (1, 2) else rand_polytope(rng, n)
        if kind == 0:
            q = rand_box(rng, n) if rng.random() < 0.5 else rand_polytope(rng, n)
        elif kind in (1, 2):
            width = [max(v[j] for v in p.verts) - min(v[j] for v in p.verts) for j in range(n)]
            axes = rng.sample(range(n), rng.randint(1, n))
            gap = F(rng.randint(1, 4), 2) if kind == 1 else 0
            q = Polytope([vadd(v, tuple(width[j] + gap if j in axes else 0 for j in range(n)))
                          for v in p.verts])
        elif kind == 3:
            q = convex_hull(rng.sample(p.verts, rng.randint(1, len(p.verts))))
        else:
            q = rand_polytope(rng, n, npts=rng.randint(1, n), span=3)
            if rng.random() < 0.3:
                p = rand_polytope(rng, n, npts=rng.randint(1, n), span=3)
        out.append((kind, p, q))
    return out


def test_intersection_matches_brute_force_oracle():
    seen = set()
    for i, (kind, p, q) in enumerate(intersection_pairs(random.Random(77))):
        want = brute_intersection(p, q)
        assert intersect_polytopes(p, q) == want == intersect_polytopes(q, p), (i, p, q)
        seen.add((kind, None if want is None else want.adim < p.n))
    # every kind met, disjoint pairs empty, touching ones nonempty and flat
    assert {(1, None), (2, True), (3, False), (3, True), (4, True), (0, None)} <= seen
    assert (1, False) not in seen and (1, True) not in seen and (2, None) not in seen


def test_contained_intersection_is_returned_as_it_is():
    """A polytope that lies in the other comes back as the same object:
    an equal copy, a point inside, a vertex, an edge midpoint and up to
    three lower-dimensional faces; the brute-force oracle agrees."""
    rng = random.Random(79)
    seen = set()
    for i in range(24):
        n = 2 + i % 2
        b = rand_box(rng, n) if i % 3 else rand_polytope(rng, n)
        if b.adim < n:
            continue
        inner = tuple(sum(c) / len(b.verts) for c in zip(*b.verts))
        u, v = (b.verts[k] for k in rng.choice(b.edges))
        inside = [Polytope(b.verts), Polytope([inner]), Polytope([rng.choice(b.verts)]),
                  Polytope([tuple((x + y) / 2 for x, y in zip(u, v))])]
        faces = [f for f, k in b.faces if 0 < k < b.adim]
        for a in inside + rng.sample(faces, min(3, len(faces))):
            assert brute_intersection(a, b) == a, (i, a, b)
            assert intersect_polytopes(a, b) is a, (i, a, b)
            assert intersect_polytopes(b, a) is (b if a == b else a), (i, a, b)
            seen.add((n, a.adim))
    assert seen == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}


def test_slice_cube_diagonal():
    s = slice_polytope(cube(), (1, 1, 1), F(3, 2))
    assert s is not None and s.adim == 2
    assert polytope_volume(convex_hull([(v[0], v[1]) for v in s.verts])) == F(3, 4)
    assert slice_polytope(cube(), (1, 1, 1), F(4)) is None


def test_random_slices_sample_consistently():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.choice([2, 3])
        p = rand_polytope(rng, n)
        xi = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if all(c == 0 for c in xi):
            xi = (F(1),) * n
        t = vdot(xi, rand_point(rng, n))
        s = slice_polytope(p, xi, t)
        if s is None:
            continue
        for v in s.verts:
            assert vdot(xi, v) == t and p.contains(v)


def slice_cases(rng):
    """Seeded (kind, p, xi, t) in ambient dimensions 1 to 3 and every
    affine dimension of p: hyperplanes through a vertex, holding an edge,
    a facet or all of p, missing p, and with coefficients and offsets of
    mixed denominators."""
    out = []
    for i in range(120):
        n = 1 + i % 3
        a, dirs = rand_point(rng, n), [rand_point(rng, n, span=2) for _ in range(i // 3 % (n + 1))]
        p = convex_hull([vadd(a, tuple(sum(rng.randint(-2, 2) * e[j] for e in dirs) for j in range(n)))
                         for _ in range(len(dirs) + rng.randint(1, 4))])
        xi = tuple(F(rng.choice((-2, -1, 1, 3))) for _ in range(n))
        out.append(("vertex", p, xi, vdot(xi, rng.choice(p.verts))))
        out.append(("miss", p, xi, max(vdot(xi, v) for v in p.verts) + F(1, 3)))
        mixed = tuple(F(rng.choice((-5, -2, 1, 4)), rng.choice((1, 3, 7))) for _ in range(n))
        centre = [sum(c) / len(p.verts) for c in zip(*p.verts)]
        out.append(("mixed", p, mixed, vdot(mixed, centre) + F(rng.randint(-3, 3), 11)))
        if p.adim < n:
            w, c = rng.choice(p.lattice.eqs)
            out.append(("flat", p, w, F(c, p.den)))
        elif n > 1:
            nu, c = rng.choice(p.lattice.planes)
            out.append(("facet", p, nu, F(c, p.den)))
        if p.adim and n > 1:
            u, v = (p.verts[k] for k in rng.choice(p.edges))
            e = vsub(v, u)
            xi = (-e[1], e[0]) if n == 2 else cross3(e, rand_point(rng, 3))
            if any(xi):
                out.append(("edge", p, xi, vdot(xi, u)))
    return out


def test_slice_matches_brute_force_oracle():
    seen = set()
    for i, (kind, p, xi, t) in enumerate(slice_cases(random.Random(16))):
        s = slice_polytope(p, xi, t)
        assert s == brute_slice(p, xi, t), (i, kind, p, xi, t)
        if kind == "flat":
            assert s is p, i  # p lies in the hyperplane
        seen.add((p.n, p.adim, kind, None if s is None else s.adim))
    for n in (1, 2, 3):
        for d in range(n + 1):
            kinds = {k for m, e, k, _ in seen if (m, e) == (n, d)}
            assert kinds >= {"vertex", "miss", "mixed"} | ({"flat"} if d < n else set()), (n, d)
            if n > 1:
                assert ("edge" in kinds) == (d > 0) and ("facet" in kinds) == (d == n), (n, d)
    # a solid's slices come out in each dimension: a vertex, an edge, a facet, a section
    assert {s for n, d, _, s in seen if n == d == 3} == {None, 0, 1, 2}


def test_slices_match_the_path_they_replaced():
    # slice_region reads the covector once, in extents, and clips each term
    # by <a, x> = C/q: the same polytopes, forms and rings, and the same
    # regions, as the path that read it again for every term
    prev = {}  # the last polytope of each ambient dimension, a third term
    for i, (kind, p, xi, t) in enumerate(slice_cases(random.Random(16))):
        s, want = slice_polytope(p, xi, t), parent_slice_polytope(p, xi, t)
        assert s == want, (i, kind)
        if s is not None:
            assert (s.lattice, s.rings) == (want.lattice, want.rings), (i, kind)
        n = p.n
        if n > 1:
            r = make_region(n, [(p, CLOSED, 1), (p, RELINT, -2)]
                            + ([(prev[n], RELINT, 3)] if n in prev else []))
            for u in (t, fmt_rat(F(t))):
                assert slice_region(r, xi, u) == parent_slice_region(r, xi, t), (i, kind, u)
            prev[n] = p


def test_clip_results_carry_the_form_and_rings_of_their_hull():
    caps = [intersect_polytopes(a, b) for _, p, q in intersection_pairs(random.Random(77))
            for a, b in ((p, q), (q, p))]
    caps += [slice_polytope(p, xi, t) for _, p, xi, t in slice_cases(random.Random(16))]
    caps = [c for c in caps if c is not None]
    assert {(c.n, c.adim) for c in caps} >= {(1, 0)} | {(n, d) for n in (2, 3) for d in range(n + 1)}
    for i, c in enumerate(caps):
        h = _hull(c.den, c.ints)
        assert c.lattice == h.lattice and c.face_indices == h.face_indices, i
        assert scaled_volume(c, 6 * c.den) == scaled_volume(h, 6 * h.den), i


def test_clipping_a_solid_runs_no_hull3(monkeypatch):
    # a solid's cut keeps its facets and rings and orders the new facet by
    # a monotone chain; a result below dimension 3 is hulled by one too
    pairs = [(p, q) for _, p, q in intersection_pairs(random.Random(77)) if p.adim == 3]
    slices = [c[1:] for c in slice_cases(random.Random(16)) if c[1].adim == 3]
    calls = []
    real = lattice.hull3

    def counting(pts):
        calls.append(len(pts))
        return real(pts)

    monkeypatch.setattr(lattice, "hull3", counting)
    caps = [intersect_polytopes(p, q) for p, q in pairs] + [slice_polytope(*c) for c in slices]
    solids = [c for c in caps if c is not None and c.adim == 3]
    assert len(solids) > 10 and all(c.face_indices for c in solids)
    assert calls == []


# ---------------------------------------------------------------------------
# signed expansions


def test_open_indicator_expansion_segment():
    seg = Polytope(((0,), (1,)))
    terms = {(t.verts, w) for t, w in open_indicator_expansion(seg)}
    assert terms == {
        (((F(0),), (F(1),)), 1),
        (((F(0),),), -1),
        (((F(1),),), -1),
    }


def indicator_sum(expansion, x) -> int:
    return sum(w for t, w in expansion if t.contains(x))


def test_open_indicator_expansion_square_pointwise():
    sq = box2(0, 2, 0, 2)
    ex = open_indicator_expansion(sq)
    assert indicator_sum(ex, (F(1), F(1))) == 1
    for bd in ((F(0), F(1)), (F(2), F(2)), (F(1), F(0))):
        assert indicator_sum(ex, bd) == 0


# ---------------------------------------------------------------------------
# regions


def test_region_validation():
    with pytest.raises(InputError):
        make_region(2, [(Polytope(((0,),)), CLOSED, 1)])  # dim mismatch
    with pytest.raises(InputError):
        Term(box2(0, 1, 0, 1), "half-open", 1)
    with pytest.raises(InputError):
        Term(box2(0, 1, 0, 1), CLOSED, 0)
    for weight in (1.5, True, "1"):
        with pytest.raises(InputError, match="^term weight must be an integer$"):
            Term(box2(0, 1, 0, 1), CLOSED, weight)
        # checked before equal terms are summed, where True would read as 1
        with pytest.raises(InputError, match="^term weight must be an integer$"):
            make_region(2, [(box2(0, 1, 0, 1), CLOSED, weight)])
    with pytest.raises(InputError, match="^term weight must be an integer$"):
        cfun.indicator(box2(0, 1, 0, 1), CLOSED, False)
    with pytest.raises(InputError, match=r"^ambient dimension 4 out of range 1\.\.3$"):
        Region(4, ())
    for dim in ("x", True, 2.0):
        with pytest.raises(InputError, match=r"^ambient dimension .* out of range 1\.\.3$"):
            make_region(dim, [])


def test_region_checks_the_canonical_term_order():
    a, b = box2(0, 1, 0, 1), box2(2, 3, 0, 1)
    # 2/5 < 1/2, though their integer forms over 5 and 2 read 2 > 1
    half, two_fifths = convex_hull([("1/2",)]), convex_hull([("2/5",)])
    good = [(2, [(a, CLOSED), (a, RELINT), (b, CLOSED)]),
            (1, [(two_fifths, CLOSED), (half, CLOSED)])]
    bad = [(2, [(b, CLOSED), (a, CLOSED)]),
           (2, [(a, RELINT), (a, CLOSED)]),
           (2, [(a, CLOSED), (b, CLOSED), (b, CLOSED)]),
           (1, [(half, CLOSED), (two_fifths, CLOSED)])]
    for dim, keys in good:
        Region(dim, tuple(Term(p, m, 1) for p, m in keys))
    for dim, keys in bad:
        with pytest.raises(InvariantViolation, match="canonical form"):
            Region(dim, tuple(Term(p, m, 1) for p, m in keys))


def test_region_merges_duplicate_terms():
    p = box2(0, 1, 0, 1)
    r = make_region(2, [(p, CLOSED, 1), (p, CLOSED, 2), (p, RELINT, -1)])
    assert len(r.terms) == 2
    assert evaluate_region(r, (F(1, 2), F(1, 2))) == 2
    assert evaluate_region(r, (F(0), F(0))) == 3


def test_euler_char_anchors():
    sq = box2(0, 1, 0, 1)
    assert euler_char_c(make_region(2, [(sq, CLOSED, 1)])) == 1
    assert euler_char_c(make_region(2, [(sq, RELINT, 1)])) == 1
    assert euler_char_c(make_region(1, [(Polytope(((0,), (1,))), RELINT, 1)])) == -1
    assert euler_char_c(make_region(3, [(cube(), RELINT, 1)])) == -1


def test_closed_expansion_matches_pointwise():
    r = make_region(2, [(box2(0, 2, 0, 2), RELINT, 1)])
    ex = closed_expansion(r)
    assert sum(w for p, w in ex if p.contains((F(1), F(1)))) == 1
    assert sum(w for p, w in ex if p.contains((F(0), F(1)))) == 0
    assert sum(w for p, w in ex if p.contains((F(3), F(1)))) == 0


def test_slice_region_through_an_elbow():
    r = make_region(2, [
        (box2(0, 2, 0, 1), CLOSED, 1),
        (box2(0, 1, 0, 2), CLOSED, 1),
        (box2(0, 1, 0, 1), CLOSED, -1),
    ])
    s = slice_region(r, (1, 1), F(5, 2))
    assert euler_char_c(s) == 2  # two disjoint closed segments
    s0 = slice_region(r, (1, 1), F(0))
    assert euler_char_c(s0) == 1


def test_slice_region_of_relint_segment_parallel_case():
    seg = Polytope(((0, 0), (2, 0)))
    r = make_region(2, [(seg, RELINT, 1)])
    s = slice_region(r, (0, 1), F(0))  # hyperplane containing the segment
    assert euler_char_c(s) == -1
    assert euler_char_c(slice_region(r, (1, 0), F(1))) == 1
    assert euler_char_c(slice_region(r, (1, 0), F(2))) == 0  # open end


def test_slice_region_rejects_dim_one():
    r = make_region(1, [(Polytope(((0,), (1,))), CLOSED, 1)])
    with pytest.raises(InputError):
        slice_region(r, (1,), F(1, 2))


def test_pushforward_and_slicing_read_the_covector_alike():
    # extents reads the covector for both, so both give the same errors
    r = make_region(2, [(box2(0, 1, 0, 1), CLOSED, 1)])
    for read in (lambda xi: cfun.pushforward_linear(cfun.ConstructibleFunction(r), xi),
                 lambda xi: slice_region(r, xi, F(1, 2))):
        with pytest.raises(InputError, match="^covector dimension mismatch$"):
            read((1, 0, 0))
        with pytest.raises(InputError, match="^covector must be nonzero$"):
            read((0, "0/3"))


def test_slice_polytope_and_extents_check_the_covector():
    # one reading of the covector: a wrong length or a zero covector is
    # refused by slicing a polytope and by extents alike, with one text
    cube = Polytope(tuple(product((0, 2), repeat=3)))
    r = make_region(3, [(cube, CLOSED, 1)])
    for xi, text in (((1, 0), "covector dimension mismatch"),
                     ((1, 0, 0, 5), "covector dimension mismatch"),
                     ((0, 0, 0), "covector must be nonzero"),
                     ((0, "0/3", F(0)), "covector must be nonzero")):
        for read in (lambda: slice_polytope(cube, xi, 0), lambda: slice_polytope(cube, xi, 1),
                     lambda: region.extents(r, xi)):
            with pytest.raises(InputError, match=f"^{text}$"):
                read()
    assert slice_polytope(cube, (1, 0, 0), 1) == Polytope(tuple(product((1,), (0, 2), (0, 2))))


def test_convex_hull_rejects_bad_point_sets():
    with pytest.raises(InputError, match="empty point set"):
        convex_hull([])
    with pytest.raises(InputError, match="mixed coordinate dimensions"):
        convex_hull([(0, 0), (1, 0, 0)])
    with pytest.raises(InputError, match=r"ambient dimension 4 out of range 1\.\.3"):
        convex_hull([(0, 0, 0, 0)])
    square, cube = convex_hull(product((0, 1), repeat=2)), convex_hull(product((0, 1), repeat=3))
    with pytest.raises(InputError, match="^Minkowski sum needs a common ambient dimension$"):
        minkowski_sum(square, cube)
    with pytest.raises(InputError, match="^intersection needs a common ambient dimension$"):
        intersect_polytopes(square, cube)


def test_region_json_round_trip():
    r = make_region(2, [
        (box2(0, 1, 0, 1), CLOSED, 2),
        (Polytope(((0, 0), (1, 1))), RELINT, -1),
    ])
    assert region_from_json(region_to_json(r)) == r
    # seeded regions of every dimension, with relint terms and weights
    rng = random.Random(45)
    for i in range(60):
        n = 1 + i % 3
        r = rand_union_region(rng, n, max_terms=3, span=3)
        r = make_region(n, [(t.poly, rng.choice([CLOSED, RELINT]), rng.choice([-2, 1, 3]))
                            for t in r.terms])
        assert region_from_json(region_to_json(r)) == r, i


def test_region_json_rejects_garbage():
    good = region_to_json(make_region(1, [(Polytope(((0,), (1,))), CLOSED, 1)]))
    for mutate in (
        lambda d: d.pop("dimension"),
        lambda d: d["terms"][0].pop("mode"),
        lambda d: d["terms"][0].update(weight="2"),
        lambda d: d["terms"][0].update(mode="open"),
        lambda d: d["terms"][0].update(vertices=[["0.5"], ["1"]]),
        lambda d: d.update(dimension=4),
        lambda d: d["terms"][0].update(vertices=[]),
    ):
        import copy
        bad = copy.deepcopy(good)
        mutate(bad)
        with pytest.raises(InputError):
            region_from_json(bad)


# ---------------------------------------------------------------------------
# convexity decisions


def test_convex_verdicts():
    sq = make_region(2, [(box2(0, 1, 0, 1), CLOSED, 1)])
    assert is_convex_region(sq)[:2] == (True, None)
    seg3 = make_region(3, [(Polytope(((0, 0, 0), (1, 2, 3))), CLOSED, 1)])
    assert is_convex_region(seg3)[0]
    # overlapping convex pieces whose union happens to be convex
    strip = make_region(2, [(box2(0, 2, 0, 1), CLOSED, 1), (box2(1, 3, 0, 1), CLOSED, 1)])
    assert is_convex_region(strip)[0]


def test_nonconvex_witnesses_are_genuine():
    L = make_region(2, [(box2(0, 2, 0, 1), CLOSED, 1), (box2(0, 1, 0, 3), CLOSED, 1)])
    ok, wit, _, _ = is_convex_region(L)
    assert not ok
    assert evaluate_region(L, wit["x"]) == 1 and evaluate_region(L, wit["y"]) == 1
    assert evaluate_region(L, wit["outside"]) == 0
    # outside point lies on the segment between x and y
    dx, dy = vsub(wit["y"], wit["x"]), vsub(wit["outside"], wit["x"])
    assert dx[0] * dy[1] == dx[1] * dy[0]


def test_nonconvex_needs_barycenter_tier():
    # three thin bars bounding a triangle: every vertex pair segment
    # stays inside, the gap only shows from edge midpoints
    bars = make_region(2, [
        (convex_hull([(0, 0), (4, 0), (4, F(1, 2)), (0, F(1, 2))]), CLOSED, 1),
        (convex_hull([(0, 0), (F(1, 2), 0), (2, 4), (F(3, 2), 4)]), CLOSED, 1),
        (convex_hull([(4, 0), (F(7, 2), 0), (2, 4), (F(5, 2), 4)]), CLOSED, 1),
    ])
    ok, wit, _, _ = is_convex_region(bars)
    assert not ok and evaluate_region(bars, wit["outside"]) == 0


def test_convexity_random_unions_agree_with_sampling():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.choice([1, 2, 2, 3])
        r = rand_union_region(rng, n, max_terms=2, span=3)
        ok, wit, _, _ = is_convex_region(r)
        if not ok:
            assert evaluate_region(r, wit["outside"]) == 0
            assert evaluate_region(r, wit["x"]) >= 1 and evaluate_region(r, wit["y"]) >= 1
        else:
            # spot-check hull points stay inside the union
            verts = [v for t in r.terms for v in t.poly.verts]
            for _ in range(20):
                ws = [rng.randint(0, 4) for _ in verts]
                s = sum(ws)
                if s == 0:
                    continue
                x = tuple(sum(F(w, s) * v[i] for w, v in zip(ws, verts)) for i in range(n))
                assert evaluate_region(r, x) >= 1


def ie_union_volume(polys, chart, dim) -> Fraction:
    """Inclusion-exclusion volume of a union, measured in the given
    chart: every nonempty intersection of terms, by the brute-force
    oracle, is kept apart, with no merging or cancelling of equal pieces."""
    total = Fraction(0)
    live: list[tuple[tuple[int, ...], Polytope]] = []
    for i, p in enumerate(polys):
        new_live = [((i,), p)]
        for idxs, q in live:
            cap = brute_intersection(q, p)
            if cap is not None:
                new_live.append((idxs + (i,), cap))
        live.extend(new_live)
    for idxs, q in live:
        vol = chart_volume(q, chart, dim)
        total += vol if len(idxs) % 2 else -vol
    return total


def nested_union_regions(rng, size):
    """Seeded unions of closed terms in 1D to 3D, up to 4 terms (3 in 3D,
    where intersections are slow).  Every other one gains a term spanned
    by some vertices of another, so an intersection equals a term and
    the normal form cancels weights."""
    out = []
    for i in range(size):
        n = 1 + i % 3
        r = rand_union_region(rng, n, max_terms=4 if n < 3 else 2, span=2)
        polys = {t.poly.verts: t.poly for t in r.terms}
        if i % 2 and len(polys) < 4:
            host = rng.choice(list(polys.values()))
            sub = convex_hull(rng.sample(host.verts, rng.randint(1, len(host.verts))))
            polys.setdefault(sub.verts, sub)
        out.append(make_region(n, [(p, CLOSED, 1) for p in polys.values()]))
    return out


def test_normal_form_volume_matches_inclusion_exclusion_oracle():
    a9 = [r for _, r, _ in region_corpus()]
    for r in a9:
        assert is_convex_region(r)[2] == indicator_normal_form(r)
    cancelled = 0
    for i, r in enumerate(a9 + nested_union_regions(random.Random(44), 210)):
        polys = [t.poly for t in r.terms]
        ok, _, nf, _ = is_convex_region(r)
        kept = {t.poly.verts for t in nf.terms}
        cancelled += any(p.verts not in kept for p in polys)
        hull = convex_hull([v for p in polys for v in p.verts])
        if hull.adim == 0:
            assert ok, i
            continue
        chart, d = hull.lattice.chart, hull.adim
        expect = ie_union_volume(polys, chart, d)
        assert sum(t.weight * chart_volume(t.poly, chart, d) for t in nf.terms) == expect, i
        assert ok == (expect == chart_volume(hull, chart, d)), i
    assert cancelled >= 50


def touching_union_regions(rng, size):
    """Seeded unions in 2D and 3D whose terms meet in lower dimensions: a
    box, copies moved by exactly its widths along some axes (touching in a
    facet, an edge or a vertex), and points and segments spanned by
    vertices of the terms."""
    out = []
    for i in range(size):
        n = 2 + i % 2
        b = rand_box(rng, n, span=3)
        width = [b.verts[-1][j] - b.verts[0][j] for j in range(n)]
        polys = {b: None}
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                axes = rng.sample(range(n), rng.randint(1, n))
                shift = tuple(width[j] * rng.choice((-1, 1)) if j in axes else 0
                              for j in range(n))
                polys.setdefault(Polytope([vadd(v, shift) for v in b.verts]))
            else:
                host = rng.choice(list(polys))
                polys.setdefault(convex_hull(rng.sample(host.verts, rng.randint(1, 2))))
        out.append(make_region(n, [(p, CLOSED, 1) for p in polys]))
    return out


def poly_subset_regions(rng, size):
    """A seeded polytope with hulls of subsets of its vertices: every term
    lies in the first, so the intersections repeat."""
    out = []
    for i in range(size):
        n = 2 + i % 2
        host = rand_polytope(rng, n, npts=n + 5) if i % 4 else rand_box(rng, n)
        polys = {host: None}
        for _ in range(rng.randint(1, 4)):
            polys.setdefault(convex_hull(rng.sample(host.verts, rng.randint(1, len(host.verts)))))
        out.append(make_region(n, [(p, CLOSED, 1) for p in polys]))
    return out


def test_overlapping_normal_form_within_budget():
    # four balls of 64 points about close centres: every subset meets, and
    # each intersection is clipped from the one before it
    r = region_from_json(overlapping_terms(4))
    t0 = time.perf_counter()
    nf = indicator_normal_form(r)
    seconds = time.perf_counter() - t0
    assert len(nf.terms) == 15 and seconds < 5, seconds


def test_merged_normal_form_matches_list_oracle():
    """The merged inclusion-exclusion equals the one that keeps every
    subset's intersection as its own term, after the final merge."""
    rng = random.Random(45)
    cores = [make_region(n, [(p, CLOSED, 1) for p in core_boxes(rng, n, k)])
             for n in (2, 3) for k in range(2, 9)]
    regions = (cores + nested_union_regions(rng, 60) + poly_subset_regions(rng, 40)
               + touching_union_regions(rng, 60))
    flat = 0
    for i, r in enumerate(regions):
        nf = indicator_normal_form(r)
        assert nf == list_indicator_normal_form(r), i
        flat += any(t.poly.adim < r.dim for t in nf.terms)
    assert flat >= 40


def nonconvex_corpus(rng):
    """Seeded L-shapes, separated boxes, staircase chains and random
    unions of up to three boxes or polytopes, in 2D and 3D."""
    def box(lo, hi):
        return Polytope(tuple(product(*zip(lo, hi))))

    out = []
    for i in range(64):
        n, kind = 2 + i % 2, i // 2 % 4
        lo = [rand_rat(rng, -3, 1, 2) for _ in range(n)]
        hi = [a + rand_rat(rng, 1, 3, 2) for a in lo]
        if kind == 0:
            first, second = list(hi), list(hi)
            first[1] = (lo[1] + hi[1]) / 2
            second[0] = (lo[0] + hi[0]) / 2
            polys = [box(lo, first), box(lo, second)]
        elif kind == 1:
            polys, x = [], lo[0]
            for _ in range(rng.randint(2, 3)):
                polys.append(box([x] + lo[1:], [x + rand_rat(rng, 1, 2, 2)] + hi[1:]))
                x = polys[-1].verts[-1][0] + rand_rat(rng, 1, 2, 4)
        elif kind == 2:
            side = rand_rat(rng, 1, 2, 2)
            polys = [box([a + k * side * 2 / 3 for a in lo], [a + k * side * 2 / 3 + side for a in lo])
                     for k in range(rng.randint(2, 3))]
        else:
            polys = [t.poly for t in rand_union_region(rng, n, max_terms=3, span=3).terms]
        out.append(make_region(n, [(p, CLOSED, 1) for p in polys]))
    return out


def test_filtered_witness_matches_unfiltered_scan():
    """Skipping the pairs that one term holds returns the witness that the
    scan over every pair finds first."""
    nonconvex = {2: 0, 3: 0}
    for i, r in enumerate(nonconvex_corpus(random.Random(47))):
        ok, wit, _, _ = is_convex_region(r)
        assert wit == unfiltered_witness(r), i
        nonconvex[r.dim] += not ok
    assert nonconvex[2] >= 30 and nonconvex[3] >= 25


def segment_exit_cases(rng):
    """Seeded sets of polytopes of every affine dimension (points,
    segments, polygons, and in 3D solids) with segment ends over one
    denominator M: vertices, face barycenters and points on the planes of
    facets, among them pairs on one facet plane, so the segment lies in it."""
    def flat(n):  # a polygon in a plane of 3D, or a polygon of 2D
        a, b, c = (rand_point(rng, n) for _ in range(3))
        st = [(0, 0), (1, 0), (0, 1)] + [(rand_rat(rng, -1, 2, 2), rand_rat(rng, -1, 2, 2))
                                         for _ in range(2)]
        return convex_hull([tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c))
                            for s, t in st])

    makers = (lambda n: convex_hull([rand_point(rng, n)]),
              lambda n: convex_hull([rand_point(rng, n), rand_point(rng, n)]),
              flat, lambda n: rand_box(rng, n) if rng.random() < 0.4 else rand_polytope(rng, n))
    for i in range(240):
        n = 2 + i % 2
        polys = [rng.choice(makers)(n) for _ in range(rng.randint(1, 4))]
        ends, planes = [], []
        for p in polys:
            ends += p.verts
            for k, idx in p.face_indices:
                V = [p.verts[j] for j in idx]
                ends.append(tuple(sum(c) / len(V) for c in zip(*V)))
                if 1 <= k < n and k >= p.adim - 1:  # a facet or the polygon: points of its plane
                    a, b = V[0], V[-1]
                    c = V[1] if len(V) > 2 else a
                    on = [tuple(x + s * (y - x) + t * (z - x) for x, y, z in zip(a, b, c))
                          for s, t in ((-1, F(1, 2)), (F(3, 2), F(-1, 3)), (F(1, 3), F(1, 3)))]
                    ends += on
                    planes.append(on)
        M = lcm(*(p.den for p in polys), *(c.denominator for x in ends for c in x))
        ints = [tuple(int(c * M) for c in x) for x in ends]
        pairs = [rng.sample(ints, 2) for _ in range(30)]
        pairs += [[tuple(int(c * M) for c in x) for x in rng.sample(on, 2)] for on in planes]
        yield polys, [(X, Y) for X, Y in pairs if X != Y], M


def test_segment_exit_matches_the_cell_scan():
    """One interval per polytope, swept for the held prefix, gives the
    exit that testing every cell's midpoint against every polytope gave."""
    seen, found = set(), {True: 0, False: 0}
    for i, (polys, pairs, M) in enumerate(segment_exit_cases(random.Random(48))):
        seen |= {(p.n, p.adim) for p in polys}
        for X, Y in pairs:
            z = region._segment_exit(point_slacks(polys, X, M), point_slacks(polys, Y, M), X, Y, M)
            assert z == parent_segment_exit(polys, X, Y, M), (i, X, Y)
            found[z is None] += 1
    assert seen == {(n, d) for n in (2, 3) for d in range(n + 1)}
    assert min(found.values()) > 1000, found


def test_halfspace_slacks_decide_containment_and_intersections():
    """A point holds a polytope iff none of its slacks over
    Polytope.halfspaces is negative, on the segment ends of
    segment_exit_cases and on the witness pools of the region corpora; and
    intersect_polytopes, which clips by q.halfspaces, gives the polytope,
    lattice form and rings that listing q's halfspaces inline gave."""
    cases = [(polys, {V for X_Y in pairs for V in X_Y}, M)
             for polys, pairs, M in segment_exit_cases(random.Random(48))]
    regions = [r for _, r, _ in region_corpus()] + nonconvex_corpus(random.Random(47))
    cases += [([t.poly for t in r.terms], *witness_pool([t.poly for t in r.terms])[::2])
              for r in regions]
    held, caps = {True: 0, False: 0}, 0
    for i, (polys, points, M) in enumerate(cases):
        for X in points:
            for p, s in zip(polys, point_slacks(polys, X, M)):
                assert len(s) == 2 * len(p.lattice.eqs) + len(p.lattice.planes)
                assert (min(s) >= 0) == p.contains_scaled(X, M), (i, p, X, M)
                held[min(s) >= 0] += 1
        for p, q in product(polys, repeat=2):
            cap, want = intersect_polytopes(p, q), listed_intersect_polytopes(p, q)
            assert (cap is q) == (want is q), (i, p, q)
            assert cap == want and (cap is None or (cap.lattice, cap.rings)
                                    == (want.lattice, want.rings)), (i, p, q)
            caps += cap is not None
    assert min(held.values()) > 1000 and caps > 1000, (held, caps)


def test_convexity_decision_tests_containment_only_for_the_held_masks(monkeypatch):
    """On overlapping 3 the witness search reads each pool point once: the
    held masks read its slacks, so contains_scaled runs on no term (576
    calls when the masks called it), and region.vdot runs at most once per
    pool point read and halfspace.  Its witness is a pair of vertices, so
    only the 192 vertices are read: 71,424 calls, where reading both ends
    of every segment again made 647,280."""
    r = region_from_json(overlapping_terms(3))
    _, m, _ = witness_pool([t.poly for t in r.terms])
    bound = m * sum(len(t.poly.halfspaces) for t in r.terms)
    assert bound == 71_424
    contains, dots = [], []
    real_contains, real_vdot = Polytope.contains_scaled, region.vdot

    def counting_contains(self, *args):
        contains.append(self)
        return real_contains(self, *args)

    def counting_vdot(*args):
        dots.append(args)
        return real_vdot(*args)

    monkeypatch.setattr(Polytope, "contains_scaled", counting_contains)
    monkeypatch.setattr(region, "vdot", counting_vdot)
    ok, wit, _, _ = is_convex_region(r)
    assert not ok and wit is not None
    assert len(contains) == 0, len(contains)
    assert len(dots) <= bound, len(dots)


def test_l_shape_witness_tests_few_segments(monkeypatch):
    calls = []
    real = region._segment_exit

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(region, "_segment_exit", counting)
    L3 = make_region(3, [(Polytope(tuple(product((0, 2), (0, 1), (0, 2)))), CLOSED, 1),
                         (Polytope(tuple(product((0, 1), (0, 2), (0, 2)))), CLOSED, 1)])
    assert not is_convex_region(L3)[0]
    # 54 at the scan over every pair: 51 of them lie in one box
    assert len(calls) <= 3


def test_region_check_makes_fractions_only_for_the_witness(monkeypatch):
    """From the region file's JSON to is_convex_region's verdict, the only
    Fractions made are the returned witness's coordinates: x, y and the
    exit point."""
    rng = random.Random(46)
    regions = [r for _, r, _ in region_corpus()] + nested_union_regions(rng, 60)
    docs = [region_to_json(r) for r in regions]
    for doc in docs[::2]:  # JSON ints where a coordinate is integral
        for term in doc["terms"]:
            term["vertices"] = [[int(c) if "/" not in c else c for c in v] for v in term["vertices"]]
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    nonconvex = 0
    for i, (r, doc) in enumerate(zip(regions, docs)):
        calls.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        parsed = region_from_json(doc)
        ok, wit, _, _ = is_convex_region(parsed)
        monkeypatch.undo()
        assert parsed == r, i
        assert len(calls) == (0 if ok else 3 * r.dim), (i, calls)
        nonconvex += not ok
    assert nonconvex >= 15
