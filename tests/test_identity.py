"""A polytope's identity is its canonical integer form (den, ints).

These tests pin that form against Fraction oracles: equal point sets
given as Fractions, strings, ints over a non-reduced denominator or as a
hull of a larger cloud are one polytope; region terms, closed expansions
and convolution terms match the Fraction-keyed bookkeeping of
tests/region_oracles.py term for term, order included; a reflection's
negated lattice form is the one recomputed from the negated vertices.
"""

from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
from hypothesis import given, settings

from sheafconv.cfun import ConstructibleFunction, _conv_terms, euler_convolve
from sheafconv.linalg import vneg
from sheafconv.polytope import Polytope, convex_hull
from sheafconv.region import CLOSED, RELINT, closed_expansion, make_region

from region_oracles import fraction_closed_expansion, fraction_conv_terms, fraction_make_region

# denominators that share and do not share factors
DENS = (1, 2, 3, 4, 6, 9)

coords = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENS))


def clouds(n, max_size=6):
    return st.lists(st.tuples(*[coords] * n), min_size=1, max_size=max_size, unique=True)


def polytopes(n, max_size=6):
    return clouds(n, max_size).map(convex_hull)


modes = st.sampled_from((CLOSED, RELINT))
weights = st.sampled_from((-2, -1, 1, 2))


def term_items(n, max_terms, max_size=6):
    return st.lists(st.tuples(polytopes(n, max_size), modes, weights),
                    min_size=1, max_size=max_terms)


def listed(pairs):
    return [(p.verts, w) for p, w in pairs]


@given(st.sampled_from((1, 2, 3)).flatmap(clouds), st.integers(1, 12), st.randoms())
@settings(max_examples=200)
def test_equal_point_sets_are_one_polytope(cloud, m, rnd):
    hull = convex_hull(cloud)
    ext = list(hull.verts)
    rnd.shuffle(ext)
    as_fractions = Polytope(ext)
    as_strings = Polytope([[str(c) for c in v] for v in ext])
    # the same points as integers over a denominator m times too large
    den = hull.den * m
    as_ints = Polytope.from_ints(den, [tuple(c * m for c in v) for v in hull.ints])
    again = convex_hull(list(cloud) + ext)
    polys = [hull, as_fractions, as_strings, as_ints, again]
    assert all(p == hull for p in polys)
    assert len({hash(p) for p in polys}) == 1
    assert all((p.den, p.ints) == (hull.den, hull.ints) for p in polys)
    # the form is reduced, and the Fraction view round-trips
    assert gcd(hull.den, *(c for v in hull.ints for c in v)) == 1
    assert hull.verts == tuple(sorted({tuple(Fraction(c) for c in v) for v in ext}))
    assert Polytope(hull.verts) == hull and Polytope(hull.verts).verts == hull.verts


@given(st.sampled_from((1, 2, 3)).flatmap(polytopes), st.sampled_from((1, 2, 3)).flatmap(polytopes))
def test_distinct_polytopes_are_unequal(p, q):
    assert (p == q) == (p.verts == q.verts)


def _nested(n):
    # a hull and the hull of a larger cloud share many of their vertices
    return st.tuples(clouds(n), clouds(n), clouds(n)).map(
        lambda cs: (convex_hull(cs[0]), convex_hull(cs[0] + cs[1]), convex_hull(cs[2])))


@given(st.sampled_from((1, 2, 3)).flatmap(_nested))
@settings(max_examples=300)
def test_polytopes_order_as_their_fraction_vertices(polys):
    for p in polys:
        assert not p < p
        for q in polys:
            assert (p < q) == (p.verts < q.verts)
    assert [p.verts for p in sorted(polys)] == sorted(p.verts for p in polys)


def test_polytope_order_on_a_vertex_prefix():
    # the sorted vertices of p are the first ones of q, so p comes first:
    # over one denominator, and over two
    cases = [([(0, 0), (1, 0)], [(1, 1)]),
             ([("0", "0"), ("1/2", "0")], [("1/2", "1/3")]),
             ([("0", "1/3"), ("1/2", "1/3")], [("1/2", "5/4")])]
    dens = []
    for pts, extra in cases:
        p, q = convex_hull(pts), convex_hull(pts + extra)
        assert p.verts == q.verts[:len(p.verts)] and len(p.verts) < len(q.verts)
        assert p < q and not q < p and not p < p and not q < q
        dens.append((p.den, q.den))
    assert dens == [(1, 1), (2, 6), (6, 12)]
    assert convex_hull([("1/2",)]) < convex_hull([(1,)]) < convex_hull([(1,), ("3/2",)])


@given(st.sampled_from((2, 3)).flatmap(lambda n: term_items(n, 4)))
@settings(max_examples=100)
def test_make_region_orders_by_fraction_vertices(items):
    n = items[0][0].n
    r = make_region(n, items)
    keys = [(t.poly.verts, t.mode) for t in r.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    want = fraction_make_region(n, items)
    assert [(t.poly.verts, t.mode, t.weight) for t in r.terms] == \
        [(t.poly.verts, t.mode, t.weight) for t in want.terms]
    assert r == want


def _pairs(n):
    # 3D Minkowski sums of relint expansions are many: keep 3D terms small
    size = 6 if n == 2 else 4
    return st.tuples(term_items(n, 2, size), term_items(n, 1, size))


@given(st.sampled_from((2, 3)).flatmap(_pairs))
@settings(max_examples=40)
def test_expansion_and_convolution_match_fraction_oracle(pair):
    f_items, g_items = pair
    n = f_items[0][0].n
    fr, gr = make_region(n, f_items), make_region(n, g_items)
    for r in (fr, gr):
        assert listed(closed_expansion(r)) == listed(fraction_closed_expansion(r))
        assert closed_expansion(r) == fraction_closed_expansion(r)
    want = fraction_conv_terms(fr, gr)
    got = [(t.poly, t.weight) for t in _conv_terms(fr, gr).terms]
    assert listed(got) == listed(want)
    assert got == list(want)
    conv = euler_convolve(ConstructibleFunction(fr), ConstructibleFunction(gr)).region
    assert conv == fraction_make_region(n, [(p, CLOSED, w) for p, w in want])


@given(st.sampled_from((2, 3)).flatmap(_pairs))
@settings(max_examples=40)
def test_conv_terms_commute(pair):
    # f * g = g * f term for term, so one cache entry serves both orders
    fr, gr = (make_region(items[0][0].n, items) for items in pair)
    fg, gf = ([(t.poly, t.weight) for t in _conv_terms.__wrapped__(a, b).terms]
              for a, b in ((fr, gr), (gr, fr)))
    assert listed(fg) == listed(gf) and fg == gf


@given(st.sampled_from((1, 2, 3)).flatmap(polytopes))
@settings(max_examples=200)
def test_reflection_negates_the_lattice_form(p):
    q = p.reflect()
    fresh = Polytope([vneg(v) for v in p.verts])
    assert q == fresh and q.verts == fresh.verts and hash(q) == hash(fresh)
    got, want = q.lattice, fresh.lattice
    assert (got.chart, got.eqs) == (want.chart, want.eqs)
    assert set(got.planes) == set(want.planes) and len(got.planes) == len(want.planes)
    assert q.reflect() == p
