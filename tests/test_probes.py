"""Point probes and intersections read each polytope's integer box first.

A probe is scaled once onto the lcm of the terms' denominators and tested
against the region's box, the least and greatest corners of its terms'
boxes, then against each term's box, equalities and facet planes on
integers; an intersection of two polytopes whose boxes are disjoint is
empty before any halfspace is clipped.  These tests pin each path to the
one it replaced, kept in tests/region_oracles.py: polytopes of every
affine dimension in 1D-3D, probes on and one lattice step off their
vertices, edges, facets and box corners, probes on and off a region's
box, and pairs whose boxes touch, overlap or miss by one step.  A
region's identity is its integer key: a cached product is found by
comparing keys, with no Python-level equality of terms or polytopes.
"""

import random
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sheafconv.errors import InputError
from sheafconv.cfun import ConstructibleFunction, _conv_terms, euler_convolve, euler_convolve_at
from sheafconv.linalg import vadd
from sheafconv.polytope import Polytope, intersect_polytopes
from sheafconv.rational import fmt_rat, lattice_point
from sheafconv.region import CLOSED, RELINT, Region, Term, evaluate_region, make_region

from region_oracles import (parent_contains_scaled, parent_euler_convolve_at,
                            parent_evaluate_region, parent_intersect_polytopes, rand_polytope)

PIN = settings(max_examples=150, derandomize=True)
# denominators that share and do not share factors
DENS = (1, 2, 3, 4, 6)

coords = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENS))
directions = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@st.composite
def flats(draw, n=None):
    """A polytope of affine dimension d <= n in R^n, each d drawn: a base
    point, the base moved along each of d independent integer directions
    by a nonzero rational, and up to two more rational combinations."""
    n = draw(st.integers(1, 3)) if n is None else n
    d = draw(st.sampled_from(range(n + 1)))
    dirs = [v[:n] for v in draw(st.lists(directions, min_size=d, max_size=d))]
    if Polytope([(0,) * n] + dirs).adim < d:
        dirs = [tuple(int(i == j) for i in range(n)) for j in range(d)]
    base = draw(st.tuples(*[coords] * n))
    steps = [[c if i == j else 0 for i in range(d)]
             for j, c in enumerate(draw(st.lists(coords.filter(bool), min_size=d, max_size=d)))]
    combos = [[0] * d] + steps + draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                                               max_size=2))
    return Polytope([vadd(base, tuple(sum(c * v[i] for c, v in zip(cs, dirs)) for i in range(n)))
                     for cs in combos])


def probes(p: Polytope) -> list:
    """Vertices, edge midpoints, facet barycenters and box corners of p,
    each also moved one step of 1/den along each axis both ways."""
    den, X = p.den, p.ints
    sums = [(tuple(map(sum, zip(*(X[i] for i in idx)))), len(idx) * den)
            for k, idx in p.face_indices if k in (0, 1, p.adim - 1)]
    sums += [(c, den) for c in product(*zip(*p.box))]
    out = []
    for P, L in sums:
        out.append(tuple(Fraction(c, L) for c in P))
        for i, s in product(range(p.n), (-1, 1)):
            out.append(tuple(Fraction(c, L) + (s * Fraction(1, den) if j == i else 0)
                             for j, c in enumerate(P)))
    return out


def spellings(x):
    """x with its coordinates as Fractions, ints where integral, literals,
    and integer pairs (p, q), not in lowest terms."""
    return [x, tuple(int(c) if c.denominator == 1 else c for c in x),
            tuple(fmt_rat(c) for c in x), tuple((2 * c.numerator, 2 * c.denominator) for c in x)]


@given(flats(), st.booleans(), st.integers(1, 12))
@PIN
def test_containment_matches_the_path_it_replaced(p, strict, m):
    for x in probes(p):
        P, L = lattice_point(x)
        want = parent_contains_scaled(p, P, L, strict)
        # any multiple of den that the probe's own scale divides
        S = lcm(L, p.den) * m
        assert p.contains_scaled(tuple(c * (S // L) for c in P), S, strict) == want, x
        for y in spellings(x):
            assert p.contains(y, strict) == want, y




@given(st.integers(1, 3).flatmap(lambda n: st.tuples(flats(n), flats(n))),
       st.sampled_from((CLOSED, RELINT)))
@settings(PIN, max_examples=60)
def test_convolution_probes_match_the_path_they_replaced(pair, mode):
    p, q = pair
    f = ConstructibleFunction(make_region(p.n, [(p, CLOSED, 1)]))
    g = ConstructibleFunction(make_region(q.n, [(q, mode, -1)]))
    for t in euler_convolve(f, g).region.terms:
        for x in probes(t.poly):
            want = parent_euler_convolve_at(f, g, x)
            assert euler_convolve_at(g, f, x) == want, x
            assert all(euler_convolve_at(f, g, y) == want for y in spellings(x)), x


def box_probes(r) -> list:
    """The corners and face midpoints of r's box, each face midpoint also
    one step of 1/den outside its face and 1/(7 den) to either side of it,
    a denominator that does not divide den; one point when r is empty."""
    if not r.terms:
        return [(Fraction(1, 3),) * r.dim]
    (lo, hi), den = r.box, r.den
    mid = [Fraction(a + b, 2 * den) for a, b in zip(lo, hi)]
    out = [tuple(Fraction(c, den) for c in v) for v in product(*zip(lo, hi))]
    for i, (side, off) in product(range(r.dim), ((lo, -1), (hi, 1))):
        for step in (0, off, Fraction(1, 7), Fraction(-1, 7)):
            out.append(tuple(Fraction(side[i] + step, den) if j == i else c
                             for j, c in enumerate(mid)))
    return out


def mixed_terms(n, max_size):
    """Closed and relint terms of every affine dimension in R^n, over mixed
    denominators, with weights of both signs."""
    return st.lists(st.tuples(flats(n), st.sampled_from((CLOSED, RELINT)),
                              st.sampled_from((-1, 1, 2))), min_size=1, max_size=max_size)


@given(st.integers(1, 3).flatmap(lambda n: mixed_terms(n, 3)))
@PIN
def test_region_values_match_the_path_they_replaced(items):
    r = make_region(items[0][0].n, items)
    for x in chain(box_probes(r), *(probes(t.poly) for t in r.terms)):
        want = parent_evaluate_region(r, x)
        assert all(evaluate_region(r, y) == want for y in spellings(x)), x


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(mixed_terms(n, 2), mixed_terms(n, 1))))
@settings(PIN, max_examples=50)
def test_convolution_values_on_and_off_its_box_match_the_path_they_replaced(pair):
    f, g = (ConstructibleFunction(make_region(items[0][0].n, items)) for items in pair)
    for x in box_probes(euler_convolve(f, g).region):
        want = parent_euler_convolve_at(f, g, x)
        assert euler_convolve_at(g, f, x) == want, x
        assert all(euler_convolve_at(f, g, y) == want for y in spellings(x)), x


def _rebuilt_pair():
    """f and g as new objects, built from the same triples on every call."""
    F = Fraction
    p = Polytope([(0, 0), (F(3, 2), 0), (0, F(5, 3))])
    q = Polytope([(F(-1, 4), F(1, 2)), (1, 1), (2, F(-1, 3))])
    s = Polytope([(0, 1), (F(1, 3), 1)])
    return (ConstructibleFunction(make_region(2, [(p, CLOSED, 1), (q, RELINT, 2),
                                                  (s, CLOSED, -1)])),
            ConstructibleFunction(make_region(2, [(q, CLOSED, -1)])))


def test_a_probe_outside_the_box_tests_no_term(monkeypatch):
    # the product's box is built once, on its first probe, and a probe
    # strictly outside it calls contains_scaled on no term
    builds, tests = [], []
    real_box, real_contains = Region.__dict__["box"].func, Polytope.contains_scaled
    box = cached_property(lambda r: builds.append(r) or real_box(r))
    box.__set_name__(Region, "box")
    monkeypatch.setattr(Region, "box", box)
    monkeypatch.setattr(Polytope, "contains_scaled",
                        lambda *args: tests.append(args) or real_contains(*args))
    _conv_terms.cache_clear()
    h = euler_convolve(*_rebuilt_pair()).region
    assert builds == [] and euler_convolve_at(*_rebuilt_pair(), (1, 1)) == -1 and tests
    assert builds == [h]
    (lo, hi), den = h.box, h.den
    outside = [(Fraction(lo[0] - 1, den), 0), (0, Fraction(hi[1] + 1, den)),
               (Fraction(hi[0], den) + Fraction(1, 7 * den), Fraction(lo[1], den)),
               ((1000, 1), (-1000, 3)), ("-7", "1/2"), (100, 100)]
    inside = [(Fraction(lo[0], den), Fraction(lo[1], den)), ("1/2", "1/3")]
    for x in outside * 2:
        del tests[:]
        assert euler_convolve_at(*_rebuilt_pair(), x) == 0 and tests == [], x
    for x in inside:
        del tests[:]
        assert euler_convolve_at(*_rebuilt_pair(), x) == parent_euler_convolve_at(
            *_rebuilt_pair(), x)
        assert tests, x
    # fifteen probes of the one cached product, each from rebuilt inputs
    assert builds == [h]


def test_a_cached_product_is_found_with_no_term_or_polytope_equality(monkeypatch):
    f, g = _rebuilt_pair()
    h = euler_convolve(f, g).region
    want = [euler_convolve_at(f, g, x) for x in ((0, 0), ("1/2", "1/3"), (9, 9))]
    f2, g2 = _rebuilt_pair()
    assert f2.region is not f.region and f2.region.terms[0].poly is not f.region.terms[0].poly
    calls = []
    for cls in (Polytope, Term):
        real = cls.__eq__
        monkeypatch.setattr(cls, "__eq__", lambda a, b, real=real: calls.append(a) or real(a, b))
    got = [euler_convolve_at(f2, g2, x) for x in ((0, 0), ("1/2", "1/3"), (9, 9))]
    swapped = euler_convolve_at(g2, f2, (0, 0))
    same = euler_convolve(f2, g2).region is h is euler_convolve(g2, f2).region
    monkeypatch.undo()
    assert calls == [] and got == want and swapped == want[0] and same


def test_region_identity_is_its_integer_key():
    rng = random.Random(32)
    for i in range(90):
        n = 1 + i % 3
        items = [(rand_polytope(rng, n, rng.randint(1, n + 3)), rng.choice((CLOSED, RELINT)),
                  rng.choice((-2, -1, 1, 3))) for _ in range(rng.randint(1, 4))]
        r = make_region(n, items)
        # the same triples in another order, each polytope given by its
        # vertices permuted and repeated
        again = [(Polytope(rng.sample(p.verts, len(p.verts)) * 2), m, w) for p, m, w in items]
        rng.shuffle(again)
        r2 = make_region(n, again)
        assert r2 == r and hash(r2) == hash(r) and r2.key == r.key, i
        assert r2 is not r and all(a.poly is not b.poly for a, b in zip(r.terms, r2.terms))
        # one changed weight, mode or vertex; far lies outside every term
        far = tuple(max(c) + 1 for c in zip(*(v for p, _, _ in items for v in p.verts)))
        for k, (p, m, w) in enumerate(items):
            for changed in ((p, m, w + 1), (p, RELINT if m == CLOSED else CLOSED, w),
                            (Polytope(p.verts + (far,)), m, w)):
                assert make_region(n, items[:k] + [changed] + items[k + 1:]) != r, (i, k)
        for other in (r.key, r.terms, list(r.terms), ConstructibleFunction(r), None, 0):
            assert r != other and other != r and not r == other


def _shifted(p: Polytope, q: Polytope, axes, gap) -> Polytope:
    """q translated so that its box starts where p's ends on each of the
    axes, plus gap there, and starts where p's starts on the others."""
    (plo, phi), (qlo, _) = p.box, q.box
    shift = [(Fraction(b, p.den) + gap if i in axes else Fraction(a, p.den)) - Fraction(c, q.den)
             for i, (a, b, c) in enumerate(zip(plo, phi, qlo))]
    return Polytope([vadd(v, shift) for v in q.verts])


def axis_sets(n):
    return st.sampled_from([s for k in range(1, n + 1) for s in combinations(range(n), k)])


@st.composite
def box_pairs(draw):
    """(p, q): q a flat moved so that the boxes touch at a face, an edge
    or a corner, overlap, or miss by one step of 1/den, den the lcm of the
    two denominators."""
    n = draw(st.integers(1, 3))
    p, q = draw(flats(n)), draw(flats(n))
    axes = draw(axis_sets(n))
    step = Fraction(draw(st.sampled_from((0, -1, 1))), lcm(p.den, q.den))
    return p, _shifted(p, q, axes, step)


@given(box_pairs())
@PIN
def test_intersections_match_the_path_they_replaced(pair):
    p, q = pair
    for a, b in ((p, q), (q, p)):
        assert intersect_polytopes(a, b) == parent_intersect_polytopes(a, b)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[st.tuples(*[coords] * n)] * 2,
                                                     axis_sets(n))))
@PIN
def test_boxes_that_touch_are_not_rejected(case):
    # unit boxes that touch on k axes meet in a common face of dimension n - k
    lo_p, lo_q, axes = case
    p, q = (Polytope(list(product(*[(a, a + 1) for a in lo]))) for lo in (lo_p, lo_q))
    q = _shifted(p, q, axes, 0)
    cap = intersect_polytopes(p, q)
    assert cap is not None and cap == parent_intersect_polytopes(p, q)
    assert cap.adim == len(lo_p) - len(axes)


def test_probes_make_no_fraction(monkeypatch):
    # with the cache and the lattice forms warm, a probe of ints, Fractions
    # or literals is read to integer pairs and never made a Fraction
    F = Fraction
    p = Polytope([(0, 0), (F(3, 2), 0), (0, F(5, 3))])
    q = Polytope([(F(-1, 4), F(1, 2)), (1, 1), (2, F(-1, 3))])
    f = ConstructibleFunction(make_region(2, [(p, CLOSED, 1), (q, RELINT, 2)]))
    g = ConstructibleFunction(make_region(2, [(q, CLOSED, -1)]))
    # ints, Fractions, literals and integer pairs, inside and outside the
    # product's box
    points = [(0, 1), (F(1, 2), F(2, 3)), ("1/2", "2/3"), ("-1", "7/5"), ((1, 2), (4, 6)),
              ((-3, 1), (10, 4)), (40, -40), (F(-21, 2), 0), ("1/2", "99/7"), ((77, 3), (1, 5))]
    want = [(euler_convolve_at(f, g, x), evaluate_region(f.region, x), p.contains(x),
             q.contains(x, True)) for x in points]
    calls = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    got = [(euler_convolve_at(f, g, x), evaluate_region(f.region, x), p.contains(x),
            q.contains(x, True)) for x in points]
    monkeypatch.undo()
    assert calls == [] and got == want


@pytest.mark.parametrize("bad, message", [
    ((1, 0), "not an integer pair (p, q) with q > 0: (1, 0)"),
    ((1, 2, 3), "not an integer pair (p, q) with q > 0: (1, 2, 3)"),
    (0.5, "not an exact rational: 0.5 (float)"),
    (True, "not a rational: True"),
    ("1/0", "zero denominator"),
])
def test_a_bad_coordinate_is_an_input_error(bad, message):
    # each entry point reads its coordinates with rational.ratio: an integer
    # pair (p, q) with q > 0 is a coordinate, anything else is rejected
    # before any term is tested
    p = Polytope([(0, 0), (1, 0), (0, 1)])
    f = ConstructibleFunction(make_region(2, [(p, CLOSED, 1)]))
    for probe in (lambda x: p.contains(x), lambda x: evaluate_region(f.region, x),
                  lambda x: euler_convolve_at(f, f, x)):
        assert probe(((1, 4), (3, 12))) == probe(("1/4", "1/4")) == 1
        with pytest.raises(InputError) as err:
            probe((0, bad))
        assert message in str(err.value)
