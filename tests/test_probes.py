"""Point probes and intersections read each polytope's integer box first.

A probe is scaled once onto the lcm of the terms' denominators and tested
against each term's box, equalities and facet planes on integers; an
intersection of two polytopes whose boxes are disjoint is empty before
any slack row is built.  These tests pin each path to the one it replaced, kept in
tests/region_oracles.py: polytopes of every affine dimension in 1D-3D,
probes on and one lattice step off their vertices, edges, facets and box
corners, and pairs whose boxes touch, overlap or miss by one step.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sheafconv.errors import InputError
from sheafconv.cfun import ConstructibleFunction, euler_convolve, euler_convolve_at
from sheafconv.linalg import vadd
from sheafconv.polytope import Polytope, intersect_polytopes
from sheafconv.rational import fmt_rat, lattice_point
from sheafconv.region import CLOSED, RELINT, evaluate_region, make_region

from region_oracles import (parent_contains_scaled, parent_euler_convolve_at,
                            parent_evaluate_region, parent_intersect_polytopes)

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


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(flats(n), st.sampled_from((CLOSED, RELINT)),
                                 st.sampled_from((-1, 1, 2))), min_size=1, max_size=3)))
@PIN
def test_region_values_match_the_path_they_replaced(items):
    r = make_region(items[0][0].n, items)
    for t in r.terms:
        for x in probes(t.poly):
            want = parent_evaluate_region(r, x)
            assert all(evaluate_region(r, y) == want for y in spellings(x)), x


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
    points = [(0, 1), (F(1, 2), F(2, 3)), ("1/2", "2/3"), ("-1", "7/5")]
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
