"""Minkowski sums read off their summands, pinned to the hull of the
vertex sums (tests/region_oracles.py::hull_minkowski_sum).

The library translates a summand by a point, pushes a solid's facets out
along a segment and otherwise hulls the vertex sums; every path must give
the oracle's polytope and lattice form, the chart and the equalities
equal and the facet planes equal as a set, in either argument order.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from sheafconv.polytope import Polytope, convex_hull, minkowski_sum

from region_oracles import hull_minkowski_sum

# fractional and negative coordinates over denominators that share and
# do not share factors
coords = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 9)))


@st.composite
def summand_pairs(draw):
    """Two polytopes in R^n, n = 1..3, each the hull of points of an affine
    k-flat, so points, segments, polygons and solids all occur in 3D; half
    the time the second lies in a flat parallel to the first's."""
    n = draw(st.sampled_from((1, 2, 3)))

    def matrix():
        k = draw(st.integers(0, n))
        return draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                             min_size=n, max_size=n))

    def flat(A):
        ys = draw(st.lists(st.tuples(*[coords] * len(A[0])), min_size=1, max_size=6,
                           unique=True))
        b = draw(st.tuples(*[coords] * n))
        return convex_hull([tuple(c + sum(a * x for a, x in zip(row, y)) for row, c in zip(A, b))
                            for y in ys])

    A = matrix()
    return flat(A), flat(A if draw(st.booleans()) else matrix())


def _same_form(got, want):
    assert got == want and got.verts == want.verts
    g, w = got.lattice, want.lattice
    assert (g.chart, g.eqs) == (w.chart, w.eqs)
    assert set(g.planes) == set(w.planes) and len(g.planes) == len(w.planes)


F = Fraction


@given(summand_pairs())
@settings(max_examples=400)
# a point and a solid; two parallel segments in 3D; a square and a
# triangle in one plane of R^3; a segment across a polygon's plane
@example((Polytope([(F(-1, 2), 3, F(2, 3))]), Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])))
@example((Polytope([(0, 0, 0), (1, 2, 3)]), Polytope([(F(1, 3), 0, -1), (F(4, 3), 2, 2)])))
@example((Polytope([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, -1)]),
          Polytope([(F(-1, 2), 0, F(3, 2)), (0, F(1, 2), F(1, 2)), (F(-3, 4), F(1, 2), F(5, 4))])))
@example((Polytope([(0, 0, 0), (0, 0, 1)]), Polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)])))
def test_minkowski_sum_matches_hull_of_vertex_sums(pair):
    p, q = pair
    want = hull_minkowski_sum(p, q)
    _same_form(minkowski_sum(p, q), want)
    _same_form(minkowski_sum(q, p), want)
