"""Paths the geometry layer replaced, kept as oracles for it.

The library keys region terms, closed expansions and convolution terms
by the polytope itself, whose identity is its canonical integer form,
and orders them by their vertices over one common denominator.  The
fraction_* functions are the paths those replaced: they key and sort by
the Fraction vertex tuples, and a Minkowski sum hulls the Fraction
vertex sums.

The library reads a polytope's faces off its vertex-facet incidence
table and measures every term in its own chart; `search_faces` is the
breadth-first search over facets that found the faces before, and
`chart_volume` the projection hull that measured a term in the hull's
chart.
"""

from fractions import Fraction

from sheafconv.linalg import vadd, vdot
from sheafconv.polytope import (
    Polytope,
    convex_hull,
    open_indicator_expansion,
    polytope_volume,
    vertex_keys,
)
from sheafconv.region import CLOSED, Region, Term


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


def chart_volume(p, idxs: tuple[int, ...], dim: int) -> Fraction:
    """dim-volume of the projection of p onto the given coordinates."""
    proj = convex_hull([tuple(v[i] for i in idxs) for v in p.verts])
    if proj.adim < dim:
        return Fraction(0)
    return polytope_volume(proj)
