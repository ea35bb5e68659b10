"""Fraction-keyed term bookkeeping, kept as an oracle for the integer
identity of sheafconv.polytope.Polytope.

The library keys region terms, closed expansions and convolution terms
by the polytope itself, whose identity is its canonical integer form,
and orders them by their vertices over one common denominator.  The
functions here are the paths those replaced: they key and sort by the
Fraction vertex tuples, and a Minkowski sum hulls the Fraction vertex
sums.
"""

from sheafconv.linalg import vadd
from sheafconv.polytope import convex_hull, open_indicator_expansion
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
