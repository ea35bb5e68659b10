"""Constructible functions on R^n (n <= 3) under Euler convolution.

Convolution works through the closed-face presentation: every relint
term is a signed sum of closed faces, and for closed compact convex A, B
the Euler integral of 1_A(x) 1_B(t-x) over x is 1 exactly when t lies in
the Minkowski sum A + B.  So f * g is a signed pile of Minkowski-sum
indicators, a Region of closed terms, cached once per unordered pair
since f * g = g * f, found by one key comparison; a value is 0 outside
the product's box, else the sums that hold the probe, over its den.

Pushforward to the line is in closed form, with no slicing: Euler
integration along the fibres of x -> <xi, x> sends a closed term of
weight w to w on the closed interval [min, max] of xi over the term, and
a relint term of affine dimension d to w (-1)^(d-1) on the open interval
]min, max[, or to w (-1)^d at the point when xi is constant on it
(Schapira, Operations on constructible functions, 1991; Curry, Ghrist &
Robinson, Euler calculus with applications to signals and sensing,
2012).  region.extents reads the covector and gives the extremes as
integers over one scale, and the terms' intervals are summed on them by
the one cf1 atom sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product

from .cf1 import Cf1, cf1_from_atoms, invertible_shadow
from .errors import InputError
from .linalg import cross3, primitive, vdot, vsub
from .polytope import Polytope, _probe, minkowski_sum, vertex_keys
from .region import (
    CLOSED,
    RELINT,
    Region,
    Term,
    closed_expansion,
    extents,
    indicator_normal_form,
    indicator_polys,
    is_convex_region,
    make_region,
    value_scaled,
)
from .rational import signed_sum

# input bounds: closed-face pairs, each a Minkowski sum, in one convolution;
# candidate directions (grid points, facet normals, vertex pairs) in one sweep
MAX_CONV_PAIRS = 100_000
MAX_SWEEP_DIRECTIONS = 10_000


@dataclass(frozen=True)
class ConstructibleFunction:
    region: Region


def indicator(poly: Polytope, mode: str = CLOSED, weight: int = 1) -> ConstructibleFunction:
    return ConstructibleFunction(make_region(poly.n, [(poly, mode, weight)]))


def _product(fr: Region, gr: Region) -> Region:
    # f * g = g * f: one cache entry per unordered pair, ordered by the stored hashes
    return _conv_terms(fr, gr) if fr._hash <= gr._hash else _conv_terms(gr, fr)


@lru_cache(maxsize=256)
def _conv_terms(fr: Region, gr: Region) -> Region:
    if fr.dim != gr.dim:
        raise InputError("convolution needs a common ambient dimension")
    fe, ge = closed_expansion(fr), closed_expansion(gr)
    if len(fe) * len(ge) > MAX_CONV_PAIRS:
        raise InputError(f"convolution of {len(fe)} by {len(ge)} closed faces: "
                         f"more than {MAX_CONV_PAIRS} face pairs")
    acc = signed_sum((minkowski_sum(a, b), wa * wb) for (a, wa), (b, wb) in product(fe, ge))
    return Region(fr.dim, tuple(Term(m, CLOSED, acc[m]) for m in sorted(acc)))


def euler_convolve(f: ConstructibleFunction, g: ConstructibleFunction) -> ConstructibleFunction:
    """f * g as a signed sum of closed indicators, the one Region cached
    for the pair.

    The term list is a valid presentation, not a canonical facial form;
    supports may overlap.
    """
    return ConstructibleFunction(_product(f.region, g.region))


def euler_convolve_at(f: ConstructibleFunction, g: ConstructibleFunction, t) -> int:
    P, S = _probe(t, f.region.dim, 1)  # the point is read and checked before any term is built
    return value_scaled(_product(f.region, g.region), P, S)


def cf_inverse_convex(p: Polytope) -> ConstructibleFunction:
    """Euler inverse of the indicator of a compact convex polytope:
    (-1)^d on the relative interior of the reflection, d the affine
    dimension.  For a point this is the reflected point mass."""
    return indicator(p.reflect(), RELINT, -1 if p.adim % 2 else 1)


# ---------------------------------------------------------------------------
# projections


def pushforward_linear(f: ConstructibleFunction, xi) -> Cf1:
    """Direct image under x -> <xi, x>: the Euler characteristic of the
    fibre as a one-dimensional constructible function.

    Closed form per term, from Euler integration along the fibres
    (Schapira 1991; Curry, Ghrist & Robinson 2012): with lo, hi the
    extremes of <xi, .> on the term, a closed term of weight w gives w
    on [lo, hi]; a relint term of affine dimension d gives w (-1)^(d-1)
    on ]lo, hi[, or w (-1)^d at the point when lo = hi.
    """
    ext, D, _ = extents(f.region, xi)
    points: dict = {}
    opens = []
    for term, (lo, hi) in zip(f.region.terms, ext):
        w = term.weight
        if term.mode == CLOSED:
            points[lo] = points.get(lo, 0) + w
            if lo < hi:
                points[hi] = points.get(hi, 0) + w
                opens.append((lo, hi, w))
        elif lo == hi:
            points[lo] = points.get(lo, 0) + (-w if term.poly.adim % 2 else w)
        else:
            opens.append((lo, hi, w if term.poly.adim % 2 else -w))
    return cf1_from_atoms(points, opens, D)


def _vertices(r: Region) -> list:
    """The terms' distinct vertices, sorted, scaled by one common
    denominator: differences of them have the directions of the
    differences of the rational vertices."""
    return sorted({v for k in vertex_keys([t.poly for t in r.terms]) for v in k})


def default_directions(r: Region, max_coeff: int = 5) -> list[tuple[int, ...]]:
    """Primitive covectors on the grid [-max_coeff, max_coeff]^n (so
    max_coeff is at most 8), facet normals, and pairwise vertex
    differences, one representative per line."""
    if type(max_coeff) is not int or not 0 <= max_coeff <= 8:
        raise InputError(f"max_coeff {max_coeff} out of range 0..8")
    dirs = set()
    for combo in product(range(-max_coeff, max_coeff + 1), repeat=r.dim):
        if any(combo):
            dirs.add(primitive(combo))
    for term in r.terms:
        for nu, _ in term.poly.lattice.planes:
            dirs.add(primitive(nu))
    for u, v in combinations(_vertices(r), 2):
        dirs.add(primitive(vsub(v, u)))
    return sorted(dirs)


def direction_sweep(r: Region, max_coeff: int = 5) -> dict:
    """Push the union's indicator along each direction and classify the
    shadow.  A failing direction certifies non-invertibility; an
    all-pass sweep certifies nothing (the exact decision is
    is_convex_region).  Raises InputError, before any direction is built,
    when default_directions has more than MAX_SWEEP_DIRECTIONS candidates."""
    indicator_polys(r)
    if type(max_coeff) is int and 0 <= max_coeff <= 8:  # else default_directions raises
        v = len(_vertices(r))
        count = ((2 * max_coeff + 1) ** r.dim - 1 + v * (v - 1) // 2
                 + sum(len(t.poly.lattice.planes) for t in r.terms))
        if count > MAX_SWEEP_DIRECTIONS:
            raise InputError(f"sweep of {count} candidate directions: "
                             f"more than {MAX_SWEEP_DIRECTIONS}")
    dirs = default_directions(r, max_coeff)
    f = ConstructibleFunction(indicator_normal_form(r))
    entries = []
    for xi in dirs:
        cf = pushforward_linear(f, xi)
        entries.append(
            {
                "direction": list(xi),
                "verdict": "pass" if invertible_shadow(cf) else "fail",
                "cf1": cf.to_json(),
            }
        )
    failing = [e["direction"] for e in entries if e["verdict"] == "fail"]
    return {
        "dimension": r.dim,
        "all_pass": not failing,
        "failing": failing,
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# the invertibility decision


def _perp_directions(d, r: Region):
    """Candidate primitive covectors orthogonal to d, one per line, made
    as they are asked for: in 3D, d crossed with the axes, then with the
    differences of the terms' vertices."""
    if r.dim == 2:
        yield primitive((-d[1], d[0]))
        return
    seen = set()
    diffs = (vsub(v, u) for u, v in combinations(_vertices(r), 2))
    for nu in (cross3(d, s) for s in chain(((1, 0, 0), (0, 1, 0), (0, 0, 1)), diffs)):
        if any(nu) and (nu := primitive(nu)) not in seen:
            seen.add(nu)
            yield nu


def invertibility_check_cf(r: Region) -> dict:
    """Exact invertibility verdict for the indicator of a union of
    closed polytopes, with the convex hull's Euler inverse on success
    and a witness (point pair, exit point, separating direction with a
    slice of Euler characteristic >= 2, when one is found) on failure.
    The certificate reads each slice's Euler characteristic off the
    pushforward of the union's normal form that the decision already
    built; it never slices."""
    ok, wit, nf, hull = is_convex_region(r)
    if ok:
        return {
            "invertible": True,
            "d": hull.adim,
            "hull": hull,
            "inverse": cf_inverse_convex(hull),
        }
    out = {"invertible": False, "witness": wit, "direction": None,
           "slice_at": None, "slice_chi": None}
    if r.dim == 1:
        # hyperplane slices of a line are points; the certificate is the
        # gap itself, already part of the witness
        out["direction"] = (1,)
        return out
    # the slice <xi, x> = t has the Euler characteristic of the pushforward at t
    f = ConstructibleFunction(nf)
    for xi in _perp_directions(vsub(wit["y"], wit["x"]), r):
        t = vdot(xi, wit["x"])
        chi = pushforward_linear(f, xi)(t)
        if chi >= 2:
            out.update(direction=xi, slice_at=t, slice_chi=chi)
            return out
    # fall back to scanning shadow plateaus along the default directions
    for xi in default_directions(r, 3):
        cf = pushforward_linear(f, xi)
        for i, v in enumerate(cf.point_values):
            if v >= 2:
                out.update(direction=xi, slice_at=cf.breaks[i], slice_chi=v)
                return out
        for i, v in enumerate(cf.gap_values):
            if v >= 2:
                mid = (cf.breaks[i] + cf.breaks[i + 1]) / 2
                out.update(direction=xi, slice_at=mid, slice_chi=v)
                return out
    return out
