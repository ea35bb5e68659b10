"""Weighted regions: integer combinations of closed or relatively open
polytope terms in a fixed ambient dimension.  A region file's coordinate,
a JSON int or a literal, is read to an integer pair, and each term is
hulled on the integers over the lcm of its denominators.  Terms merge by
rational.signed_sum and sort by (polytope, mode), a polytope ordering
itself by its vertices (Polytope.__lt__); no term is rescaled to sort.
A region carries den, the lcm of its terms' denominators, and its
identity, an integer key compared in C.  A point value reads the probe
to integers over den and tests the region's box, then each term's, with
no Fraction.  extents reads a covector once, for pushforward and slicing,
to integers by the same reader, with no Fraction.

The union of an indicator region's terms has one normal form, its honest
indicator written by inclusion-exclusion over the terms' intersections,
equal ones merged; this is the package's one inclusion-exclusion.  The
convexity decision compares exact volumes as integers over one
denominator: the support equals its convex hull iff the hull volume
matches the union's, read off the normal form term by term, each in its
own chart (the hull's, for a term of the hull's dimension; a lower one
has measure zero).  A nonempty difference is open in the hull, so it has
positive volume: the comparison is a decision procedure, not a heuristic.
The witness search reads each pool point once, as its slacks over each
term's `halfspaces`: they give the terms holding it and end each segment
from it, on which a term holds one interval; the exit is in their gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations
from math import gcd, lcm

from .errors import InputError, InvariantViolation
from .linalg import vdot, vneg
from .polytope import (
    Polytope,
    _clip,
    _covector,
    _probe,
    convex_hull,
    intersect_polytopes,
    open_indicator_expansion,
    scaled_volume,
    union_hull,
)
from .rational import MAX_LITERAL_DIGITS, fmt_ratio, int_too_long, ratio, signed_sum

CLOSED = "closed"
RELINT = "relint"
# an input bound: the merged live terms of one inclusion-exclusion, one
# per distinct intersection; 2^k - 1 for k terms whose intersections are
# all distinct, such as tangent cuts of a square, so 12 of those fit
MAX_IE_TERMS = 4096
# input bounds of a region file: its terms, and the vertices given per term
MAX_REGION_TERMS = 256
MAX_TERM_VERTICES = 64


@dataclass(frozen=True)
class Term:
    poly: Polytope
    mode: str
    weight: int

    def __post_init__(self):
        if self.mode not in (CLOSED, RELINT):
            raise InputError(f"unknown face-selection mode {self.mode!r}")
        if not isinstance(self.weight, int) or isinstance(self.weight, bool):
            raise InputError("term weight must be an integer")
        if self.weight == 0:
            raise InputError("term weight must be nonzero")


@dataclass(frozen=True)
class Region:
    dim: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if type(self.dim) is not int or not 1 <= self.dim <= 3:
            raise InputError(f"ambient dimension {self.dim} out of range 1..3")
        if any(t.poly.n != self.dim for t in self.terms):
            raise InputError("term dimension mismatch")
        keys = [(t.poly, t.mode) for t in self.terms]
        if not all(a < b for a, b in zip(keys, keys[1:])):
            raise InvariantViolation("region terms not in canonical form")
        # its identity: the integer forms by reference, compared in C
        object.__setattr__(self, "key", (self.dim, tuple(
            (t.poly.den, t.poly.ints, t.mode, t.weight) for t in self.terms)))
        object.__setattr__(self, "_hash", hash((self.dim, tuple(
            (t.poly._hash, t.mode, t.weight) for t in self.terms))))
        # the region's one scale, the lcm of its terms' denominators
        object.__setattr__(self, "den", lcm(*(p.den for p, _ in keys)))

    def __eq__(self, other):
        return isinstance(other, Region) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The least and the greatest of the terms' box corners per
        coordinate, over den: built on the first probe, empty with no terms."""
        cs = [[c * (self.den // t.poly.den) for c in v] for t in self.terms for v in t.poly.box]
        return tuple(map(min, zip(*cs))), tuple(map(max, zip(*cs)))


def make_region(dim: int, items) -> Region:
    """Canonical region from (polytope, mode, weight) triples.

    Equal (polytope, mode) entries merge; zero weights drop out.
    """
    items = list(items)
    if not all(isinstance(w, int) and not isinstance(w, bool) for _, _, w in items):
        raise InputError("term weight must be an integer")
    acc = signed_sum(((poly, mode), weight) for poly, mode, weight in items)
    return Region(dim, tuple(Term(poly, mode, acc[poly, mode]) for poly, mode in sorted(acc)))


def vertices_json(p: Polytope) -> list:
    """The vertices of p, each coordinate written from its integer over p.den."""
    return [[fmt_ratio(c, p.den) for c in v] for v in p.ints]


def region_to_json(r: Region) -> dict:
    return {
        "dimension": r.dim,
        "terms": [
            {
                "vertices": vertices_json(t.poly),
                "mode": t.mode,
                "weight": t.weight,
            }
            for t in r.terms
        ],
    }


def region_from_json(data) -> Region:
    if not isinstance(data, dict):
        raise InputError("region document must be a JSON object")
    try:
        dim = data["dimension"]
        raw_terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"region document missing field: {exc}") from None
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError("dimension must be an integer")
    if not 1 <= dim <= 3:
        raise InputError(f"ambient dimension {dim} out of range 1..3")
    if not isinstance(raw_terms, list):
        raise InputError("terms must be a list")
    if len(raw_terms) > MAX_REGION_TERMS:
        raise InputError(f"region file with more than {MAX_REGION_TERMS} terms")
    items = []
    for entry in raw_terms:
        try:
            verts = entry["vertices"]
            mode = entry["mode"]
            weight = entry["weight"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"region term missing field: {exc}") from None
        if not verts:
            raise InputError("region term needs at least one vertex")
        if not isinstance(verts, list) or not all(isinstance(v, list) for v in verts):
            raise InputError("vertices must be a list of coordinate lists")
        if len(verts) > MAX_TERM_VERTICES:
            raise InputError(f"region term with more than {MAX_TERM_VERTICES} vertices")
        if any(map(int_too_long, (c for v in verts for c in v))) or int_too_long(weight):
            raise InputError(f"integer longer than {MAX_LITERAL_DIGITS} digits")
        if any(len(v) != dim for v in verts):
            raise InputError("vertex length disagrees with dimension")
        poly = convex_hull(verts)
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise InputError("term weight must be an integer")
        if mode not in (CLOSED, RELINT):
            raise InputError(f"unknown face-selection mode {mode!r}")
        items.append((poly, mode, weight))
    return make_region(dim, items)


# ---------------------------------------------------------------------------
# evaluation and chi


def evaluate_region(r: Region, x) -> int:
    return value_scaled(r, *_probe(x, r.dim, r.den))


def value_scaled(r: Region, P, S: int) -> int:
    """r at P/S, P integer and S > 0, put onto the lcm of S and den: 0
    outside the region's box, else the weights of the terms holding it."""
    k = r.den // gcd(S, r.den)
    if k > 1:
        P, S = [c * k for c in P], S * k
    m = S // r.den
    lo, hi = r.box
    for a, x, b in zip(lo, P, hi):
        if not a * m <= x <= b * m:
            return 0
    return sum(t.weight for t in r.terms if t.poly.contains_scaled(P, S, t.mode == RELINT))


def euler_char_c(r: Region) -> int:
    """chi_c, additive over terms: closed gives 1, relint gives (-1)^d."""
    return sum(-t.weight if t.mode == RELINT and t.poly.adim % 2 else t.weight for t in r.terms)


def closed_expansion(r: Region) -> list[tuple[Polytope, int]]:
    """Rewrite every term over closed polytopes (relint via its face sum)."""
    acc = signed_sum((poly, sign * t.weight) for t in r.terms
                     for poly, sign in (open_indicator_expansion(t.poly) if t.mode == RELINT
                                        else [(t.poly, 1)]))
    return [(p, acc[p]) for p in sorted(acc)]


def extents(r: Region, xi) -> tuple[list[tuple[int, int]], int, tuple[int, ...]]:
    """Per term, the least and the greatest <xi, x> on it, as integers
    over D = r.den * L, L the lcm of the covector's denominators; D; and
    a = L xi.  The covector is read and checked once for each caller, by
    polytope._covector, and only the two extremes are scaled onto r.den."""
    a, L = _covector(xi, r.dim)
    vals = (([vdot(a, V) for V in t.poly.ints], r.den // t.poly.den) for t in r.terms)
    return [(min(v) * s, max(v) * s) for v, s in vals], r.den * L, a


# ---------------------------------------------------------------------------
# slicing


def slice_region(r: Region, xi, t) -> Region:
    """Intersection with the hyperplane <xi, x> = t, written in the chart
    that drops the first coordinate where xi is nonzero."""
    ext, D, a = extents(r, xi)
    if r.dim == 1:
        raise InputError("slicing needs ambient dimension at least 2")
    b, q = ratio(t)
    C, T = b * (D // r.den), b * D  # the hyperplane <a, x> = C/q; q t on the extents' scale
    drop = next(i for i, c in enumerate(a) if c)
    keep = [i for i in range(r.dim) if i != drop]

    def project(poly: Polytope) -> Polytope:
        return Polytope.from_ints(poly.den, [tuple(V[i] for i in keep) for V in poly.ints])

    items = []
    for term, (lo, hi) in zip(r.terms, ext):
        # relint meets the hyperplane iff it crosses or lies inside it
        if term.mode == CLOSED or lo * q == hi * q == T or lo * q < T < hi * q:
            sliced = _clip(term.poly, [(a, C), (vneg(a), -C)], q)
            if sliced is not None:
                items.append((project(sliced), term.mode, term.weight))
    return make_region(r.dim - 1, items)


# ---------------------------------------------------------------------------
# convexity decision


def indicator_polys(r: Region) -> list[Polytope]:
    if not r.terms:
        raise InputError("empty region carries no indicator support")
    bad = [t for t in r.terms if t.mode != CLOSED or t.weight != 1]
    if bad:
        raise InputError("indicator region needs closed terms of weight 1")
    return [t.poly for t in r.terms]


def indicator_normal_form(r: Region) -> Region:
    """The honest indicator function of the union of an indicator
    region's terms, via inclusion-exclusion (overlaps counted once),
    merged as it is built: after each term, equal intersections merge
    and zero weights drop.  Raises InputError once that live set passes
    MAX_IE_TERMS."""
    live: dict[Polytope, int] = {}
    for p in indicator_polys(r):
        # the union with p: 1_U + 1_p - the sum of w 1_{q meet p} over live (q, w)
        caps = ((cap, -w) for q, w in live.items()
                if (cap := intersect_polytopes(q, p)) is not None)
        live = signed_sum(chain(live.items(), [(p, 1)], caps))
        if len(live) > MAX_IE_TERMS:
            raise InputError(f"inclusion-exclusion over more than {MAX_IE_TERMS} terms")
    return make_region(r.dim, [(q, CLOSED, w) for q, w in live.items()])


def _segment_exit(A, B, X, Y, M: int):
    """A point of the open segment ]X/M, Y/M[ outside every polytope, or
    None: the first midpoint of two neighbouring crossings of its planes.
    A and B are each polytope's slacks c*M - den*<a, X> at X and Y over its
    halfspaces; it holds the one interval of t where each u + t(v - u) >= 0."""
    slacks = [list(zip(a, b)) for a, b in zip(A, B)]  # per polytope, each halfspace's (u, v)
    cross = [(u, u - v) for u, v in chain(*slacks) if u * v < 0]  # at t = u/(u - v)
    S = lcm(*(d // gcd(u, d) for u, d in cross))  # each t is a/S, a integer
    reach = 0  # [0, reach] is held; a polytope holds [its last entry, its first exit]
    for lo, hi in sorted((max([S * u // (u - v) for u, v in uv if u < 0], default=0),
                          min([S * u // (u - v) for u, v in uv if v < 0], default=S))
                         for uv in slacks if all(u >= 0 or v >= 0 for u, v in uv)):
        if lo > reach:
            break
        reach = max(reach, hi)
    if reach == S:
        return None
    b = min((a for u, d in cross if (a := S * u // d) > reach), default=S)  # the next crossing
    return tuple(Fraction(2 * S * x + (reach + b) * (y - x), 2 * S * M) for x, y in zip(X, Y))


def is_convex_region(r: Region):
    """Decide whether the support of an indicator region is convex.

    Returns (True, None, nf, hull) or (False, witness, nf, hull), where
    nf is the union's indicator_normal_form, hull the terms' convex hull
    and the witness carries two support points whose open segment leaves
    the support, plus the exit point itself.  The decision is the exact
    volume comparison; the witness search scans term vertices first and
    face barycenters after (vertex pairs alone cannot certify shapes like
    a triangle boundary), both on integers over one denominator, and
    skips a pair that one term holds.
    """
    nf = indicator_normal_form(r)
    polys = [t.poly for t in r.terms]
    hull = union_hull(polys)
    # exact: a term of the hull's dimension spans the hull's affine hull,
    # echelon pivots depend only on that span, so its chart is the hull's
    # chart; a term of lower dimension has measure zero
    full = [t for t in nf.terms if t.poly.adim == hull.adim]
    D = lcm(hull.den, *(t.poly.den for t in full))
    if sum(t.weight * scaled_volume(t.poly, D) for t in full) == scaled_volume(hull, D):
        return True, None, nf, hull
    # vertex pairs, then every pair with a barycenter of a face above a vertex
    faces = [(k > 0, len(idx) * p.den, [p.ints[i] for i in idx])
             for p in polys for k, idx in p.face_indices]
    M = lcm(*(q for _, q, _ in faces))
    tiers = (set(), set())  # the vertices, the faces above a vertex; over M
    for above, q, V in faces:
        tiers[above].add(tuple(M // q * sum(c) for c in zip(*V)))
    verts = sorted(tiers[0])
    pool = verts + sorted(tiers[1] - tiers[0])
    m, n = len(verts), len(pool)
    pairs = chain(combinations(range(m), 2),
                  ((i, j) for i in range(n) for j in range(max(i + 1, m), n)))
    # per point, read once on first use: each term's halfspace slacks, which end
    # every segment from it, and the mask of the terms holding it (no slack < 0)
    slacks = cache(lambda i: [[c * M - p.den * vdot(a, pool[i]) for a, c in p.halfspaces]
                              for p in polys])
    held = cache(lambda i: sum(1 << k for k, s in enumerate(slacks(i)) if min(s) >= 0))
    for i, j in pairs:
        X, Y = pool[i], pool[j]
        if not held(i) & held(j) and (z := _segment_exit(slacks(i), slacks(j), X, Y, M)):
            x, y = (tuple(Fraction(c, M) for c in v) for v in (X, Y))
            return False, {"x": x, "y": y, "outside": z}, nf, hull
    raise InvariantViolation("volume defect found but no segment witness")
